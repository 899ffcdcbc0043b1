"""The synchronous pulse simulator: two-phase semantics, taps, draining."""

import pytest

from repro.errors import SimulationError
from repro.systolic.cell import Cell
from repro.systolic.cells import ComparisonCell, DivisorCell
from repro.systolic.metrics import ComparisonWorkMeter
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import ScheduleFeeder
from repro.systolic.trace import TraceRecorder
from repro.systolic.values import Token
from repro.systolic.wiring import Network
from tests.systolic.forward import Forward


def delay_line(n: int, schedule: dict[int, Token]) -> Network:
    network = Network("delay-line")
    for index in range(n):
        network.add(Forward(f"l{index}"))
    for index in range(n - 1):
        network.connect(f"l{index}", "d_out", f"l{index + 1}", "d_in")
    network.feed("l0", "d_in", ScheduleFeeder(schedule))
    network.tap("out", f"l{n - 1}", "d_out")
    return network


def values(collector) -> list:
    """A collector's payloads, in arrival order."""
    return [token.value for _, token in collector]


class TestPulseSemantics:
    def test_one_hop_per_pulse(self):
        # A token fed at pulse 0 exits an n-cell line at pulse n-1.
        simulator = SystolicSimulator(delay_line(4, {0: Token("x")}))
        simulator.run(4)
        assert [pulse for pulse, _ in simulator.collector("out")] == [3]

    def test_stream_preserves_spacing(self):
        simulator = SystolicSimulator(
            delay_line(3, {0: Token("a"), 2: Token("b"), 4: Token("c")})
        )
        simulator.run(7)
        assert [pulse for pulse, _ in simulator.collector("out")] == [2, 4, 6]
        assert values(simulator.collector("out")) == ["a", "b", "c"]

    def test_latch_holds_for_exactly_one_pulse(self):
        # Data not re-emitted is gone: the line outputs nothing extra.
        simulator = SystolicSimulator(delay_line(2, {0: Token("x")}))
        simulator.run(10)
        assert len(simulator.collector("out")) == 1

    def test_pulse_counter(self):
        simulator = SystolicSimulator(delay_line(2, {}))
        simulator.run(5)
        assert simulator.pulse == 5

    def test_negative_run_rejected(self):
        simulator = SystolicSimulator(delay_line(2, {}))
        with pytest.raises(SimulationError):
            simulator.run(-1)


class TestTapsAndCollectors:
    def test_unknown_collector(self):
        simulator = SystolicSimulator(delay_line(2, {}))
        with pytest.raises(SimulationError, match="no tap"):
            simulator.collector("nope")

    def test_two_taps_on_one_port(self):
        network = delay_line(2, {0: Token("x")})
        network.tap("dup", "l1", "d_out")
        simulator = SystolicSimulator(network)
        simulator.run(3)
        assert values(simulator.collector("out")) == ["x"]
        assert values(simulator.collector("dup")) == ["x"]


class TestDraining:
    def test_drains_after_feeders_exhaust(self):
        # The last token enters on pulse 2 and leaves the three-cell
        # line on pulse 4; after that no cell sees anything.
        recorder = TraceRecorder()
        simulator = SystolicSimulator(
            delay_line(3, {0: Token("x"), 2: Token("y")}), observer=recorder
        )
        simulator.run(10)
        assert values(simulator.collector("out")) == ["x", "y"]
        assert [p for p in recorder.pulses if recorder.at(p)] == [0, 1, 2, 3, 4]


class _BadCell(Cell):
    IN_PORTS = ("d_in",)
    OUT_PORTS = ("d_out",)

    def step(self, inputs):
        return {"undeclared": Token(1)}


class TestErrorHandling:
    def test_undeclared_output_port_detected(self):
        network = Network()
        network.add(_BadCell("bad"))
        simulator = SystolicSimulator(network)
        with pytest.raises(SimulationError, match="undeclared output"):
            simulator.step_once()

    def test_cell_error_annotated_with_pulse(self):
        network = Network()
        network.add(ComparisonCell("c"))
        network.feed("c", "t_in", ScheduleFeeder({4: Token(True)}))
        simulator = SystolicSimulator(network)
        with pytest.raises(SimulationError, match="pulse 4"):
            simulator.run(5)

    def test_cells_reset_on_simulator_construction(self):
        network = Network()
        cell = DivisorCell("d", stored=1)
        cell.seen = True
        network.add(cell)
        SystolicSimulator(network)
        assert cell.seen is False


class TestMeterIntegration:
    def test_busy_cells_counted(self):
        # A meter watches through the observer hook: the token leaves
        # l0, l1, l2 on pulses 0, 1, 2, one working cell a pulse.
        meter = ComparisonWorkMeter(port="d_out")
        simulator = SystolicSimulator(
            delay_line(3, {0: Token("x")}), observer=meter
        )
        simulator.run(3)
        assert meter.per_pulse == [1, 1, 1]
        assert meter.utilization(3, steady=False) == pytest.approx(3 / 9)


class TestObserver:
    def test_observer_sees_inputs_and_outputs(self):
        seen = []

        def observer(pulse, inputs, outputs):
            seen.append((pulse, inputs["l0"]["d_in"], outputs["l0"].get("d_out")))

        simulator = SystolicSimulator(
            delay_line(1, {1: Token("z")}), observer=observer
        )
        simulator.run(2)
        assert seen[0][1] is None
        assert seen[1][1].value == "z"
        assert seen[1][2].value == "z"
