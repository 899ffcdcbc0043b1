"""The synchronous pulse simulator: two-phase semantics, taps, draining."""

import pytest

from repro.errors import SimulationError
from repro.systolic.cell import Cell
from repro.systolic.cells import LatchCell
from repro.systolic.metrics import ActivityMeter
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import ConstantFeeder, ScheduleFeeder
from repro.systolic.values import Token, tok
from repro.systolic.wiring import Network


def delay_line(n: int, schedule: dict[int, Token]) -> Network:
    network = Network("delay-line")
    for index in range(n):
        network.add(LatchCell(f"l{index}"))
    for index in range(n - 1):
        network.connect(f"l{index}", "d_out", f"l{index + 1}", "d_in")
    network.feed("l0", "d_in", ScheduleFeeder(schedule))
    network.tap("out", f"l{n - 1}", "d_out")
    return network


class TestPulseSemantics:
    def test_one_hop_per_pulse(self):
        # A token fed at pulse 0 exits an n-cell line at pulse n-1.
        simulator = SystolicSimulator(delay_line(4, {0: tok("x")}))
        simulator.run(4)
        assert [pulse for pulse, _ in simulator.collector("out")] == [3]

    def test_stream_preserves_spacing(self):
        simulator = SystolicSimulator(
            delay_line(3, {0: tok("a"), 2: tok("b"), 4: tok("c")})
        )
        simulator.run(7)
        assert [pulse for pulse, _ in simulator.collector("out")] == [2, 4, 6]
        assert simulator.collector("out").values() == ["a", "b", "c"]

    def test_latch_holds_for_exactly_one_pulse(self):
        # Data not re-emitted is gone: the line outputs nothing extra.
        simulator = SystolicSimulator(delay_line(2, {0: tok("x")}))
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
        network = delay_line(2, {0: tok("x")})
        network.tap("dup", "l1", "d_out")
        simulator = SystolicSimulator(network)
        simulator.run(3)
        assert simulator.collector("out").values() == ["x"]
        assert simulator.collector("dup").values() == ["x"]


class TestRunUntilQuiet:
    def test_drains_after_feeders_exhaust(self):
        simulator = SystolicSimulator(delay_line(3, {0: tok("x"), 2: tok("y")}))
        simulator.run_until_quiet()
        assert simulator.collector("out").values() == ["x", "y"]

    def test_limit_guards_against_constant_feeders(self):
        network = delay_line(2, {})
        # Replace with an always-on feeder: never quiesces.
        network2 = Network("noisy")
        network2.add(LatchCell("l0"))
        network2.feed("l0", "d_in", ConstantFeeder(tok(1)))
        simulator = SystolicSimulator(network2)
        with pytest.raises(SimulationError, match="did not quiesce"):
            simulator.run_until_quiet(limit=50)

    def test_limit_error_names_the_network(self):
        network = Network("noisy")
        network.add(LatchCell("l0"))
        network.feed("l0", "d_in", ConstantFeeder(tok(1)))
        simulator = SystolicSimulator(network)
        with pytest.raises(SimulationError, match="noisy"):
            simulator.run_until_quiet(limit=7)
        # The simulator is still usable after the failed drain.
        simulator.run(1)

    def test_empty_network_quiesces_immediately(self):
        simulator = SystolicSimulator(Network("empty"))
        assert simulator.run_until_quiet(settle=3) == 3
        assert simulator.pulse == 3

    def test_idle_network_runs_exactly_settle_pulses(self):
        simulator = SystolicSimulator(delay_line(2, {}))
        assert simulator.run_until_quiet(settle=5) == 5

    def test_small_settle_stops_inside_a_stream_gap(self):
        # Tokens at pulses 0 and 3 leave two idle pulses in between; a
        # 1-pulse settle declares quiescence inside the gap and misses
        # the second token, while the default rides it out.
        schedule = {0: tok("x"), 3: tok("y")}
        early = SystolicSimulator(delay_line(1, schedule))
        early.run_until_quiet(settle=1)
        assert early.collector("out").values() == ["x"]

        patient = SystolicSimulator(delay_line(1, schedule))
        patient.run_until_quiet(settle=4)
        assert patient.collector("out").values() == ["x", "y"]


class _BadCell(Cell):
    IN_PORTS = ("d_in",)
    OUT_PORTS = ("d_out",)

    def step(self, inputs):
        return {"undeclared": tok(1)}


class TestErrorHandling:
    def test_undeclared_output_port_detected(self):
        network = Network()
        network.add(_BadCell("bad"))
        simulator = SystolicSimulator(network)
        with pytest.raises(SimulationError, match="undeclared output"):
            simulator.step_once()

    def test_cell_error_annotated_with_pulse(self):
        from repro.systolic.cells import ComparisonCell

        network = Network()
        network.add(ComparisonCell("c"))
        network.feed("c", "t_in", ScheduleFeeder({4: tok(True)}))
        simulator = SystolicSimulator(network)
        with pytest.raises(SimulationError, match="pulse 4"):
            simulator.run(5)

    def test_strict_mode_propagates_to_network(self):
        network = delay_line(2, {})
        # l0 is fed; fine. Remove feeder scenario: build unfed chain.
        unfed = Network("unfed")
        unfed.add(LatchCell("a"))
        with pytest.raises(Exception, match="unconnected"):
            SystolicSimulator(unfed, strict=True)

    def test_cells_reset_on_simulator_construction(self):
        from repro.systolic.cells import DivisorCell

        network = Network()
        cell = DivisorCell("d", stored=1)
        cell.seen = True
        network.add(cell)
        SystolicSimulator(network)
        assert cell.seen is False


class TestMeterIntegration:
    def test_busy_cells_counted(self):
        meter = ActivityMeter()
        simulator = SystolicSimulator(delay_line(3, {0: tok("x")}), meter=meter)
        simulator.run(3)
        # The token visits l0, l1, l2 on pulses 0, 1, 2: one busy pulse each.
        assert meter.busy_pulses == {"l0": 1, "l1": 1, "l2": 1}
        report = meter.report()
        assert report.pulses == 3
        assert report.cells == 3
        assert report.utilization == pytest.approx(3 / 9)


class TestObserver:
    def test_observer_sees_inputs_and_outputs(self):
        seen = []

        def observer(pulse, inputs, outputs):
            seen.append((pulse, inputs["l0"]["d_in"], outputs["l0"].get("d_out")))

        simulator = SystolicSimulator(
            delay_line(1, {1: tok("z")}), observer=observer
        )
        simulator.run(2)
        assert seen[0][1] is None
        assert seen[1][1].value == "z"
        assert seen[1][2].value == "z"
