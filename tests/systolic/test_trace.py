"""Trace recording and Fig 3-4-style grid rendering."""

import pytest

from repro.errors import SimulationError
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import ScheduleFeeder
from repro.systolic.trace import TraceRecorder, render_grid
from repro.systolic.values import Token
from repro.systolic.wiring import Network
from tests.systolic.forward import Forward


@pytest.fixture
def traced_line():
    network = Network()
    for index in range(3):
        network.add(Forward(f"l{index}"))
    network.connect("l0", "d_out", "l1", "d_in")
    network.connect("l1", "d_out", "l2", "d_in")
    network.feed("l0", "d_in", ScheduleFeeder({0: Token("x"), 2: Token("y")}))
    recorder = TraceRecorder()
    simulator = SystolicSimulator(network, observer=recorder)
    simulator.run(5)
    return recorder


class TestTraceRecorder:
    def test_snapshots_track_token_motion(self, traced_line):
        assert "l0" in traced_line.at(0)
        assert "l1" in traced_line.at(1)
        assert "l2" in traced_line.at(2)
        assert traced_line.at(2)["l0"]["d_in"].value == "y"

    def test_only_busy_cells_stored(self, traced_line):
        assert list(traced_line.at(1)) == ["l1"]

    def test_missing_snapshot_raises(self, traced_line):
        with pytest.raises(SimulationError, match="no snapshot"):
            traced_line.at(99)


class TestRenderGrid:
    def test_layout_places_cells(self, traced_line):
        layout = {"l0": (0, 0), "l1": (0, 1), "l2": (0, 2)}
        text = render_grid(traced_line.at(1), layout)
        columns = text.split()
        assert columns == [".", "x", "."]

    def test_custom_formatter(self, traced_line):
        layout = {"l0": (0, 0)}
        text = render_grid(
            traced_line.at(0), layout, fmt=lambda ports: "BUSY"
        )
        assert "BUSY" in text

    def test_two_dimensional_layout(self):
        snapshot = {"a": {"p": Token(1)}, "d": {"p": Token(4)}}
        layout = {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}
        lines = render_grid(snapshot, layout).splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["1", "."]
        assert lines[1].split() == [".", "4"]

    def test_empty_layout(self):
        assert render_grid({}, {}) == ""
