"""Network construction: regular local interconnection, validated."""

import pytest

from repro.errors import WiringError
from repro.systolic.cells import LatchCell
from repro.systolic.streams import silent
from repro.systolic.wiring import Endpoint, Network


def chain(n: int) -> Network:
    network = Network("chain")
    for index in range(n):
        network.add(LatchCell(f"l{index}"))
    for index in range(n - 1):
        network.connect(f"l{index}", "d_out", f"l{index + 1}", "d_in")
    return network


class TestConstruction:
    def test_duplicate_cell_name_rejected(self):
        network = Network()
        network.add(LatchCell("x"))
        with pytest.raises(WiringError, match="duplicate cell"):
            network.add(LatchCell("x"))

    def test_connect_unknown_cell(self):
        with pytest.raises(WiringError, match="unknown cell"):
            Network().connect("a", "d_out", "b", "d_in")

    def test_connect_unknown_port(self):
        network = chain(2)
        with pytest.raises(WiringError, match="no output port"):
            network.connect("l0", "bogus", "l1", "d_in")
        with pytest.raises(WiringError, match="no input port"):
            network.connect("l0", "d_out", "l1", "bogus")

    def test_input_single_driver(self):
        network = chain(3)
        with pytest.raises(WiringError, match="already driven"):
            network.connect("l2", "d_out", "l1", "d_in")

    def test_feeder_conflicts_with_wire(self):
        network = chain(2)
        with pytest.raises(WiringError, match="already driven"):
            network.feed("l1", "d_in", silent)

    def test_wire_conflicts_with_feeder(self):
        network = Network()
        network.add(LatchCell("a"))
        network.add(LatchCell("b"))
        network.feed("b", "d_in", silent)
        with pytest.raises(WiringError, match="already driven by a feeder"):
            network.connect("a", "d_out", "b", "d_in")

    def test_fanout_allowed(self):
        network = Network()
        for name in ("src", "d1", "d2"):
            network.add(LatchCell(name))
        network.connect("src", "d_out", "d1", "d_in")
        network.connect("src", "d_out", "d2", "d_in")
        assert len(network.wires) == 2

    def test_duplicate_tap_name(self):
        network = chain(1)
        network.tap("out", "l0", "d_out")
        with pytest.raises(WiringError, match="duplicate tap"):
            network.tap("out", "l0", "d_out")


class TestIntrospection:
    def test_unconnected_inputs_listed(self):
        network = chain(3)
        assert network.unconnected_inputs() == [Endpoint("l0", "d_in")]

    def test_strict_validation_fails_on_dangling(self):
        network = chain(2)
        with pytest.raises(WiringError, match="unconnected"):
            network.validate(strict=True)

    def test_strict_validation_passes_when_fed(self):
        network = chain(2)
        network.feed("l0", "d_in", silent)
        network.validate(strict=True)

    def test_lenient_validation_always_passes(self):
        chain(2).validate(strict=False)

    def test_cell_lookup(self):
        network = chain(1)
        assert network.cell("l0").name == "l0"
        with pytest.raises(WiringError):
            network.cell("zz")

    def test_len_and_iter(self):
        network = chain(3)
        assert len(network) == 3
        assert sorted(c.name for c in network) == ["l0", "l1", "l2"]


class TestMergeFeeders:
    def test_two_feeders_never_allowed(self):
        network = chain(1)
        network.feed("l0", "d_in", silent)
        with pytest.raises(WiringError, match="already driven by a feeder"):
            network.feed("l0", "d_in", silent)
