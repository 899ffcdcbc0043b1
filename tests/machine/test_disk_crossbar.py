"""The machine disk (with logic-per-track) and the crossbar switch."""

import pytest

from repro.errors import CapacityError, PlanError
from repro.machine import CrossbarSwitch, MachineDisk
from repro.machine.crossbar import Link
from repro.perf import PAPER_DISK
from repro.relational import Relation


def memory_free_at(switch: CrossbarSwitch, memory: str, instant: float):
    """Earliest time >= ``instant`` at which a memory port is free."""
    time = instant
    changed = True
    while changed:
        changed = False
        for link in switch.links:
            if link.memory == memory and link.start <= time < link.end:
                time = link.end
                changed = True
    return time


class TestMachineDisk:
    def test_read_timing_whole_revolutions(self, pair_schema):
        disk = MachineDisk()
        r = Relation(pair_schema, [(i, i) for i in range(10)])
        disk.store("R", r)
        loaded, seconds = disk.read("R")
        assert loaded == r
        assert seconds == PAPER_DISK.revolution_seconds  # tiny: 1 revolution

    def test_unknown_relation(self):
        with pytest.raises(PlanError, match="no base relation"):
            MachineDisk().read("ghost")

    def test_logic_per_track_selection(self, pair_schema):
        disk = MachineDisk(logic_per_track=True)
        r = Relation(pair_schema, [(1, 10), (2, 20), (3, 30)])
        disk.store("R", r)
        filtered, seconds = disk.read("R", selection=("x", ">=", 2))
        assert filtered.tuples == ((2, 20), (3, 30))
        # §9/[8]: selection costs nothing extra — same read time.
        _, plain_seconds = disk.read("R")
        assert seconds == plain_seconds

    def test_selection_requires_logic_per_track(self, pair_schema):
        disk = MachineDisk(logic_per_track=False)
        disk.store("R", Relation(pair_schema, [(1, 10)]))
        with pytest.raises(PlanError, match="logic-per-track"):
            disk.read("R", selection=("x", "==", 1))

    def test_bad_selection_operator(self, pair_schema):
        disk = MachineDisk(logic_per_track=True)
        disk.store("R", Relation(pair_schema, [(1, 10)]))
        with pytest.raises(PlanError, match="unknown comparison"):
            disk.read("R", selection=("x", "~", 1))

    def test_catalog(self, pair_schema):
        disk = MachineDisk()
        disk.store("A", Relation(pair_schema, [(1, 1)]))
        assert disk.holds("A")
        assert not disk.holds("B")
        assert disk.names() == ["A"]


class TestCrossbar:
    def test_non_blocking_for_distinct_ports(self):
        switch = CrossbarSwitch(["m0", "m1"], ["d0", "d1"])
        switch.establish("m0", "d0", 0.0, 1.0)
        switch.establish("m1", "d1", 0.0, 1.0)  # concurrent, no conflict
        assert switch.concurrency_profile() == 2

    def test_memory_port_conflict_detected(self):
        switch = CrossbarSwitch(["m0"], ["d0", "d1"])
        switch.establish("m0", "d0", 0.0, 1.0)
        with pytest.raises(CapacityError, match="already linked"):
            switch.establish("m0", "d1", 0.5, 1.5)

    def test_same_pair_may_relink(self):
        # A memory feeding the same device twice in one window is just
        # one stream; not a conflict.
        switch = CrossbarSwitch(["m0"], ["d0"])
        switch.establish("m0", "d0", 0.0, 1.0)
        switch.establish("m0", "d0", 0.5, 1.5)

    def test_sequential_reuse_allowed(self):
        switch = CrossbarSwitch(["m0"], ["d0", "d1"])
        switch.establish("m0", "d0", 0.0, 1.0)
        switch.establish("m0", "d1", 1.0, 2.0)  # back-to-back is fine
        assert switch.configurations() == 2

    def test_unknown_ports(self):
        switch = CrossbarSwitch(["m0"], ["d0"])
        with pytest.raises(PlanError, match="unknown memory"):
            switch.establish("mx", "d0", 0, 1)
        with pytest.raises(PlanError, match="unknown device"):
            switch.establish("m0", "dx", 0, 1)

    def test_earliest_window_finds_gap(self):
        switch = CrossbarSwitch(["m0"], ["d0"])
        switch.establish("m0", "d0", 1.0, 2.0)
        switch.establish("m0", "d0", 3.0, 4.0)
        assert switch.earliest_window("m0", 0.0, 1.0) == 0.0   # before
        assert switch.earliest_window("m0", 0.0, 1.5) == 4.0   # too long for gaps
        assert switch.earliest_window("m0", 1.5, 0.5) == 2.0   # the gap
        assert switch.earliest_window("m0", 5.0, 9.0) == 5.0   # after

    def test_memory_free_queries(self):
        switch = CrossbarSwitch(["m0"], ["d0"])
        switch.establish("m0", "d0", 1.0, 2.0)
        assert switch.memory_free("m0", 0.0, 1.0)
        assert not switch.memory_free("m0", 1.5, 3.0)
        assert memory_free_at(switch, "m0", 1.5) == 2.0

    def test_link_validation(self):
        with pytest.raises(PlanError):
            Link("m", "d", 2.0, 1.0)
        with pytest.raises(CapacityError):
            CrossbarSwitch([], ["d0"])
