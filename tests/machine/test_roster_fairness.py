"""The DeviceRoster's documented deterministic tie-breaking order."""

from __future__ import annotations

from repro.machine import DeviceRoster
from repro.machine.device import SystolicDevice
from repro.machine.plan import DEVICE_JOIN


def _twins() -> list[SystolicDevice]:
    return [
        SystolicDevice("join1", DEVICE_JOIN),
        SystolicDevice("join0", DEVICE_JOIN),
    ]


class TestDeterministicTieBreak:
    def test_default_ties_break_by_name(self):
        """The rule, pinned: on equal predicted completion the
        lexicographically smallest name wins — every time, regardless
        of construction order."""
        roster = DeviceRoster(_twins())
        for _ in range(5):
            device, start = roster.pick(DEVICE_JOIN, ready=0.0)
            assert device.name == "join0"
            assert start == 0.0

    def test_equal_durations_still_break_by_name(self):
        roster = DeviceRoster(_twins())
        durations = {"join0": 2.0, "join1": 2.0}
        device, _ = roster.pick(DEVICE_JOIN, ready=1.0, durations=durations)
        assert device.name == "join0"

    def test_cost_aware_choice_beats_name_order(self):
        """A faster predicted completion wins before any tie-break."""
        roster = DeviceRoster(_twins())
        durations = {"join0": 5.0, "join1": 1.0}
        device, _ = roster.pick(DEVICE_JOIN, ready=0.0, durations=durations)
        assert device.name == "join1"

    def test_busy_device_loses(self):
        roster = DeviceRoster(_twins())
        roster.occupy("join0", 10.0)
        device, start = roster.pick(DEVICE_JOIN, ready=0.0)
        assert device.name == "join1"
        assert start == 0.0

