"""Feeders (the staggering machinery of §3.1) and collectors."""

import pytest

from repro.errors import SimulationError
from repro.systolic.streams import (
    Collector,
    ConstantFeeder,
    PeriodicFeeder,
    ScheduleFeeder,
    silent,
)
from repro.systolic.values import tok


class TestScheduleFeeder:
    def test_emits_at_scheduled_pulses_only(self):
        feeder = ScheduleFeeder({2: tok("x"), 5: tok("y")})
        assert feeder(2).value == "x"
        assert feeder(5).value == "y"
        assert feeder(0) is None
        assert feeder(3) is None

    def test_negative_pulse_rejected(self):
        with pytest.raises(SimulationError):
            ScheduleFeeder({-1: tok(1)})

    def test_last_pulse(self):
        assert ScheduleFeeder({2: tok(1), 7: tok(2)}).last_pulse == 7
        assert ScheduleFeeder({}).last_pulse == -1


class TestPeriodicFeeder:
    def test_two_pulse_spacing(self):
        # §3.2's "each tuple is two steps behind" pattern.
        feeder = PeriodicFeeder([tok(10), tok(11), tok(12)], start=3, period=2)
        assert feeder(3).value == 10
        assert feeder(5).value == 11
        assert feeder(7).value == 12
        assert feeder(4) is None
        assert feeder(9) is None

    def test_unit_period(self):
        feeder = PeriodicFeeder([tok(0), tok(1)], start=0, period=1)
        assert [feeder(p) and feeder(p).value for p in range(3)] == [0, 1, None]

    def test_none_slots_allowed(self):
        feeder = PeriodicFeeder([tok(0), None, tok(2)], start=0, period=1)
        assert feeder(1) is None
        assert feeder(2).value == 2

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            PeriodicFeeder([tok(1)], start=0, period=0)
        with pytest.raises(SimulationError):
            PeriodicFeeder([tok(1)], start=-1, period=1)

    def test_last_pulse(self):
        assert PeriodicFeeder([tok(1)] * 3, start=4, period=2).last_pulse == 8
        assert PeriodicFeeder([], start=4, period=2).last_pulse == -1


class TestConstantFeeder:
    def test_always_on(self):
        feeder = ConstantFeeder(tok(9))
        assert feeder(0).value == 9
        assert feeder(1000).value == 9

    def test_window(self):
        feeder = ConstantFeeder(tok(9), start=2, stop=4)
        assert feeder(1) is None
        assert feeder(2).value == 9
        assert feeder(3).value == 9
        assert feeder(4) is None

    def test_silent_never_emits(self):
        assert all(silent(p) is None for p in range(10))


class TestCollector:
    def test_records_in_pulse_order(self):
        collector = Collector("c")
        collector.record(3, tok("a"))
        collector.record(7, tok("b"))
        assert [pulse for pulse, _ in collector] == [3, 7]
        assert collector.values() == ["a", "b"]
        assert collector.records[0][1].value == "a"

    def test_at(self):
        collector = Collector("c")
        collector.record(3, tok("a"))
        assert collector.at(3).value == "a"
        assert collector.at(4) is None

    def test_double_record_same_pulse_rejected(self):
        collector = Collector("c")
        collector.record(3, tok("a"))
        with pytest.raises(SimulationError, match="two tokens"):
            collector.record(3, tok("b"))

    def test_len_and_iteration(self):
        collector = Collector("c")
        collector.record(1, tok("a"))
        collector.record(2, tok("b"))
        assert len(collector) == 2
        assert [(p, t.value) for p, t in collector] == [(1, "a"), (2, "b")]
