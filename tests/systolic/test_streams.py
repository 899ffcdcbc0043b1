"""Feeders (the staggering machinery of §3.1) and collectors."""

import pytest

from repro.errors import SimulationError
from repro.systolic.streams import (
    Collector,
    ConstantFeeder,
    PeriodicFeeder,
    ScheduleFeeder,
)
from repro.systolic.values import Token


class TestScheduleFeeder:
    def test_emits_at_scheduled_pulses_only(self):
        feeder = ScheduleFeeder({2: Token("x"), 5: Token("y")})
        assert feeder(2).value == "x"
        assert feeder(5).value == "y"
        assert feeder(0) is None
        assert feeder(3) is None

    def test_negative_pulse_rejected(self):
        with pytest.raises(SimulationError):
            ScheduleFeeder({-1: Token(1)})


class TestPeriodicFeeder:
    def test_two_pulse_spacing(self):
        # §3.2's "each tuple is two steps behind" pattern.
        feeder = PeriodicFeeder([Token(10), Token(11), Token(12)], start=3, period=2)
        assert feeder(3).value == 10
        assert feeder(5).value == 11
        assert feeder(7).value == 12
        assert feeder(4) is None
        assert feeder(9) is None

    def test_unit_period(self):
        feeder = PeriodicFeeder([Token(0), Token(1)], start=0, period=1)
        assert [feeder(p) and feeder(p).value for p in range(3)] == [0, 1, None]

    def test_none_slots_allowed(self):
        feeder = PeriodicFeeder([Token(0), None, Token(2)], start=0, period=1)
        assert feeder(1) is None
        assert feeder(2).value == 2

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            PeriodicFeeder([Token(1)], start=0, period=0)
        with pytest.raises(SimulationError):
            PeriodicFeeder([Token(1)], start=-1, period=1)


class TestConstantFeeder:
    def test_always_on(self):
        feeder = ConstantFeeder(Token(9))
        assert feeder(0).value == 9
        assert feeder(1000).value == 9


class TestCollector:
    def test_records_in_pulse_order(self):
        collector = Collector("c")
        collector.record(3, Token("a"))
        collector.record(7, Token("b"))
        assert [pulse for pulse, _ in collector] == [3, 7]
        assert [token.value for _, token in collector] == ["a", "b"]
        assert collector.records[0][1].value == "a"

    def test_double_record_same_pulse_rejected(self):
        collector = Collector("c")
        collector.record(3, Token("a"))
        with pytest.raises(SimulationError, match="two tokens"):
            collector.record(3, Token("b"))

    def test_len_and_iteration(self):
        collector = Collector("c")
        collector.record(1, Token("a"))
        collector.record(2, Token("b"))
        assert len(collector) == 2
        assert [(p, t.value) for p, t in collector] == [(1, "a"), (2, "b")]
