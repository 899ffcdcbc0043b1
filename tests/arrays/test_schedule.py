"""The feeding-schedule arithmetic of §3.2 and §8."""

import pytest

from repro.systolic.engine.schedule import CounterStreamSchedule, FixedRelationSchedule
from repro.errors import SimulationError


class TestCounterStreamGeometry:
    def test_rows_is_odd(self):
        # Counter-moving streams swap between cells unless R is odd.
        for n_a in range(1, 8):
            for n_b in range(1, 8):
                schedule = CounterStreamSchedule(n_a, n_b, arity=3)
                assert schedule.rows % 2 == 1
                assert schedule.rows == 2 * max(n_a, n_b) - 1

    def test_every_pair_meets_inside_the_array(self):
        schedule = CounterStreamSchedule(n_a=4, n_b=6, arity=2)
        for i in range(4):
            for j in range(6):
                assert 0 <= schedule.meeting_row(i, j) < schedule.rows

    def test_meetings_are_unique_per_cell_and_pulse(self):
        # No two pairs occupy the same (row, pulse) at the same column.
        schedule = CounterStreamSchedule(n_a=5, n_b=5, arity=1)
        seen = {}
        for i in range(5):
            for j in range(5):
                key = (schedule.meeting_row(i, j), schedule.meeting_pulse(i, j))
                assert key not in seen, f"collision: {seen[key]} vs {(i, j)}"
                seen[key] = (i, j)

    def test_element_stagger_is_one_pulse(self):
        schedule = CounterStreamSchedule(n_a=3, n_b=3, arity=4)
        assert schedule.a_entry_pulse(1, 2) == schedule.a_entry_pulse(1, 1) + 1

    def test_tuple_spacing_is_two_pulses(self):
        schedule = CounterStreamSchedule(n_a=3, n_b=3, arity=4)
        assert schedule.a_entry_pulse(2, 0) == schedule.a_entry_pulse(1, 0) + 2
        assert schedule.b_entry_pulse(2, 0) == schedule.b_entry_pulse(1, 0) + 2

    def test_row_pairs_cover_all_pairs_exactly_once(self):
        schedule = CounterStreamSchedule(n_a=4, n_b=3, arity=2)
        collected = [
            pair for row in range(schedule.rows) for pair in schedule.row_pairs(row)
        ]
        assert sorted(collected) == [
            (i, j) for i in range(4) for j in range(3)
        ]

    def test_row_pairs_match_meeting_row(self):
        schedule = CounterStreamSchedule(n_a=4, n_b=3, arity=2)
        for row in range(schedule.rows):
            for i, j in schedule.row_pairs(row):
                assert schedule.meeting_row(i, j) == row


class TestCounterStreamInverses:
    def test_pair_from_exit_inverts_exit_pulse(self):
        schedule = CounterStreamSchedule(n_a=4, n_b=5, arity=3)
        for i in range(4):
            for j in range(5):
                row = schedule.meeting_row(i, j)
                pulse = schedule.t_exit_pulse(i, j)
                assert schedule.pair_from_exit(row, pulse) == (i, j)

    def test_pair_from_exit_rejects_phantom_arrivals(self):
        # Within a row, legitimate exits are two pulses apart; an
        # off-parity pulse matches no pair.
        schedule = CounterStreamSchedule(n_a=2, n_b=2, arity=2)
        legit = schedule.t_exit_pulse(1, 0)  # the row-0 pair
        with pytest.raises(SimulationError, match="no pair"):
            schedule.pair_from_exit(0, legit + 1)

    def test_pair_from_exit_rejects_out_of_range(self):
        schedule = CounterStreamSchedule(n_a=2, n_b=2, arity=2)
        with pytest.raises(SimulationError, match="outside"):
            schedule.pair_from_exit(1, schedule.t_exit_pulse(1, 1) + 4)

    def test_accumulator_inverse(self):
        schedule = CounterStreamSchedule(n_a=5, n_b=3, arity=2)
        for i in range(5):
            pulse = schedule.accumulator_exit_pulse(i)
            assert schedule.tuple_from_accumulator_exit(pulse) == i

    def test_accumulator_inverse_rejects_bad_pulses(self):
        schedule = CounterStreamSchedule(n_a=2, n_b=2, arity=2)
        good = schedule.accumulator_exit_pulse(0)
        with pytest.raises(SimulationError):
            schedule.tuple_from_accumulator_exit(good + 1)
        with pytest.raises(SimulationError):
            schedule.tuple_from_accumulator_exit(good + 2 * 2)  # i = 2 too big

    def test_accumulator_alignment(self):
        # The descending slot for tuple i reaches the accumulator beside
        # the meeting row of (i, j) exactly when t_ij arrives from the left.
        schedule = CounterStreamSchedule(n_a=4, n_b=4, arity=3)
        for i in range(4):
            seed = schedule.accumulator_seed_pulse(i)
            for j in range(4):
                row = schedule.meeting_row(i, j)
                arrival_from_left = schedule.t_exit_pulse(i, j) + 1
                slot_at_row = seed + row
                assert slot_at_row == arrival_from_left

    def test_total_pulses_bound_everything(self):
        schedule = CounterStreamSchedule(n_a=4, n_b=6, arity=3)
        last_exit = max(
            schedule.t_exit_pulse(i, j) for i in range(4) for j in range(6)
        )
        assert schedule.comparison_pulses == last_exit + 1
        assert schedule.total_pulses > schedule.comparison_pulses


class TestCounterStreamValidation:
    def test_rejects_empty_relations(self):
        with pytest.raises(SimulationError, match="non-empty"):
            CounterStreamSchedule(n_a=0, n_b=3, arity=2)

    def test_rejects_zero_arity(self):
        with pytest.raises(SimulationError, match="arity"):
            CounterStreamSchedule(n_a=1, n_b=1, arity=0)


class TestFixedRelationSchedule:
    def test_rows_equals_n_b(self):
        assert FixedRelationSchedule(n_a=9, n_b=4, arity=2).rows == 4

    def test_tuples_one_pulse_apart(self):
        schedule = FixedRelationSchedule(n_a=3, n_b=3, arity=2)
        assert schedule.a_entry_pulse(1, 0) == schedule.a_entry_pulse(0, 0) + 1

    def test_pair_from_exit_inverse(self):
        schedule = FixedRelationSchedule(n_a=5, n_b=4, arity=3)
        for i in range(5):
            for row in range(4):
                pulse = schedule.t_exit_pulse(i, row)
                assert schedule.pair_from_exit(row, pulse) == (i, row)

    def test_accumulator_inverse(self):
        schedule = FixedRelationSchedule(n_a=5, n_b=4, arity=3)
        for i in range(5):
            pulse = schedule.accumulator_exit_pulse(i)
            assert schedule.tuple_from_accumulator_exit(pulse) == i

    def test_accumulator_alignment(self):
        schedule = FixedRelationSchedule(n_a=4, n_b=3, arity=2)
        for i in range(4):
            seed = schedule.accumulator_seed_pulse(i)
            for row in range(3):
                assert seed + row == schedule.t_exit_pulse(i, row) + 1

    def test_shorter_than_counter_stream(self):
        # The fixed design finishes sooner: denser feeding, fewer rows.
        counter = CounterStreamSchedule(n_a=8, n_b=8, arity=3)
        fixed = FixedRelationSchedule(n_a=8, n_b=8, arity=3)
        assert fixed.total_pulses < counter.total_pulses

    def test_validation(self):
        with pytest.raises(SimulationError):
            FixedRelationSchedule(n_a=0, n_b=1, arity=1)
        with pytest.raises(SimulationError):
            FixedRelationSchedule(n_a=1, n_b=1, arity=0)
