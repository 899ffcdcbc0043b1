"""Blocked execution on fixed-size devices — §8's decomposition (E10)."""

import pytest

from repro.arrays import (
    ArrayCapacity,
    blocked_difference,
    blocked_divide,
    blocked_intersection,
    blocked_join,
    blocked_pair_matrix,
    blocked_remove_duplicates,
    blocked_union,
)
from repro.errors import CapacityError
from repro.perf.cost import division_cost
from repro.relational import MultiRelation, Relation, algebra
from repro.systolic.engine.schedule import block_span_law
from repro.workloads import (
    division_example,
    division_workload,
    join_pair,
    overlapping_pair,
    relation_with_duplicates,
)

TINY = ArrayCapacity(max_rows=3, max_cols=1)    # 2-tuple blocks, 1 column
SMALL = ArrayCapacity(max_rows=5, max_cols=2)   # 3-tuple blocks, 2 columns
BIG = ArrayCapacity(max_rows=99, max_cols=16)   # everything fits


class TestCapacity:
    def test_tuple_block_from_rows(self):
        """A counter-streaming block of b tuples a side needs 2b − 1
        rows; held fixed, a block is one tuple a row."""
        for max_rows, counter in ((5, 3), (6, 3), (7, 4)):
            law = block_span_law(20, 20, 1, max_rows, 1)
            assert (law.first.n_a, law.first.n_b) == (counter, counter)
            fixed = block_span_law(20, 20, 1, max_rows, 1, "fixed")
            assert fixed.first.n_b == max_rows

    def test_positive_required(self):
        with pytest.raises(CapacityError):
            ArrayCapacity(max_rows=0, max_cols=1)


class TestBlockedMatrix:
    def test_matrix_identical_to_unblocked(self):
        a, b = overlapping_pair(7, 6, 3, arity=3, seed=5)
        full, _ = blocked_pair_matrix(a.tuples, b.tuples, BIG)
        tiny, report = blocked_pair_matrix(a.tuples, b.tuples, TINY)
        assert full == tiny
        assert report.block_runs == report.a_blocks * report.b_blocks * 3
        assert report.column_blocks == 3  # arity 3, 1 column per block

    def test_block_count_arithmetic(self):
        a, b = overlapping_pair(7, 6, 0, arity=2, seed=6)
        _, report = blocked_pair_matrix(a.tuples, b.tuples, SMALL)
        assert report.a_blocks == 3   # ceil(7/3)
        assert report.b_blocks == 2   # ceil(6/3)
        assert report.column_blocks == 1

    def test_masking_applies_at_global_indices(self):
        tuples = [(1, 1)] * 5  # all identical
        matrix, _ = blocked_pair_matrix(
            tuples, tuples, TINY, t_init=lambda i, j: j < i
        )
        for i in range(5):
            for j in range(5):
                assert matrix[i][j] is (j < i)


class TestBlockedOperators:
    def test_intersection(self):
        a, b = overlapping_pair(9, 7, 4, arity=3, seed=7)
        result, report = blocked_intersection(a, b, TINY)
        assert result == algebra.intersection(a, b)
        assert report.block_runs > 1

    def test_difference(self):
        a, b = overlapping_pair(8, 5, 2, arity=2, seed=8)
        result, _ = blocked_difference(a, b, SMALL)
        assert result == algebra.difference(a, b)

    def test_difference_empty_cases(self, pair_schema):
        a = Relation(pair_schema, [(1, 2)])
        empty = Relation(pair_schema)
        assert blocked_difference(a, empty, TINY)[0] == a
        assert len(blocked_difference(empty, a, TINY)[0]) == 0

    def test_remove_duplicates(self):
        multi = relation_with_duplicates(5, 2.4, arity=2, seed=9)
        result, _ = blocked_remove_duplicates(multi, TINY)
        assert result == algebra.remove_duplicates(multi)

    def test_union(self):
        a, b = overlapping_pair(6, 6, 2, arity=2, seed=10)
        result, _ = blocked_union(a, b, SMALL)
        assert result == algebra.union(a, b)

    def test_join(self):
        a, b = join_pair(8, 7, 4, seed=11)
        result, report = blocked_join(a, b, [("key", "key")], TINY)
        assert result == algebra.join(a, b, [("key", "key")])
        assert report.block_runs == report.a_blocks * report.b_blocks

    def test_multi_column_join_with_column_blocking(self, triple_schema):
        a = Relation(triple_schema, [(1, 2, 0), (1, 3, 0), (2, 2, 0)])
        b = Relation(triple_schema, [(1, 2, 9), (2, 2, 9)])
        on = [("x", "x"), ("y", "y")]
        result, report = blocked_join(a, b, on, TINY)
        assert result == algebra.join(a, b, on)
        assert report.column_blocks == 2

    def test_theta_join(self, pair_schema):
        a = Relation(pair_schema, [(1, 0), (5, 0), (9, 0)])
        b = Relation(pair_schema, [(4, 0), (6, 0)])
        result, _ = blocked_join(a, b, [("x", "x")], TINY, ops=["<"])
        assert result == algebra.theta_join(a, b, [("x", "x")], ["<"])

    def test_divide(self):
        a, b, expected = division_example()
        result, report = blocked_divide(a, b, ArrayCapacity(max_rows=2, max_cols=4))
        assert result == expected
        assert report.a_blocks == 2  # 3 distinct x over 2-row device
        assert report.b_blocks == 2  # 4 divisor values over 2 columns

    def test_divide_needs_three_columns(self):
        """The array and the cost model refuse a 2-column device with
        one error: both read it from ``division_span_law``."""
        a, b, _ = division_example()
        with pytest.raises(CapacityError, match="3 processor columns"):
            blocked_divide(a, b, ArrayCapacity(max_rows=8, max_cols=2))
        with pytest.raises(CapacityError, match="3 processor columns"):
            division_cost(len(a), 3, len(b), 8, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_division_cost_is_the_blocked_divide_it_prices(self, seed):
        """Predicted == simulated, block for block and pulse for pulse,
        from one-row devices to ones that hold the whole problem."""
        a, b, _ = division_workload(
            n_groups=5 + 2 * seed, divisor_size=3 + seed,
            full_coverage=2 + seed, seed=seed,
        )
        n_distinct = len({x for x, _ in a.tuples})
        for max_rows in (1, 3, 7, 64):
            for max_cols in (3, 4, 5, 16):
                _, report = blocked_divide(
                    a, b, ArrayCapacity(max_rows, max_cols),
                    backend="lattice",
                )
                cost = division_cost(
                    len(a), n_distinct, len(b), max_rows, max_cols
                )
                assert (
                    cost.total_pulses, cost.a_blocks, cost.b_blocks,
                    cost.block_runs,
                ) == (
                    report.total_pulses, report.a_blocks, report.b_blocks,
                    report.block_runs,
                ), (max_rows, max_cols)

    def test_empty_inputs(self, pair_schema):
        empty = Relation(pair_schema)
        full = Relation(pair_schema, [(1, 2)])
        assert len(blocked_intersection(empty, full, TINY)[0]) == 0
        assert len(blocked_join(empty, full, [("x", "x")], TINY)[0]) == 0
        assert len(
            blocked_remove_duplicates(MultiRelation(pair_schema), TINY)[0]
        ) == 0


class TestOverheadShape:
    def test_smaller_device_means_more_runs_and_pulses(self):
        a, b = overlapping_pair(10, 10, 5, arity=2, seed=12)
        _, small_report = blocked_intersection(a, b, TINY)
        _, big_report = blocked_intersection(a, b, BIG)
        assert small_report.block_runs > big_report.block_runs
        assert small_report.total_pulses > big_report.total_pulses
