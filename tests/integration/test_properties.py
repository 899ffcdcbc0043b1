"""Property-based tests: the arrays equal the algebra on arbitrary inputs.

Hypothesis drives small random relations through every systolic
operator and checks the result against the software oracle, plus the
algebraic laws the operators must satisfy.  Sizes are kept small — each
example simulates a full array pulse-by-pulse.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import (
    ArrayCapacity,
    blocked_intersection,
    blocked_join,
    blocked_remove_duplicates,
    systolic_difference,
    systolic_divide,
    systolic_intersection,
    systolic_join,
    systolic_remove_duplicates,
    systolic_theta_join,
    systolic_union,
)
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.bitlevel import bit_level_compare_all_pairs, bit_level_three_way_compare, expand_tuple
from repro.arrays import compare_all_pairs
from repro.relational import Domain, MultiRelation, Relation, Schema, algebra

SMALL = settings(max_examples=25, deadline=None)

_DOMAIN = Domain("prop", values=range(4))
_SCHEMA2 = Schema.of(("x", _DOMAIN), ("y", _DOMAIN))

#: Tuples over a tiny universe so collisions (matches, duplicates) are common.
tuples2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
relations = st.lists(tuples2, min_size=0, max_size=6).map(
    lambda rows: Relation(_SCHEMA2, rows)
)
nonempty_relations = st.lists(tuples2, min_size=1, max_size=6).map(
    lambda rows: Relation(_SCHEMA2, rows)
)
multis = st.lists(tuples2, min_size=0, max_size=7).map(
    lambda rows: MultiRelation(_SCHEMA2, rows)
)


class TestArrayVsOracle:
    @SMALL
    @given(a=relations, b=relations, variant=st.sampled_from(["counter", "fixed"]))
    def test_intersection(self, a, b, variant):
        result = systolic_intersection(a, b, variant=variant, tagged=True)
        assert result.relation == algebra.intersection(a, b)

    @SMALL
    @given(a=relations, b=relations, variant=st.sampled_from(["counter", "fixed"]))
    def test_difference(self, a, b, variant):
        result = systolic_difference(a, b, variant=variant, tagged=True)
        assert result.relation == algebra.difference(a, b)

    @SMALL
    @given(a=multis)
    def test_remove_duplicates(self, a):
        result = systolic_remove_duplicates(a, tagged=True)
        assert result.relation == algebra.remove_duplicates(a)

    @SMALL
    @given(a=relations, b=relations)
    def test_union(self, a, b):
        assert systolic_union(a, b, tagged=True).relation == algebra.union(a, b)

    @SMALL
    @given(a=relations, b=relations)
    def test_join(self, a, b):
        on = [("x", "x")]
        result = systolic_join(a, b, on, tagged=True)
        assert result.relation == algebra.join(a, b, on)

    @SMALL
    @given(a=relations, b=relations,
           op=st.sampled_from(["<", "<=", ">", ">=", "!=", "=="]))
    def test_theta_join(self, a, b, op):
        on = [("y", "y")]
        result = systolic_theta_join(a, b, on, [op], tagged=True)
        assert result.relation == algebra.theta_join(a, b, on, [op])

    @SMALL
    @given(a=relations, b=st.lists(st.integers(0, 3), min_size=0, max_size=4))
    def test_divide(self, a, b):
        divisor = Relation(Schema.of(("v", _DOMAIN)), [(v,) for v in b])
        result = systolic_divide(a, divisor, tagged=True)
        assert result.relation == algebra.divide(a, divisor)


class TestAlgebraicLaws:
    @SMALL
    @given(a=relations, b=relations)
    def test_intersection_commutes(self, a, b):
        ab = systolic_intersection(a, b).relation
        ba = systolic_intersection(b, a).relation
        assert set(ab.tuples) == set(ba.tuples)

    @SMALL
    @given(a=relations, b=relations)
    def test_difference_partition(self, a, b):
        inter = systolic_intersection(a, b).relation
        diff = systolic_difference(a, b).relation
        assert set(inter.tuples) | set(diff.tuples) == set(a.tuples)
        assert not set(inter.tuples) & set(diff.tuples)

    @SMALL
    @given(a=multis)
    def test_dedup_idempotent(self, a):
        once = systolic_remove_duplicates(a).relation
        twice = systolic_remove_duplicates(once.to_multi()).relation
        assert once == twice

    @SMALL
    @given(a=relations, b=relations)
    def test_union_contains_operands(self, a, b):
        union = systolic_union(a, b).relation
        assert set(a.tuples) <= set(union.tuples)
        assert set(b.tuples) <= set(union.tuples)

    @SMALL
    @given(a=relations)
    def test_self_intersection_is_identity(self, a):
        assert systolic_intersection(a, a).relation == a


class TestBlockedEqualsUnblocked:
    @SMALL
    @given(a=relations, b=relations,
           rows=st.integers(1, 7), cols=st.integers(1, 3))
    def test_intersection(self, a, b, rows, cols):
        capacity = ArrayCapacity(max_rows=rows, max_cols=cols)
        result, _ = blocked_intersection(a, b, capacity)
        assert result == algebra.intersection(a, b)

    @SMALL
    @given(a=multis, rows=st.integers(1, 7))
    def test_dedup(self, a, rows):
        capacity = ArrayCapacity(max_rows=rows, max_cols=2)
        result, _ = blocked_remove_duplicates(a, capacity)
        assert result == algebra.remove_duplicates(a)

    @SMALL
    @given(a=relations, b=relations, rows=st.integers(1, 5))
    def test_join(self, a, b, rows):
        capacity = ArrayCapacity(max_rows=rows, max_cols=1)
        result, _ = blocked_join(a, b, [("x", "x")], capacity)
        assert result == algebra.join(a, b, [("x", "x")])


class TestBitLevelEquivalence:
    @SMALL
    @given(a=nonempty_relations, b=nonempty_relations)
    def test_matrix_identical(self, a, b):
        word = compare_all_pairs(a.tuples, b.tuples)
        bit = bit_level_compare_all_pairs(a.tuples, b.tuples, width=3)
        assert bit.t_matrix == word.t_matrix

    @SMALL
    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    def test_three_way_compare(self, x, y):
        assert bit_level_three_way_compare(x, y, width=8) == (x > y) - (x < y)

    @SMALL
    @given(a=tuples2, b=tuples2)
    def test_expansion_preserves_equality(self, a, b):
        assert (a == b) == (expand_tuple(a, 4) == expand_tuple(b, 4))


class TestScheduleInverses:
    @SMALL
    @given(n_a=st.integers(1, 9), n_b=st.integers(1, 9),
           arity=st.integers(1, 5), data=st.data())
    def test_exit_roundtrip(self, n_a, n_b, arity, data):
        schedule = CounterStreamSchedule(n_a, n_b, arity)
        i = data.draw(st.integers(0, n_a - 1))
        j = data.draw(st.integers(0, n_b - 1))
        row = schedule.meeting_row(i, j)
        pulse = schedule.t_exit_pulse(i, j)
        assert schedule.pair_from_exit(row, pulse) == (i, j)
        assert schedule.tuple_from_accumulator_exit(
            schedule.accumulator_exit_pulse(i)
        ) == i


class TestNewArraysVsOracles:
    @SMALL
    @given(a=relations, b=relations,
           op=st.sampled_from(["<", "<=", ">", ">=", "!=", "=="]))
    def test_dynamic_join_equals_preloaded(self, a, b, op):
        from repro.arrays import systolic_dynamic_theta_join, systolic_theta_join

        on = [("x", "x")]
        dynamic = systolic_dynamic_theta_join(a, b, on, [op], tagged=True)
        preloaded = systolic_theta_join(a, b, on, [op])
        assert dynamic.relation == preloaded.relation

    @SMALL
    @given(a=nonempty_relations, b=nonempty_relations)
    def test_hexagonal_equals_orthogonal(self, a, b):
        from repro.arrays.hexagonal import hex_compare_all_pairs

        ortho = compare_all_pairs(a.tuples, b.tuples)
        hexagonal = hex_compare_all_pairs(a.tuples, b.tuples)
        assert hexagonal.t_matrix == ortho.t_matrix

    @SMALL
    @given(
        text=st.text(alphabet="abc", min_size=1, max_size=12),
        pattern=st.text(alphabet="ab?", min_size=1, max_size=4),
    )
    def test_pattern_chip_equals_reference(self, text, pattern):
        from hypothesis import assume

        from repro.patterns import match_pattern

        assume(len(pattern) <= len(text))
        result = match_pattern(text, pattern)
        reference = [
            i for i in range(len(text) - len(pattern) + 1)
            if all(p == "?" or text[i + k] == p
                   for k, p in enumerate(pattern))
        ]
        assert result.matches == reference

    @SMALL
    @given(stages=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 200)),
        min_size=1, max_size=6,
    ))
    def test_pipeline_law_bounds(self, stages):
        from repro.machine.pipelining import StageCost, analyze_chain

        chain = analyze_chain([
            StageCost(f"s{n}", fill=f, stream=s)
            for n, (f, s) in enumerate(stages)
        ])
        # Pipelined is never slower, and never faster than the slowest
        # stage alone.
        assert chain.pipelined <= chain.store_and_forward
        assert chain.pipelined >= max(f + s for f, s in stages)


class TestMoreOracleProperties:
    @SMALL
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3)),
            min_size=1, max_size=10,
        ),
        divisor=st.lists(st.integers(0, 3), min_size=1, max_size=4,
                         unique=True),
    )
    def test_division_from_raw_pairs(self, pairs, divisor):
        from repro.arrays import systolic_divide

        dividend = Relation(_SCHEMA2, pairs)
        divisor_rel = Relation(Schema.of(("v", _DOMAIN)),
                               [(v,) for v in divisor])
        result = systolic_divide(dividend, divisor_rel, tagged=True)
        assert result.relation == algebra.divide(dividend, divisor_rel)
        # The quotient is exactly the groups covering the divisor.
        required = set(divisor)
        images = {}
        for x, y in dividend.tuples:
            images.setdefault(x, set()).add(y)
        expected = {x for x, ys in images.items() if required <= ys}
        assert {row[0] for row in result.relation.tuples} == expected

    @SMALL
    @given(a=relations, b=relations)
    def test_semijoin_laws(self, a, b):
        from repro.arrays.intersection import systolic_antijoin, systolic_semijoin

        on = [("x", "x")]
        semi = systolic_semijoin(a, b, on, tagged=True).relation
        anti = systolic_antijoin(a, b, on, tagged=True).relation
        # Semi ∪ anti partitions A.
        assert set(semi.tuples) | set(anti.tuples) == set(a.tuples)
        assert not set(semi.tuples) & set(anti.tuples)
        # Semi-join = projection of the join onto A's columns.
        joined = algebra.join(a, b, on)
        joined_keys = {row[0] for row in joined.tuples}
        assert {row[0] for row in semi.tuples} == joined_keys

    @SMALL
    @given(a=relations, b=relations,
           ops=st.tuples(st.sampled_from(["==", "<", ">="]),
                         st.sampled_from(["!=", "<=", ">"])))
    def test_two_column_dynamic_join(self, a, b, ops):
        from repro.arrays import systolic_dynamic_theta_join

        on = [("x", "x"), ("y", "y")]
        result = systolic_dynamic_theta_join(a, b, on, list(ops), tagged=True)
        assert result.relation == algebra.theta_join(a, b, on, list(ops))
