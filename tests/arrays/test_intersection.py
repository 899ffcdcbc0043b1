"""The intersection array of Fig 4-1 and its difference mode (E3, E4)."""

import pytest

from repro.arrays import (
    systolic_difference,
    systolic_intersection,
    systolic_membership_vector,
)
from repro.errors import SimulationError, UnionCompatibilityError
from repro.relational import Relation, algebra
from repro.workloads import overlapping_pair, three_by_three_pair


class TestIntersectionSemantics:
    def test_paper_running_example(self):
        a, b = three_by_three_pair()
        result = systolic_intersection(a, b, tagged=True)
        assert result.relation == algebra.intersection(a, b)
        assert result.t_vector == [False, True, False]

    @pytest.mark.parametrize("variant", ["counter", "fixed"])
    @pytest.mark.parametrize("n_a,n_b,overlap", [
        (1, 1, 0), (1, 1, 1), (5, 3, 2), (3, 5, 3), (8, 8, 0), (6, 6, 6),
    ])
    def test_randomized_against_oracle(self, variant, n_a, n_b, overlap):
        a, b = overlapping_pair(n_a, n_b, overlap, arity=2,
                                seed=n_a * 100 + n_b * 10 + overlap)
        result = systolic_intersection(a, b, variant=variant, tagged=True)
        assert result.relation == algebra.intersection(a, b)
        assert sum(result.t_vector) == overlap

    def test_duplicate_b_tuples_do_not_double_count(self, pair_schema):
        a = Relation(pair_schema, [(1, 1)])
        b = Relation(pair_schema, [(1, 1), (2, 2)])
        result = systolic_intersection(a, b)
        assert result.t_vector == [True]

    def test_empty_operands_short_circuit(self, pair_schema):
        empty = Relation(pair_schema)
        full = Relation(pair_schema, [(1, 2)])
        assert len(systolic_intersection(empty, full).relation) == 0
        assert len(systolic_intersection(full, empty).relation) == 0
        assert systolic_intersection(empty, full).run.pulses == 0

    def test_union_compatibility_enforced(self, pair_schema, triple_schema):
        a = Relation(pair_schema, [(1, 2)])
        b = Relation(triple_schema, [(1, 2, 3)])
        with pytest.raises(UnionCompatibilityError):
            systolic_intersection(a, b)


class TestDifferenceSemantics:
    def test_paper_remark(self):
        # §4.3: difference keeps exactly the FALSE-t_i tuples.
        a, b = three_by_three_pair()
        inter = systolic_intersection(a, b)
        diff = systolic_difference(a, b)
        assert diff.t_vector == inter.t_vector  # same hardware output
        assert len(diff.relation) + len(inter.relation) == len(a)

    @pytest.mark.parametrize("variant", ["counter", "fixed"])
    def test_randomized_against_oracle(self, variant):
        a, b = overlapping_pair(7, 5, 3, arity=3, seed=42)
        result = systolic_difference(a, b, variant=variant, tagged=True)
        assert result.relation == algebra.difference(a, b)

    def test_difference_with_empty_subtrahend(self, pair_schema):
        a = Relation(pair_schema, [(1, 2), (3, 4)])
        result = systolic_difference(a, Relation(pair_schema))
        assert result.relation == a

    def test_empty_minuend(self, pair_schema):
        result = systolic_difference(Relation(pair_schema),
                                     Relation(pair_schema, [(1, 2)]))
        assert len(result.relation) == 0


class TestOperationalDetail:
    def test_completion_time_matches_schedule(self):
        a, b = overlapping_pair(5, 5, 2, arity=2, seed=9)
        result = systolic_intersection(a, b)
        from repro.systolic.engine.schedule import CounterStreamSchedule

        schedule = CounterStreamSchedule(len(a), len(b), a.arity)
        assert result.run.pulses == schedule.total_pulses

    def test_fixed_variant_finishes_sooner(self):
        a, b = overlapping_pair(8, 8, 4, arity=2, seed=10)
        counter = systolic_intersection(a, b, variant="counter")
        fixed = systolic_intersection(a, b, variant="fixed")
        assert fixed.relation == counter.relation
        assert fixed.run.pulses < counter.run.pulses
        assert fixed.run.rows < counter.run.rows

    def test_unknown_variant_rejected(self):
        a, b = overlapping_pair(2, 2, 1, arity=1, seed=1)
        with pytest.raises(SimulationError, match="unknown variant"):
            systolic_intersection(a, b, variant="sideways")
        # ... also when an empty operand means no array would run.
        empty = Relation(a.schema)
        for run, operands in [
            (systolic_intersection, (a, empty)),
            (systolic_intersection, (empty, b)),
            (systolic_difference, (a, empty)),
            (systolic_difference, (empty, b)),
        ]:
            with pytest.raises(SimulationError, match="unknown variant"):
                run(*operands, variant="sideways")

    def test_membership_vector_alone(self):
        a, b = overlapping_pair(4, 4, 2, arity=2, seed=3)
        vector, run = systolic_membership_vector(a, b, tagged=True)
        expected = [tuple(t) in set(b.tuples) for t in a.tuples]
        assert vector == expected
        assert run.cells == run.rows * run.cols
