"""Remove-duplicates, union, and projection on the §5 array (E5)."""

import pytest

from repro.arrays import (
    systolic_projection,
    systolic_remove_duplicates,
    systolic_union,
)
from repro.errors import SimulationError, UnionCompatibilityError
from repro.relational import Domain, MultiRelation, Relation, Schema, algebra
from repro.workloads import relation_with_duplicates


class TestRemoveDuplicates:
    def test_keeps_first_of_each_group(self, dup_multi):
        result = systolic_remove_duplicates(dup_multi, tagged=True)
        assert result.relation.tuples == ((1, 1), (2, 2), (3, 3))
        # drop vector marks exactly the later duplicates
        assert result.drop_vector == [False, False, True, False, True, True]

    def test_no_duplicates_is_identity(self, pair_schema):
        multi = MultiRelation(pair_schema, [(1, 2), (3, 4)])
        result = systolic_remove_duplicates(multi)
        assert result.relation.tuples == ((1, 2), (3, 4))
        assert result.drop_vector == [False, False]

    def test_all_identical(self, pair_schema):
        multi = MultiRelation(pair_schema, [(5, 5)] * 4)
        result = systolic_remove_duplicates(multi, tagged=True)
        assert len(result.relation) == 1
        assert result.drop_vector == [False, True, True, True]

    def test_single_tuple(self, pair_schema):
        multi = MultiRelation(pair_schema, [(1, 2)])
        assert len(systolic_remove_duplicates(multi).relation) == 1

    def test_empty_multi_relation(self, pair_schema):
        result = systolic_remove_duplicates(MultiRelation(pair_schema))
        assert len(result.relation) == 0
        assert result.run.pulses == 0
        # No array runs, but a variant that does not exist is still refused.
        with pytest.raises(SimulationError, match="unknown variant"):
            systolic_remove_duplicates(
                MultiRelation(pair_schema), variant="sideways"
            )
        with pytest.raises(SimulationError, match="unknown variant"):
            systolic_union(
                Relation(pair_schema), Relation(pair_schema),
                variant="sideways",
            )

    @pytest.mark.parametrize("variant", ["counter", "fixed"])
    @pytest.mark.parametrize("n,dup", [(4, 1.0), (5, 2.0), (3, 3.0)])
    def test_randomized_against_oracle(self, variant, n, dup):
        multi = relation_with_duplicates(n, dup, arity=2,
                                         seed=int(n * 10 + dup))
        result = systolic_remove_duplicates(multi, variant=variant, tagged=True)
        assert result.relation == algebra.remove_duplicates(multi)

    def test_idempotent(self, dup_multi):
        once = systolic_remove_duplicates(dup_multi).relation
        twice = systolic_remove_duplicates(once.to_multi()).relation
        assert once == twice


class TestUnion:
    def test_union_via_concatenation(self, small_pair):
        a, b = small_pair
        result = systolic_union(a, b, tagged=True)
        assert result.relation == algebra.union(a, b)

    def test_union_of_identical_relations(self, pair_schema):
        a = Relation(pair_schema, [(1, 2), (3, 4)])
        assert systolic_union(a, a).relation == a

    def test_union_with_empty(self, pair_schema):
        a = Relation(pair_schema, [(1, 2)])
        assert systolic_union(a, Relation(pair_schema)).relation == a
        assert systolic_union(Relation(pair_schema), a).relation == a

    def test_union_requires_compatibility(self, pair_schema):
        other = Schema.of(("x", Domain("zzz")), ("y", Domain("zzz")))
        with pytest.raises(UnionCompatibilityError):
            systolic_union(
                Relation(pair_schema, [(1, 2)]), Relation(other, [(1, 2)])
            )

    def test_union_commutes_as_sets(self, small_pair):
        a, b = small_pair
        assert systolic_union(a, b).relation == systolic_union(b, a).relation


class TestProjection:
    def test_projection_drops_columns_and_dedups(self, pair_schema):
        r = Relation(pair_schema, [(1, 10), (1, 20), (2, 30)])
        result = systolic_projection(r, ["x"], tagged=True)
        assert result.relation.tuples == ((1,), (2,))
        assert result.relation.schema.names == ("x",)

    def test_projection_no_duplicates_created(self, pair_schema):
        r = Relation(pair_schema, [(1, 10), (2, 20)])
        assert len(systolic_projection(r, ["y"]).relation) == 2

    def test_projection_reorders(self, pair_schema):
        r = Relation(pair_schema, [(1, 10)])
        assert systolic_projection(r, ["y", "x"]).relation.tuples == ((10, 1),)

    def test_projection_matches_oracle(self, triple_schema):
        r = Relation(
            triple_schema,
            [(1, 2, 3), (1, 2, 4), (1, 5, 3), (2, 2, 3)],
        )
        for columns in (["x"], ["x", "y"], ["z", "x"], [0, 1, 2]):
            assert systolic_projection(r, columns).relation == (
                algebra.project(r, columns)
            )

    def test_projection_of_multirelation(self, dup_multi):
        result = systolic_projection(dup_multi, ["x"])
        assert result.relation.tuples == ((1,), (2,), (3,))
