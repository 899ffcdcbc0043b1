"""Semi-join and anti-join on the §4 membership hardware."""

import pytest

from repro.arrays.intersection import systolic_antijoin, systolic_semijoin
from repro.errors import SchemaError, SimulationError
from repro.relational import Relation, algebra
from repro.relational.algebra import antijoin, semijoin
from repro.workloads import join_pair, suppliers_parts_database


class TestOracles:
    def test_semijoin_keeps_matching_tuples(self):
        a, b = join_pair(8, 6, 3, seed=510)
        result = semijoin(a, b, [("key", "key")])
        joined_keys = {row[0] for row in algebra.join(a, b, [("key", "key")])}
        assert {row[0] for row in result.tuples} == joined_keys
        assert result.schema == a.schema  # A's columns only

    def test_anti_partitions_a(self):
        a, b = join_pair(9, 5, 4, seed=511)
        on = [("key", "key")]
        semi = semijoin(a, b, on)
        anti = antijoin(a, b, on)
        assert set(semi.tuples) | set(anti.tuples) == set(a.tuples)
        assert not set(semi.tuples) & set(anti.tuples)

    def test_domain_checked(self):
        a, b = join_pair(3, 3, 1, seed=512)
        with pytest.raises(SchemaError):
            semijoin(a, b, [("a0", "key")])


class TestArrays:
    @pytest.mark.parametrize("variant", ["counter", "fixed"])
    @pytest.mark.parametrize("n_a,n_b,matches", [
        (1, 1, 0), (1, 1, 1), (7, 5, 3), (5, 7, 0), (6, 6, 6),
    ])
    def test_semijoin_vs_oracle(self, variant, n_a, n_b, matches):
        a, b = join_pair(n_a, n_b, matches,
                         seed=513 + n_a * 10 + n_b + matches)
        on = [("key", "key")]
        result = systolic_semijoin(a, b, on, variant=variant, tagged=True)
        assert result.relation == semijoin(a, b, on)
        assert sum(result.t_vector) == len(result.relation)

    @pytest.mark.parametrize("variant", ["counter", "fixed"])
    def test_antijoin_vs_oracle(self, variant):
        a, b = join_pair(8, 6, 3, seed=514)
        on = [("key", "key")]
        result = systolic_antijoin(a, b, on, variant=variant, tagged=True)
        assert result.relation == antijoin(a, b, on)

    def test_empty_cases(self):
        a, b = join_pair(4, 4, 2, seed=515)
        empty_a = Relation(a.schema)
        empty_b = Relation(b.schema)
        on = [("key", "key")]
        assert len(systolic_semijoin(empty_a, b, on).relation) == 0
        assert len(systolic_semijoin(a, empty_b, on).relation) == 0
        assert systolic_antijoin(a, empty_b, on).relation == a
        # No array runs, but a variant that does not exist is still refused.
        for run in (systolic_semijoin, systolic_antijoin):
            for operands in [(a, empty_b), (empty_a, b), (a, b)]:
                with pytest.raises(SimulationError, match="unknown variant"):
                    run(*operands, on, variant="sideways")

    def test_array_is_narrower_than_full_intersection(self):
        # Only the join columns stream through: 1 comparison column
        # (plus the accumulator), not the full tuple arity.
        a, b = join_pair(6, 6, 2, payload_arity=4, seed=516)
        result = systolic_semijoin(a, b, [("key", "key")], tagged=True)
        assert result.run.cols == 2  # key column + accumulation column


class TestDatabaseQuery:
    def test_suppliers_with_shipments(self):
        db = suppliers_parts_database()
        shipped = systolic_semijoin(
            db["S"], db["SP"], [("sno", "sno")], tagged=True
        )
        names = {row[1] for row in shipped.relation.decoded()}
        assert names == {"Smith", "Jones", "Blake", "Clark"}
        idle = systolic_antijoin(db["S"], db["SP"], [("sno", "sno")])
        assert {row[1] for row in idle.relation.decoded()} == {"Adams"}
