"""The join array of Fig 6-1, multi-column and θ variants (E6)."""

import pytest

from repro.arrays import systolic_join, systolic_theta_join
from repro.errors import SchemaError, SimulationError
from repro.relational import Domain, Relation, Schema, algebra
from repro.workloads import join_pair


@pytest.fixture
def emp_dept():
    depts = Domain("dept6")
    misc = Domain("misc6")
    emp = Relation.from_values(
        Schema.of(("name", misc), ("dept", depts)),
        [("ann", "sales"), ("bob", "eng"), ("cy", "sales"), ("dee", "hr")],
    )
    dept = Relation.from_values(
        Schema.of(("dept", depts), ("budget", misc)),
        [("sales", 100), ("eng", 200), ("ops", 70)],
    )
    return emp, dept


class TestEquiJoin:
    def test_single_column(self, emp_dept):
        emp, dept = emp_dept
        result = systolic_join(emp, dept, [("dept", "dept")], tagged=True)
        assert result.relation == algebra.join(emp, dept, [("dept", "dept")])
        assert len(result.matches) == 3

    @pytest.mark.parametrize("variant", ["counter", "fixed"])
    @pytest.mark.parametrize("n_a,n_b,matches", [
        (1, 1, 0), (1, 1, 1), (6, 4, 3), (4, 6, 0), (5, 5, 5),
    ])
    def test_randomized_against_oracle(self, variant, n_a, n_b, matches):
        a, b = join_pair(n_a, n_b, matches,
                         seed=n_a * 100 + n_b * 10 + matches)
        result = systolic_join(a, b, [("key", "key")],
                               variant=variant, tagged=True)
        assert result.relation == algebra.join(a, b, [("key", "key")])
        assert len(result.matches) == matches

    def test_degenerate_full_cross(self, pair_schema):
        # §6.2: |C| can reach |A|·|B| when every pair matches.
        a = Relation(pair_schema, [(1, 10), (1, 20)])
        b = Relation(pair_schema, [(1, 30), (1, 40), (1, 50)])
        result = systolic_join(a, b, [("x", "x")])
        assert len(result.matches) == 6
        assert result.relation == algebra.join(a, b, [("x", "x")])

    def test_multi_column_join(self, triple_schema):
        # §6.3.1: one processor column per joined column pair.
        a = Relation(triple_schema, [(1, 2, 9), (1, 3, 8), (2, 2, 7)])
        b = Relation(triple_schema, [(1, 2, 100), (2, 2, 200), (1, 9, 300)])
        on = [("x", "x"), ("y", "y")]
        result = systolic_join(a, b, on, tagged=True)
        assert result.relation == algebra.join(a, b, on)
        assert sorted(result.matches) == [(0, 0), (2, 1)]

    def test_output_schema_drops_redundant_column(self, emp_dept):
        emp, dept = emp_dept
        result = systolic_join(emp, dept, [("dept", "dept")])
        assert result.relation.schema.names == ("name", "dept", "budget")

    def test_empty_side_short_circuits(self, emp_dept):
        emp, dept = emp_dept
        empty = Relation(dept.schema)
        result = systolic_join(emp, empty, [("dept", "dept")])
        assert len(result.relation) == 0
        assert result.run.pulses == 0
        # No array runs, but a variant that does not exist is still refused.
        for a, b in [(emp, empty), (Relation(emp.schema), dept), (emp, dept)]:
            with pytest.raises(SimulationError, match="unknown variant"):
                systolic_join(a, b, [("dept", "dept")], variant="sideways")
            with pytest.raises(SimulationError, match="unknown variant"):
                systolic_theta_join(
                    a, b, [("dept", "dept")], ["=="], variant="sideways"
                )

    def test_domain_mismatch_rejected(self, emp_dept):
        emp, dept = emp_dept
        with pytest.raises(SchemaError):
            systolic_join(emp, dept, [("name", "dept")])


class TestThetaJoin:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "!="])
    def test_each_operator_matches_oracle(self, op, pair_schema):
        a = Relation(pair_schema, [(1, 0), (3, 0), (5, 0)])
        b = Relation(pair_schema, [(2, 0), (4, 0)])
        result = systolic_theta_join(a, b, [("x", "x")], [op], tagged=True)
        assert result.relation == algebra.theta_join(a, b, [("x", "x")], [op])

    def test_band_join_two_conditions(self, pair_schema):
        # a.x <= b.x AND a.y >= b.y — two programmed processor columns.
        a = Relation(pair_schema, [(1, 9), (5, 2), (3, 5)])
        b = Relation(pair_schema, [(4, 4), (2, 8)])
        on = [("x", "x"), ("y", "y")]
        ops = ["<=", ">="]
        result = systolic_theta_join(a, b, on, ops, tagged=True)
        assert result.relation == algebra.theta_join(a, b, on, ops)

    def test_mixed_eq_and_inequality(self, triple_schema):
        a = Relation(triple_schema, [(1, 5, 0), (1, 2, 0), (2, 5, 0)])
        b = Relation(triple_schema, [(1, 3, 0), (2, 9, 0)])
        on = [("x", "x"), ("y", "y")]
        ops = ["==", ">"]
        result = systolic_theta_join(a, b, on, ops)
        assert result.relation == algebra.theta_join(a, b, on, ops)

    def test_fixed_variant(self, pair_schema):
        a = Relation(pair_schema, [(1, 0), (7, 0)])
        b = Relation(pair_schema, [(3, 0), (5, 0)])
        counter = systolic_theta_join(a, b, [("x", "x")], ["<"], variant="counter")
        fixed = systolic_theta_join(a, b, [("x", "x")], ["<"], variant="fixed")
        assert counter.relation == fixed.relation

    def test_ops_arity_checked(self, pair_schema):
        a = Relation(pair_schema, [(1, 0)])
        with pytest.raises(SchemaError):
            systolic_theta_join(a, a, [("x", "x")], ["<", ">"])


class TestMatchOrdering:
    def test_matches_in_exit_order(self, pair_schema):
        # Exit pulse M+i+j+c−1 orders matches by i+j then row — verify
        # the collector reports them in arrival order.
        a = Relation(pair_schema, [(1, 0), (1, 1), (1, 2)])
        b = Relation(pair_schema, [(1, 5), (1, 6)])
        result = systolic_join(a, b, [("x", "x")])
        sums = [i + j for i, j in result.matches]
        assert sums == sorted(sums)
