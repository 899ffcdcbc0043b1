"""§6.3.2's op-codes-with-the-data join variant."""

import pytest

from repro.arrays.join import systolic_dynamic_theta_join, systolic_theta_join
from repro.errors import SimulationError
from repro.relational import Relation, algebra
from repro.systolic.cells import DynamicThetaCell
from repro.systolic.values import Token
from repro.workloads import integer_schema, join_pair


class TestDynamicThetaCell:
    def _step(self, cell, **inputs):
        full = {port: inputs.get(port) for port in cell.IN_PORTS}
        return cell.step(full)

    @pytest.mark.parametrize("op,a,b,expected", [
        ("==", 3, 3, True), ("<", 1, 2, True), (">", 1, 2, False),
        ("!=", 4, 4, False), (">=", 5, 5, True),
    ])
    def test_op_arrives_with_data(self, op, a, b, expected):
        cell = DynamicThetaCell("d")
        out = self._step(cell, a_in=Token(a), b_in=Token(b), op_in=Token(op))
        assert out["t_out"].value is expected

    def test_op_forwarded_downward(self):
        cell = DynamicThetaCell("d")
        out = self._step(cell, a_in=Token(1), op_in=Token("<"))
        assert out["op_out"].value == "<"
        assert out["a_out"].value == 1
        assert "t_out" not in out  # no b: no comparison

    def test_a_without_op_is_violation(self):
        cell = DynamicThetaCell("d")
        with pytest.raises(SimulationError, match="travel with"):
            self._step(cell, a_in=Token(1), b_in=Token(2))

    def test_op_without_a_is_violation(self):
        cell = DynamicThetaCell("d")
        with pytest.raises(SimulationError, match="travel with"):
            self._step(cell, op_in=Token("<"))

    def test_unknown_op_code_detected_in_flight(self):
        cell = DynamicThetaCell("d")
        with pytest.raises(SimulationError, match="unknown op code"):
            self._step(cell, a_in=Token(1), b_in=Token(2), op_in=Token("~~"))

    def test_t_chains(self):
        cell = DynamicThetaCell("d")
        out = self._step(
            cell, a_in=Token(1), b_in=Token(1), op_in=Token("=="), t_in=Token(False)
        )
        assert out["t_out"].value is False


class TestDynamicJoin:
    def test_agrees_with_preloaded_variant(self):
        a, b = join_pair(8, 6, 3, seed=91)
        on = [("key", "key"), (1, 1)]
        ops = ["==", "<"]
        dynamic = systolic_dynamic_theta_join(a, b, on, ops, tagged=True)
        preloaded = systolic_theta_join(a, b, on, ops)
        assert dynamic.relation == preloaded.relation
        assert dynamic.matches == preloaded.matches
        assert dynamic.run.pulses == preloaded.run.pulses  # same schedule

    @pytest.mark.parametrize("op", ["==", "<", "<=", ">", ">=", "!="])
    def test_every_operator_against_oracle(self, op):
        schema = integer_schema(2)
        a = Relation(schema, [(i, 0) for i in range(5)])
        b = Relation(schema, [(j, 1) for j in range(2, 6)])
        result = systolic_dynamic_theta_join(a, b, [(0, 0)], [op], tagged=True)
        assert result.relation == algebra.theta_join(a, b, [(0, 0)], [op])

    def test_empty_operands(self):
        schema = integer_schema(2)
        empty = Relation(schema)
        full = Relation(schema, [(1, 2)])
        result = systolic_dynamic_theta_join(empty, full, [(0, 0)], ["=="])
        assert len(result.relation) == 0
        assert result.run.pulses == 0

    def test_ops_arity_checked(self):
        schema = integer_schema(2)
        a = Relation(schema, [(1, 2)])
        with pytest.raises(Exception, match="one op|one operator"):
            systolic_dynamic_theta_join(a, a, [(0, 0)], ["==", "<"])
