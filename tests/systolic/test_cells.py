"""Unit tests for every processor type — the Fig 2-2 prototypes."""

import pytest

from repro.errors import SimulationError
from repro.systolic.cells import (
    AccumulationCell,
    ComparisonCell,
    DividendGateCell,
    DividendMatchCell,
    DivisorCell,
    ThetaCell,
)
from repro.systolic.values import NULL_VALUE, Token


def step(cell, **inputs):
    """Run one pulse with named inputs, absent ports filled with None."""
    full = {port: inputs.get(port) for port in cell.IN_PORTS}
    return cell.step(full)


class TestComparisonCell:
    def test_equal_elements_keep_true(self):
        out = step(ComparisonCell("c"), a_in=Token(5), b_in=Token(5), t_in=Token(True))
        assert out["t_out"].value is True

    def test_unequal_elements_force_false(self):
        out = step(ComparisonCell("c"), a_in=Token(5), b_in=Token(6), t_in=Token(True))
        assert out["t_out"].value is False

    def test_false_in_false_out_even_on_match(self):
        # §3.1: "if the initial input is FALSE, the output ... is
        # guaranteed to be false" — the hook §5's masking relies on.
        out = step(ComparisonCell("c"), a_in=Token(5), b_in=Token(5), t_in=Token(False))
        assert out["t_out"].value is False

    def test_elements_pass_through_unchanged(self):
        a, b = Token(1, "ta"), Token(2, "tb")
        out = step(ComparisonCell("c", require_t=False), a_in=a, b_in=b)
        assert out["a_out"] is a
        assert out["b_out"] is b

    def test_lone_element_passes_without_comparison(self):
        out = step(ComparisonCell("c"), a_in=Token(1))
        assert out["a_out"].value == 1
        assert "t_out" not in out

    def test_idle_pulse_emits_nothing(self):
        assert step(ComparisonCell("c")) == {}

    def test_t_without_elements_is_schedule_violation(self):
        with pytest.raises(SimulationError, match="mis-staggered"):
            step(ComparisonCell("c"), t_in=Token(True))

    def test_meeting_without_t_is_violation_when_required(self):
        with pytest.raises(SimulationError, match="injection schedule"):
            step(ComparisonCell("c"), a_in=Token(1), b_in=Token(1))

    def test_tag_propagates_from_t(self):
        out = step(
            ComparisonCell("c"),
            a_in=Token(5, ("a", 2, 0)), b_in=Token(5, ("b", 3, 0)),
            t_in=Token(True, ("t", 2, 3)),
        )
        assert out["t_out"].tag == ("t", 2, 3)

    def test_tag_mismatch_detected(self):
        with pytest.raises(SimulationError, match="claims tuple"):
            step(
                ComparisonCell("c"),
                a_in=Token(5, ("a", 9, 0)), b_in=Token(5, ("b", 3, 0)),
                t_in=Token(True, ("t", 2, 3)),
            )

    def test_element_position_mismatch_detected(self):
        with pytest.raises(SimulationError, match="positions disagree"):
            step(
                ComparisonCell("c"),
                a_in=Token(5, ("a", 2, 0)), b_in=Token(5, ("b", 3, 1)),
                t_in=Token(True, ("t", 2, 3)),
            )


class TestAccumulationCell:
    def test_or_accumulates(self):
        out = step(AccumulationCell("a"), t_left=Token(True), t_top=Token(False))
        assert out["t_bottom"].value is True

    def test_false_or_false(self):
        out = step(AccumulationCell("a"), t_left=Token(False), t_top=Token(False))
        assert out["t_bottom"].value is False

    def test_idle_passes_descending_value(self):
        # §4.2: processors that aren't busy "simply pass on the t_i".
        descending = Token(True, ("acc", 1))
        out = step(AccumulationCell("a"), t_top=descending)
        assert out["t_bottom"] is descending

    def test_idle_pulse(self):
        assert step(AccumulationCell("a")) == {}

    def test_left_without_slot_is_violation(self):
        with pytest.raises(SimulationError, match="misaligned"):
            step(AccumulationCell("a"), t_left=Token(True))

    def test_tag_cross_check(self):
        with pytest.raises(SimulationError, match="merged into"):
            step(
                AccumulationCell("a"),
                t_left=Token(True, ("t", 5, 0)), t_top=Token(False, ("acc", 4)),
            )

    def test_result_keeps_accumulator_tag(self):
        out = step(
            AccumulationCell("a"),
            t_left=Token(True, ("t", 4, 0)), t_top=Token(False, ("acc", 4)),
        )
        assert out["t_bottom"].tag == ("acc", 4)


class TestThetaCell:
    def test_equality_default(self):
        out = step(ThetaCell("j"), a_in=Token(5), b_in=Token(5))
        assert out["t_out"].value is True

    @pytest.mark.parametrize("op,a,b,expected", [
        ("<", 1, 2, True), ("<", 2, 1, False),
        (">", 2, 1, True), (">=", 2, 2, True),
        ("<=", 3, 2, False), ("!=", 1, 2, True), ("==", 1, 2, False),
    ])
    def test_programmable_operator(self, op, a, b, expected):
        out = step(ThetaCell("j", op=op), a_in=Token(a), b_in=Token(b))
        assert out["t_out"].value is expected

    def test_unknown_operator_rejected_at_preload(self):
        with pytest.raises(SimulationError, match="unknown comparison"):
            ThetaCell("j", op="~=")

    def test_chains_with_incoming_t(self):
        out = step(ThetaCell("j"), a_in=Token(5), b_in=Token(5), t_in=Token(False))
        assert out["t_out"].value is False

    def test_derives_pair_tag_from_elements(self):
        out = step(
            ThetaCell("j"), a_in=Token(5, ("a", 1, 0)), b_in=Token(5, ("b", 2, 0))
        )
        assert out["t_out"].tag == ("t", 1, 2)

    def test_t_without_elements_is_violation(self):
        with pytest.raises(SimulationError):
            step(ThetaCell("j"), t_in=Token(True))

    def test_passthrough_without_meeting(self):
        out = step(ThetaCell("j"), b_in=Token(7))
        assert out["b_out"].value == 7
        assert "t_out" not in out


class TestDivisionCells:
    def test_match_cell_true_on_stored_element(self):
        out = step(DividendMatchCell("m", stored=3), x_in=Token(3, ("pair", 0)))
        assert out["t_out"].value is True
        assert out["t_out"].tag == ("pair", 0)
        assert out["x_out"].value == 3

    def test_match_cell_false_otherwise(self):
        out = step(DividendMatchCell("m", stored=3), x_in=Token(4))
        assert out["t_out"].value is False

    def test_match_cell_idle(self):
        assert step(DividendMatchCell("m", stored=3)) == {}

    def test_gate_passes_y_on_true(self):
        out = step(DividendGateCell("g"), y_in=Token(7), t_in=Token(True))
        assert out["y_pass"].value == 7
        assert out["y_out"].value == 7

    def test_gate_emits_explicit_null_on_false(self):
        # §7: "Otherwise, some null value is output."
        out = step(DividendGateCell("g"), y_in=Token(7), t_in=Token(False))
        assert out["y_pass"].value is NULL_VALUE
        assert out["y_out"].value == 7  # the y keeps travelling upward

    def test_gate_requires_both(self):
        with pytest.raises(SimulationError, match="together"):
            step(DividendGateCell("g"), y_in=Token(7))
        with pytest.raises(SimulationError, match="together"):
            step(DividendGateCell("g"), t_in=Token(True))

    def test_gate_pair_tag_mismatch(self):
        with pytest.raises(SimulationError, match="pair"):
            step(
                DividendGateCell("g"),
                y_in=Token(7, ("pair", 1)), t_in=Token(True, ("pair", 2)),
            )

    def test_divisor_cell_latches_sighting(self):
        cell = DivisorCell("d", stored=9)
        step(cell, y_in=Token(9))
        assert cell.seen
        out = step(cell, and_in=Token(True))
        assert out["and_out"].value is True

    def test_divisor_cell_ignores_nulls(self):
        cell = DivisorCell("d", stored=9)
        step(cell, y_in=Token(NULL_VALUE))
        assert not cell.seen

    def test_divisor_and_false_without_sighting(self):
        cell = DivisorCell("d", stored=9)
        step(cell, y_in=Token(8))
        out = step(cell, and_in=Token(True))
        assert out["and_out"].value is False

    def test_divisor_and_propagates_false(self):
        cell = DivisorCell("d", stored=9)
        step(cell, y_in=Token(9))
        out = step(cell, and_in=Token(False))
        assert out["and_out"].value is False

    def test_divisor_reset_clears_flag(self):
        cell = DivisorCell("d", stored=9)
        step(cell, y_in=Token(9))
        cell.reset()
        assert not cell.seen

    def test_divisor_handles_y_and_sweep_same_pulse(self):
        cell = DivisorCell("d", stored=9)
        out = step(cell, y_in=Token(9), and_in=Token(True))
        assert out["y_out"].value == 9
        assert out["and_out"].value is True  # sighting latches before the AND


class TestUtilityCells:
    def test_cell_requires_name(self):
        with pytest.raises(SimulationError):
            ComparisonCell("")
