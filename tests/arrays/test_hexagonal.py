"""The hexagonally connected alternative of §2.1 (ref [5])."""

import operator
from dataclasses import replace

import numpy as np
import pytest

from repro.arrays import compare_all_pairs
from repro.arrays.hexagonal import (
    BOOLEAN_SEMIRING,
    COMPARISON_SEMIRING,
    HexCell,
    U_A,
    U_B,
    U_C,
    _a_start,
    _b_start,
    _c_start,
    _meeting_cell,
    hex_compare_all_pairs,
    hex_matrix_product,
)
from repro.errors import SimulationError
from repro.systolic.engine import (
    BitplaneEngine,
    EngineRun,
    LatticeEngine,
    PulseEngine,
    Semiring,
)
from repro.systolic.engine.hexmesh import hex_tap_name
from repro.systolic.values import tok
from repro.workloads import overlapping_pair, three_by_three_pair


class TestScheduleGeometry:
    def test_directions_sum_to_zero(self):
        # The defining property of the hexagonal axes.
        total = tuple(a + b + c for a, b, c in zip(U_A, U_B, U_C))
        assert total == (0, 0)

    def test_triples_meet(self):
        # a[i][k], b[k][j], c[i][j] coincide at pulse i + j + k.
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    t = i + j + k
                    pa = tuple(s + t * d for s, d in zip(_a_start(i, k), U_A))
                    pb = tuple(s + t * d for s, d in zip(_b_start(k, j), U_B))
                    pc = tuple(s + t * d for s, d in zip(_c_start(i, j), U_C))
                    assert pa == pb == pc == _meeting_cell(i, j, k)

    def test_start_positions_injective_per_stream(self):
        # No two same-stream tokens are ever co-resident: same velocity
        # plus distinct starts.
        a_starts = {_a_start(i, k) for i in range(5) for k in range(5)}
        b_starts = {_b_start(k, j) for k in range(5) for j in range(5)}
        c_starts = {_c_start(i, j) for i in range(5) for j in range(5)}
        assert len(a_starts) == len(b_starts) == len(c_starts) == 25

    def test_only_scheduled_triples_coincide(self):
        # Exhaustively: whenever an a, b, and c token share a cell at a
        # pulse, their indices form a scheduled (i, j, k) triple.
        n = 3
        horizon = 3 * (n - 1)
        occupancy = {}
        for i in range(n):
            for k in range(n):
                for t in range(horizon + 1):
                    pos = tuple(s + t * d for s, d in zip(_a_start(i, k), U_A))
                    occupancy.setdefault((pos, t), {})["a"] = (i, k)
        for k in range(n):
            for j in range(n):
                for t in range(horizon + 1):
                    pos = tuple(s + t * d for s, d in zip(_b_start(k, j), U_B))
                    occupancy.setdefault((pos, t), {})["b"] = (k, j)
        for i in range(n):
            for j in range(n):
                for t in range(i + j + n):
                    pos = tuple(s + t * d for s, d in zip(_c_start(i, j), U_C))
                    occupancy.setdefault((pos, t), {})["c"] = (i, j)
        for (pos, t), streams in occupancy.items():
            if len(streams) == 3:
                (i, k) = streams["a"]
                (k2, j) = streams["b"]
                (i2, j2) = streams["c"]
                assert (i, j, k) == (i2, j2, k2)
                assert t == i + j + k


class TestHexCell:
    def test_semiring_step(self):
        cell = HexCell("h", COMPARISON_SEMIRING)
        out = cell.step({"a_in": tok(5), "b_in": tok(5), "c_in": tok(True)})
        assert out["c_out"].value is True
        out = cell.step({"a_in": tok(5), "b_in": tok(6), "c_in": tok(True)})
        assert out["c_out"].value is False

    def test_pass_through_without_meeting(self):
        cell = HexCell("h", COMPARISON_SEMIRING)
        out = cell.step({"a_in": tok(5), "b_in": None, "c_in": tok(True)})
        assert out["c_out"].value is True  # c unchanged
        assert out["a_out"].value == 5

    def test_unscheduled_triple_detected_by_tags(self):
        cell = HexCell("h", COMPARISON_SEMIRING)
        with pytest.raises(SimulationError, match="unscheduled triple"):
            cell.step({
                "a_in": tok(5, ("a", 0, 0)),
                "b_in": tok(5, ("b", 1, 0)),  # wrong k
                "c_in": tok(True, ("c", 0, 0)),
            })


class TestHexComparison:
    def test_paper_example(self):
        a, b = three_by_three_pair()
        result = hex_compare_all_pairs(a.tuples, b.tuples)
        orthogonal = compare_all_pairs(a.tuples, b.tuples)
        assert result.t_matrix == orthogonal.t_matrix

    @pytest.mark.parametrize("n_a,n_b,arity", [(1, 1, 1), (2, 4, 2), (4, 2, 3)])
    def test_shapes(self, n_a, n_b, arity):
        a, b = overlapping_pair(n_a, n_b, min(n_a, n_b) // 2, arity=arity,
                                seed=n_a * 10 + n_b)
        hex_result = hex_compare_all_pairs(a.tuples, b.tuples)
        ortho = compare_all_pairs(a.tuples, b.tuples)
        assert hex_result.t_matrix == ortho.t_matrix

    def test_finishes_in_linear_pulses(self):
        a, b = overlapping_pair(5, 5, 2, arity=3, seed=9)
        result = hex_compare_all_pairs(a.tuples, b.tuples)
        assert result.run.pulses == (5 - 1) + (5 - 1) + (3 - 1) + 1

    def test_peak_firing_at_most_a_third(self):
        # Kung–Leiserson: the hex design keeps ≤ 1/3 of cells active.
        a, b = overlapping_pair(4, 4, 2, arity=3, seed=10)
        result = hex_compare_all_pairs(a.tuples, b.tuples)
        assert result.peak_firing <= result.run.cells / 3

    def test_empty_rejected(self):
        with pytest.raises(SimulationError, match="non-empty"):
            hex_compare_all_pairs([], [(1,)])


class TestOtherSemirings:
    def test_boolean_matrix_product(self):
        A = [[1, 0, 1], [0, 0, 1], [1, 1, 0]]
        B = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        b_cols = [[B[k][j] for k in range(3)] for j in range(3)]
        result = hex_matrix_product(A, b_cols, BOOLEAN_SEMIRING)
        expected = [
            [bool(sum(A[i][k] * B[k][j] for k in range(3))) for j in range(3)]
            for i in range(3)
        ]
        assert [[bool(v) for v in row] for row in result.t_matrix] == expected

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="inner dimension"):
            hex_matrix_product([[1, 2]], [[1]], BOOLEAN_SEMIRING)

    @pytest.mark.parametrize(
        "engine", [PulseEngine, LatticeEngine, BitplaneEngine],
        ids=lambda engine: engine.name,
    )
    def test_a_non_boolean_semiring_is_refused_before_any_engine_runs(
        self, engine
    ):
        # A run's tap tables hold bools, so a plus-times product has no
        # way out of the mesh: the plan refuses it, naming the semirings
        # that have one.
        def never(self, plan):
            raise AssertionError("an engine ran")

        plus_times = Semiring("plus-times", operator.add, operator.mul, 0)
        with pytest.raises(SimulationError) as refused:
            hex_matrix_product(
                [[1, 2]], [[3, 4]], plus_times,
                backend=type("Never", (engine,), {"run": never})(),
            )
        assert str(refused.value) == (
            "semiring 'plus-times' has identity 0, not a bool: a run's tap "
            "tables hold bools, so the hex array computes over a boolean "
            "semiring such as COMPARISON_SEMIRING or BOOLEAN_SEMIRING"
        )


class Tampered(LatticeEngine):
    """The lattice engine with one final-meeting tap table edited, as a
    faulty array would hand it back."""

    def __init__(self, edit):
        super().__init__()
        self.edit = edit

    def run(self, plan):
        run = super().run(plan)
        tables = dict(run.columnar)
        self.edit(plan, tables)
        return EngineRun(
            engine=self.name, pulses=run.pulses, cells=run.cells,
            tap_view=lambda: tables, peak_firing=run.peak_firing,
        )


class TestHexProducts:
    """``decode.hex_products`` reads each pair off its final-meeting cell,
    on its pulse, and checks the tag it carries."""

    A, B = [[1, 2], [2, 2]], [[1, 2]]
    #: pair (1, 0): inner dimension 2, so it exits on pulse 1 + 0 + 1.
    PULSE = 2

    def edited(self, **changes):
        def edit(plan, tables):
            name = hex_tap_name(_meeting_cell(1, 0, plan.inner - 1))
            table = tables[name]
            keep = table.pulses != self.PULSE
            if "drop" in changes:
                tables[name] = replace(
                    table, pulses=table.pulses[keep],
                    values=table.values[keep],
                    tag_indices=tuple(c[keep] for c in table.tag_indices),
                )
            else:
                tables[name] = replace(table, tag_indices=tuple(
                    np.where(keep, column, 0)
                    for column in table.tag_indices
                ))
        return Tampered(edit)

    def test_the_clean_tables_decode(self):
        result = hex_compare_all_pairs(self.A, self.B, backend=Tampered(
            lambda plan, tables: None
        ))
        assert result.t_matrix == [[True], [False]]

    def test_a_pair_missing_from_its_final_meeting_cell(self):
        with pytest.raises(SimulationError) as refused:
            hex_compare_all_pairs(self.A, self.B, backend=self.edited(drop=1))
        assert str(refused.value) == (
            "c[1][0] did not exit its final meeting cell on pulse 2"
        )

    def test_an_arrival_tagged_for_another_pair(self):
        with pytest.raises(SimulationError) as refused:
            hex_compare_all_pairs(self.A, self.B, backend=self.edited())
        assert str(refused.value) == (
            "final-cell arrival for (1, 0) carries tag ('c', 0, 0)"
        )
