"""The hexagonally connected alternative (§2.1, ref [5]).

"We use predominantly orthogonally and linearly connected arrays ...
although hexagonally connected arrays as in [5] would work as well in
many instances."  [5] is Kung & Leiserson's systolic matrix-product
array: three data streams flowing through a hexagonal mesh along
directions summing to zero, every cell computing
``c ← c ⊕ (a ⊗ b)`` when a triple coincides.

The comparison matrix of §3.3 *is* a matrix product over the
``(AND, =)`` semiring: ``t_ij = AND_k (a_ik = b_jk)``.  This module
states the problem as a :class:`~repro.systolic.engine.plan.HexPlan`
and reads the product off the final-meeting cells
(:func:`repro.arrays.decode.hex_products`); the mesh geometry,
:class:`Semiring` algebra, and :class:`HexCell` processor live in
:mod:`repro.systolic.engine.hexmesh`, shared by both engines.

As Kung–Leiserson note for the hex design, at most one third of the
cells fire on any pulse — measured against the orthogonal array in
``benchmarks/bench_hexagonal.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.arrays.base import ArrayRun, execute
from repro.arrays.decode import hex_products
from repro.systolic.engine import HexPlan
from repro.systolic.engine.hexmesh import (
    BOOLEAN_SEMIRING,
    COMPARISON_SEMIRING,
    U_A,
    U_B,
    U_C,
    HexCell,
    Semiring,
)
from repro.systolic.engine.hexmesh import a_start as _a_start
from repro.systolic.engine.hexmesh import b_start as _b_start
from repro.systolic.engine.hexmesh import c_start as _c_start
from repro.systolic.engine.hexmesh import meeting_cell as _meeting_cell

__all__ = [
    "Semiring",
    "COMPARISON_SEMIRING",
    "BOOLEAN_SEMIRING",
    "HexCell",
    "HexComparisonResult",
    "hex_matrix_product",
    "hex_compare_all_pairs",
]


@dataclass
class HexComparisonResult:
    """T matrix from the hexagonal array, plus operational detail."""

    t_matrix: list[list[bool]]
    run: ArrayRun
    #: peak number of cells firing on one pulse (≤ cells/3, per [5])
    peak_firing: int


def hex_matrix_product(
    a_rows: Sequence[Sequence[Any]],
    b_cols: Sequence[Sequence[Any]],
    semiring: Semiring,
    tagged: bool = True,
    backend=None,
) -> HexComparisonResult:
    """Compute ``C[i][j] = ⊕_k (A[i][k] ⊗ B[k][j])`` on the hex array.

    ``a_rows[i][k]`` and ``b_cols[j][k]`` index the operands (note B is
    given column-wise, matching tuple comparison where both operands
    are tuples).  Results are read off the cells of each ``c`` stream's
    final meeting; with the default pulse backend every cell, wire, and
    pulse is simulated.
    """
    plan = HexPlan(a_rows, b_cols, semiring, tagged=tagged)
    result = execute(plan, backend=backend)
    return HexComparisonResult(
        t_matrix=hex_products(result, plan),
        run=ArrayRun(
            pulses=result.pulses, rows=0, cols=0, cells=result.cells,
            backend=result.engine,
        ),
        peak_firing=result.peak_firing or 0,
    )


def hex_compare_all_pairs(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    tagged: bool = True,
    backend=None,
) -> HexComparisonResult:
    """The §3.3 comparison matrix on the hexagonal array (§2.1, [5])."""
    return hex_matrix_product(
        a_tuples, b_tuples, COMPARISON_SEMIRING, tagged=tagged,
        backend=backend,
    )
