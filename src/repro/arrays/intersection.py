"""The intersection array of §4 (Fig 4-1) — and, inverted, difference.

Comparison array on the left, accumulation array on the right.  The
accumulators fold each row of ``T`` into ``t_i = OR_j t_ij`` (equation
4.1); a tuple ``a_i`` belongs to ``A ∩ B`` iff ``t_i`` is TRUE and to
``A − B`` iff ``t_i`` is FALSE (§4.3 — "alternatively, we could just
put an inverter on the output line of the accumulation array").

Both the counter-streaming design of the figures and the §8
fixed-relation variant are provided; they produce identical answers and
differ only in geometry, pulse counts, and utilization (experiment
E11).  ``backend=`` selects the execution engine — ``"pulse"`` for the
cycle-accurate simulator, ``"lattice"`` for the vectorized wavefront
engine (bit-identical results; see :mod:`repro.systolic.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.arrays.base import (
    ArrayRun,
    empty_run,
    grid_schedule,
    rows_where,
    run_plan,
)
from repro.arrays.decode import accumulator_bits
from repro.errors import SimulationError
from repro.relational.algebra import equi_join_layout
from repro.relational.relation import Relation
from repro.systolic.engine import GridPlan, TInit, t_init_true

__all__ = [
    "MembershipResult",
    "membership_plan",
    "systolic_membership_vector",
    "systolic_intersection",
    "systolic_difference",
    "systolic_semijoin",
    "systolic_antijoin",
]


@dataclass
class MembershipResult:
    """The accumulated vector ``t`` and the relation it selects."""

    relation: Relation
    t_vector: list[bool]
    run: ArrayRun


def membership_plan(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    variant: str,
    tagged: bool,
    name: str,
    t_init: TInit = t_init_true,
) -> Optional[GridPlan]:
    """Fig 4-1 as a plan: the comparison grid over two row matrices,
    seeded by ``t_init``, plus the accumulation column.  ``None`` when
    an operand is empty (``variant`` is checked either way); ``name`` is
    the counter-streaming array's, the §8 variant appends ``-fixed``.
    """
    schedule = grid_schedule(
        len(a_rows), len(b_rows), a_rows.shape[1], variant
    )
    if schedule is None:
        return None
    return GridPlan(
        a_rows, b_rows, schedule, t_init=t_init, accumulate=True,
        tagged=tagged, name=name if variant == "counter" else f"{name}-fixed",
    )


def run_membership(
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    variant: str,
    tagged: bool,
    backend,
    name: str,
    t_init: TInit = t_init_true,
) -> tuple[list[bool], ArrayRun]:
    """Plan, execute, and decode one Fig 4-1 membership run: ``t_i`` for
    every row of A.  An empty operand runs no array; every bit is FALSE."""
    plan = membership_plan(a_rows, b_rows, variant, tagged, name, t_init)
    if plan is None:
        return [False] * len(a_rows), empty_run()
    result, run = run_plan(plan, backend)
    return accumulator_bits(result, plan.schedule, tagged), run


def _require_operands(a: Relation, b: Relation) -> None:
    if not a or not b:
        raise SimulationError(
            "the intersection array needs non-empty operands; empty cases "
            "short-circuit in systolic_intersection"
        )


def systolic_membership_vector(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> tuple[list[bool], ArrayRun]:
    """Run the array and read off ``t_i = OR_j (a_i == b_j)`` for all i.

    The vector is decoded from bottom-of-column arrival pulses alone,
    exactly as hardware would.
    """
    a.schema.require_union_compatible(b.schema)
    _require_operands(a, b)
    return run_membership(
        a.array, b.array, variant, tagged, backend,
        "intersection-array",
    )


def _select(
    a: Relation,
    b: Relation,
    columns: Optional[tuple[Sequence[int], Sequence[int]]],
    keep: bool,
    name: str,
    variant: str,
    tagged: bool,
    backend,
) -> MembershipResult:
    """The §4 operator: the tuples of A whose ``t_i`` equals ``keep``.

    ``columns`` names the compared (A, B) column positions — ``None``
    for whole tuples — so the four operators below differ only in
    (compared columns, keep sense, array name).
    """
    a_rows, b_rows = a.array, b.array
    if columns is not None:
        a_rows, b_rows = a_rows[:, columns[0]], b_rows[:, columns[1]]
    bits, run = run_membership(
        a_rows, b_rows, variant, tagged, backend, name
    )
    return MembershipResult(
        Relation(a.schema, rows_where(a, bits, keep)), bits, run
    )


def systolic_intersection(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> MembershipResult:
    """``A ∩ B`` on the intersection array (keep tuples with TRUE t_i)."""
    a.schema.require_union_compatible(b.schema)
    return _select(
        a, b, None, True, "intersection-array",
        variant, tagged, backend,
    )


def systolic_difference(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> MembershipResult:
    """``A − B``: same array, keep tuples with FALSE t_i (§4.3)."""
    a.schema.require_union_compatible(b.schema)
    return _select(
        a, b, None, False, "intersection-array",
        variant, tagged, backend,
    )


def systolic_semijoin(
    a: Relation,
    b: Relation,
    on,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> MembershipResult:
    """``A ⋉ B``: the §4 membership hardware fed with join columns only.

    Keeps the A tuples whose join-column combination matches some B
    tuple — the intersection array where "tuple" means "key".
    """
    a_positions, b_positions, _, _ = equi_join_layout(a, b, on)
    return _select(
        a, b, (a_positions, b_positions), True, "semijoin-array",
        variant, tagged, backend,
    )


def systolic_antijoin(
    a: Relation,
    b: Relation,
    on,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> MembershipResult:
    """``A ▷ B``: the same bits, kept where FALSE (§4.3's inverter)."""
    a_positions, b_positions, _, _ = equi_join_layout(a, b, on)
    return _select(
        a, b, (a_positions, b_positions), False, "semijoin-array",
        variant, tagged, backend,
    )
