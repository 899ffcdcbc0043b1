"""The join array of §6 (Fig 6-1).

The join columns of A stream down, the join columns of B stream up, and
each processor emits the individual ``t_ij`` off the right edge — here
there is no accumulation: "we are interested in the t_ij individually"
(§6.2).  The matrix ``T`` marks exactly the matching pairs; generating
the join relation C from T is then the straightforward retrieval §6.2
describes: for each TRUE ``t_ij``, concatenate ``a_i`` and ``b_j``,
dropping the redundant matched column(s).

Three generalizations, all from §6.3:

* **more than one column** — one processor column per joined column
  pair, partial results chained left-to-right (the array has ``c``
  columns instead of 1);
* **θ-join** — each processor column is preloaded with a comparison
  operator (<, >, ≤, ≥, ≠, =);
* **fixed-relation variant** (§8) — B's join columns preloaded, only A
  streaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.arrays.base import (
    ArrayRun,
    build_grid_array,
    empty_run,
    grid_schedule,
    joined_rows,
    run_plan,
)
from repro.arrays.decode import matches_in_exit_order, pair_verdicts
from repro.errors import SimulationError
from repro.relational.algebra import equi_join_layout, theta_join_layout
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef, Schema
from repro.systolic.engine import GridPlan
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    FixedRelationSchedule,
)
from repro.systolic.wiring import Network

__all__ = [
    "JoinResult",
    "build_join_array",
    "build_dynamic_join_array",
    "systolic_join",
    "systolic_theta_join",
    "systolic_dynamic_theta_join",
]


@dataclass
class JoinResult:
    """Outcome of a join-array run."""

    relation: Relation
    #: the TRUE entries of T as (i, j) pairs, in exit order
    matches: list[tuple[int, int]]
    run: ArrayRun


def join_plan(
    a_columns: Sequence[Sequence[int]],
    b_columns: Sequence[Sequence[int]],
    ops: Sequence[str],
    variant: str,
    tagged: bool,
    dynamic_ops: bool = False,
) -> Optional[GridPlan]:
    """Fig 6-1 as a plan: one θ-cell column per joined column pair, every
    ``t_ij`` tapped off the right edge.  ``None`` when an operand is
    empty (``variant`` is checked either way)."""
    schedule = grid_schedule(len(a_columns), len(b_columns), len(ops), variant)
    if schedule is None:
        return None
    return GridPlan(
        a_columns, b_columns, schedule,
        ops=tuple(ops), dynamic_ops=dynamic_ops, row_taps=True, tagged=tagged,
        name="dynamic-join-array" if dynamic_ops
        else ("join-array" if variant == "counter" else "join-array-fixed"),
    )


def _build_join_array(a_columns, b_columns, ops, variant, tagged, dynamic_ops):
    if not a_columns or not b_columns:
        raise SimulationError("the join array needs non-empty relations")
    if len(ops) != len(a_columns[0]):
        raise SimulationError(
            f"need one {'op code' if dynamic_ops else 'operator'} per join "
            f"column: {len(ops)} ops for arity {len(a_columns[0])}"
        )
    return build_grid_array(
        join_plan(a_columns, b_columns, ops, variant, tagged, dynamic_ops)
    )


def build_join_array(
    a_columns: Sequence[Sequence[int]],
    b_columns: Sequence[Sequence[int]],
    ops: Sequence[str],
    variant: str = "counter",
    tagged: bool = False,
) -> tuple[Network, CounterStreamSchedule | FixedRelationSchedule, dict[str, tuple[int, int]]]:
    """Assemble the Fig 6-1 array over projected join-column tuples.

    ``a_columns[i]`` / ``b_columns[j]`` hold only the joined columns of
    each tuple (the full tuples never enter the array — §6.2 streams
    "the column C_A of relation A" through the processors).  ``ops``
    preloads one comparison operator per processor column.
    """
    return _build_join_array(a_columns, b_columns, ops, variant, tagged, False)


def build_dynamic_join_array(
    a_columns: Sequence[Sequence[int]],
    b_columns: Sequence[Sequence[int]],
    ops: Sequence[str],
    tagged: bool = False,
) -> tuple[Network, CounterStreamSchedule, dict[str, tuple[int, int]]]:
    """§6.3.2's other programmability option: op codes travel with the data.

    Same geometry as :func:`build_join_array`, but the processors are
    :class:`~repro.systolic.cells.DynamicThetaCell`\\ s and the comparison
    op codes stream down each column alongside relation A's elements
    (same staggering, same two-pulse tuple spacing).
    """
    return _build_join_array(
        a_columns, b_columns, ops, "counter", tagged, True
    )


def _run_join(
    a: Relation,
    b: Relation,
    layout: tuple[list[int], list[int], Schema, list[int]],
    ops: Sequence[str],
    variant: str,
    tagged: bool,
    backend,
    dynamic_ops: bool = False,
) -> JoinResult:
    """Run the join array over the ``*_join_layout`` of (a, b) and
    retrieve the joined rows (§6.2)."""
    a_positions, b_positions, schema, b_keep = layout
    plan = join_plan(
        a.array[:, a_positions], b.array[:, b_positions], ops, variant,
        tagged, dynamic_ops,
    )
    if plan is None:
        return JoinResult(Relation(schema), [], empty_run())
    result, run = run_plan(plan, backend)
    # The TRUE (i, j) pairs of T, in the order they exit the array.
    matches = matches_in_exit_order(
        pair_verdicts(result, plan.schedule, tagged)
    )
    match_i, match_j = np.asarray(matches, dtype=np.intp).reshape(-1, 2).T
    rows = joined_rows(a, b, match_i, match_j, b_keep)
    return JoinResult(Relation(schema, rows), matches, run)


def systolic_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> JoinResult:
    """Equi-join on the Fig 6-1 array (single or multiple columns)."""
    return _run_join(
        a, b, equi_join_layout(a, b, on), ["=="] * len(on),
        variant, tagged, backend,
    )


def systolic_theta_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    ops: Sequence[str],
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> JoinResult:
    """θ-join on the array, processors preloaded with ``ops`` (§6.3.2)."""
    return _run_join(
        a, b, theta_join_layout(a, b, on, ops), ops,
        variant, tagged, backend,
    )


def systolic_dynamic_theta_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    ops: Sequence[str],
    tagged: bool = False,
    backend=None,
) -> JoinResult:
    """θ-join with the ops streamed alongside the data (§6.3.2).

    Produces exactly what :func:`systolic_theta_join` produces with the
    same arguments — the two are the paper's two programmability
    options for one piece of hardware.
    """
    return _run_join(
        a, b, theta_join_layout(a, b, on, ops), ops,
        "counter", tagged, backend, dynamic_ops=True,
    )
