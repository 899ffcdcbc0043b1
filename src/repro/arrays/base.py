"""Shared execution kit for the operator arrays.

The operator modules in this package describe each §3–§7 array as an
:class:`~repro.systolic.engine.plan.ExecutionPlan` and hand it to
:func:`execute`, which dispatches to a pluggable backend — the
pulse-level reference simulator or the vectorized lattice engine (see
:mod:`repro.systolic.engine`).  To watch a run, build the plan's cell
network with :func:`repro.systolic.engine.materialize.materialize` and
step it with a :class:`~repro.systolic.simulator.SystolicSimulator`;
nothing here imports the cell kit.

§4.3 calls the comparison array "the main hardware": every operator is
the same grid, varying only the operands, the initial ``t`` and what
happens to the output.  The steps they share are written once here —
:func:`grid_schedule` (variant → schedule), :func:`run_plan` (execute
and record) and the result assembly :func:`rows_where` /
:func:`joined_rows` — and the operator modules state only what differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.relational.relation import DistinctRows, MultiRelation, Relation
from repro.systolic.engine import resolve_backend
from repro.systolic.engine.plan import (
    DivisionPlan,
    EngineRun,
    ExecutionPlan,
    GridPlan,
)
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    FixedRelationSchedule,
)

__all__ = [
    "ArrayRun",
    "execute",
    "grid_schedule",
    "run_plan",
    "empty_run",
    "rows_where",
    "joined_rows",
]


@dataclass
class ArrayRun:
    """Operational record of one array execution."""

    pulses: int
    rows: int
    cols: int
    cells: int
    #: which engine produced this run ("pulse", "lattice", ...)
    backend: str = "pulse"


def execute(plan: ExecutionPlan, backend=None) -> EngineRun:
    """Run a plan on the chosen backend (default: the pulse simulator).

    ``backend`` is an engine name (``"pulse"``, ``"lattice"``), an
    :class:`~repro.systolic.engine.plan.Engine` instance, or ``None``
    for the default.
    """
    return resolve_backend(backend).run(plan)


def grid_schedule(
    n_a: int, n_b: int, arity: int, variant: str
) -> Optional[CounterStreamSchedule | FixedRelationSchedule]:
    """The feeding schedule of an ``n_a × n_b`` grid over ``arity`` columns.

    ``variant`` is ``"counter"`` (both relations moving, the figures'
    design) or ``"fixed"`` (B preloaded, §8); anything else is refused —
    also for an empty operand, where no array runs and the schedule is
    ``None``.
    """
    if variant not in ("counter", "fixed"):
        raise SimulationError(
            f"unknown variant {variant!r}; use 'counter' or 'fixed'"
        )
    if not n_a or not n_b:
        return None
    if variant == "counter":
        return CounterStreamSchedule(n_a=n_a, n_b=n_b, arity=arity)
    return FixedRelationSchedule(n_a=n_a, n_b=n_b, arity=arity)


def empty_run() -> ArrayRun:
    """The record of an operator that short-circuited: no array ran."""
    return ArrayRun(pulses=0, rows=0, cols=0, cells=0)


def run_plan(
    plan: GridPlan | DivisionPlan, backend=None
) -> tuple[EngineRun, ArrayRun]:
    """Execute a grid or division plan and record the run's geometry
    (the accumulation column, when attached, counts as a column)."""
    result = execute(plan, backend=backend)
    if isinstance(plan, DivisionPlan):
        rows, cols = len(plan.distinct_x), 2 + len(plan.divisor)
    else:
        rows, cols = plan.rows, plan.cols + (1 if plan.accumulate else 0)
    return result, ArrayRun(
        pulses=result.pulses, rows=rows, cols=cols, cells=result.cells,
        backend=result.engine,
    )


def rows_where(
    relation: Relation | MultiRelation, mask: Sequence[bool], keep: bool = True
) -> np.ndarray | DistinctRows:
    """The rows of ``relation`` whose ``mask`` bit equals ``keep``
    (§4.3's inverter is ``keep=False``), as a slice of its matrix.

    Rows picked out of a relation are distinct because it is a set, and
    say so; rows picked out of a multi-relation (remove-duplicates,
    union, projection) are distinct only if the array answered right,
    so they stay a bare matrix and the constructor checks the answer.
    """
    mask = np.asarray(mask, dtype=bool)
    if not keep:
        mask = ~mask
    if isinstance(relation, Relation):
        return DistinctRows.where(relation, mask)
    return relation.array[mask]


def joined_rows(
    a: Relation,
    b: Relation,
    match_i: np.ndarray,
    match_j: np.ndarray,
    b_keep: list[int],
) -> np.ndarray:
    """§6.2's retrieval: ``a_i`` concatenated with the ``b_keep`` columns
    of ``b_j``, one row per match, in the order the matches are given."""
    return np.concatenate(
        [a.array[match_i], b.array[match_j][:, b_keep]], axis=1
    )
