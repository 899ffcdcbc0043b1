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

from repro.arrays.base import (
    ArrayRun,
    attach_op_stream,
    build_counter_stream_grid,
    build_fixed_relation_grid,
    cmp_name,
    execute,
)
from repro.arrays.decode import matches_in_exit_order, pair_verdicts
from repro.arrays.schedule import CounterStreamSchedule, FixedRelationSchedule
from repro.errors import SimulationError
from repro.relational.algebra import equi_join_layout, theta_join_layout
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef, Schema
from repro.systolic.cell import Cell
from repro.systolic.cells import ThetaCell
from repro.systolic.engine import GridPlan
from repro.systolic.metrics import ActivityMeter
from repro.systolic.trace import TraceRecorder
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


def _join_schedule(
    n_a: int, n_b: int, arity: int, variant: str
) -> CounterStreamSchedule | FixedRelationSchedule:
    if variant == "counter":
        return CounterStreamSchedule(n_a=n_a, n_b=n_b, arity=arity)
    if variant == "fixed":
        return FixedRelationSchedule(n_a=n_a, n_b=n_b, arity=arity)
    raise SimulationError(f"unknown variant {variant!r}; use 'counter' or 'fixed'")


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
    if not a_columns or not b_columns:
        raise SimulationError("the join array needs non-empty relations")
    if len(ops) != len(a_columns[0]):
        raise SimulationError(
            f"need one operator per join column: {len(ops)} ops for "
            f"arity {len(a_columns[0])}"
        )

    def theta_factory(name: str, row: int, col: int) -> Cell:
        return ThetaCell(name, op=ops[col])

    schedule = _join_schedule(len(a_columns), len(b_columns), len(ops), variant)
    if variant == "counter":
        network, layout = build_counter_stream_grid(
            a_columns, b_columns, schedule,
            t_init=None, cell_factory=theta_factory, tagged=tagged,
            name="join-array",
        )
    else:
        network, layout = build_fixed_relation_grid(
            a_columns, b_columns, schedule,
            t_init=None, cell_factory=theta_factory, tagged=tagged,
            name="join-array-fixed",
        )
    for row in range(schedule.rows):
        network.tap(f"t_row[{row}]", cmp_name(row, schedule.arity - 1), "t_out")
    return network, schedule, layout


def _collect_matches(
    result, schedule, tagged: bool
) -> list[tuple[int, int]]:
    """The TRUE (i, j) pairs of ``T``, in the order they exit the array."""
    return matches_in_exit_order(pair_verdicts(result, schedule, tagged))


def _run_join(
    a: Relation,
    b: Relation,
    a_positions: list[int],
    b_positions: list[int],
    schema: Schema,
    b_keep: list[int],
    ops: Sequence[str],
    variant: str,
    tagged: bool,
    meter: Optional[ActivityMeter],
    trace: Optional[TraceRecorder],
    backend=None,
    dynamic_ops: bool = False,
) -> JoinResult:
    if not a or not b:
        return JoinResult(
            Relation(schema), [], ArrayRun(pulses=0, rows=0, cols=0, cells=0)
        )
    a_rows, b_rows = a.tuples, b.tuples
    a_columns = [tuple(row[p] for p in a_positions) for row in a_rows]
    b_columns = [tuple(row[p] for p in b_positions) for row in b_rows]
    schedule = _join_schedule(len(a_columns), len(b_columns), len(ops), variant)
    plan = GridPlan(
        a_columns, b_columns, schedule,
        ops=tuple(ops), dynamic_ops=dynamic_ops, row_taps=True, tagged=tagged,
        name="dynamic-join-array" if dynamic_ops
        else ("join-array" if variant == "counter" else "join-array-fixed"),
    )
    result = execute(plan, backend=backend, meter=meter, trace=trace)
    matches = _collect_matches(result, schedule, tagged)
    rows = []
    for i, j in matches:
        row_b = b_rows[j]
        rows.append(a_rows[i] + tuple(row_b[p] for p in b_keep))
    run = ArrayRun(
        pulses=result.pulses, rows=schedule.rows, cols=schedule.arity,
        cells=result.cells, meter=meter, trace=trace, backend=result.engine,
    )
    return JoinResult(Relation(schema, rows), matches, run)


def systolic_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> JoinResult:
    """Equi-join on the Fig 6-1 array (single or multiple columns)."""
    a_positions, b_positions, schema, b_keep = equi_join_layout(a, b, on)
    ops = ["=="] * len(on)
    return _run_join(
        a, b, a_positions, b_positions, schema, b_keep, ops,
        variant=variant, tagged=tagged, meter=meter, trace=trace,
        backend=backend,
    )


def systolic_theta_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    ops: Sequence[str],
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> JoinResult:
    """θ-join on the array, processors preloaded with ``ops`` (§6.3.2)."""
    a_positions, b_positions, schema, b_keep = theta_join_layout(a, b, on, ops)
    return _run_join(
        a, b, a_positions, b_positions, schema, b_keep, ops,
        variant=variant, tagged=tagged, meter=meter, trace=trace,
        backend=backend,
    )


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
    from repro.systolic.cells import DynamicThetaCell

    if not a_columns or not b_columns:
        raise SimulationError("the join array needs non-empty relations")
    if len(ops) != len(a_columns[0]):
        raise SimulationError(
            f"need one op code per join column: {len(ops)} ops for "
            f"arity {len(a_columns[0])}"
        )

    def dynamic_factory(name: str, row: int, col: int) -> Cell:
        return DynamicThetaCell(name)

    schedule = CounterStreamSchedule(
        n_a=len(a_columns), n_b=len(b_columns), arity=len(ops)
    )
    network, layout = build_counter_stream_grid(
        a_columns, b_columns, schedule,
        t_init=None, cell_factory=dynamic_factory, tagged=tagged,
        name="dynamic-join-array",
    )
    attach_op_stream(network, schedule, ops)
    for row in range(schedule.rows):
        network.tap(f"t_row[{row}]", cmp_name(row, schedule.arity - 1), "t_out")
    return network, schedule, layout


def systolic_dynamic_theta_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    ops: Sequence[str],
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> JoinResult:
    """θ-join with the ops streamed alongside the data (§6.3.2).

    Produces exactly what :func:`systolic_theta_join` produces with the
    same arguments — the two are the paper's two programmability
    options for one piece of hardware.
    """
    a_positions, b_positions, schema, b_keep = theta_join_layout(a, b, on, ops)
    return _run_join(
        a, b, a_positions, b_positions, schema, b_keep, ops,
        variant="counter", tagged=tagged, meter=meter, trace=trace,
        backend=backend, dynamic_ops=True,
    )
