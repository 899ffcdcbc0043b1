"""Plan → cell network: the pulse-level materialization layer.

The arrays of §3–§7 are all assembled from the same parts: a grid of
processors (orthogonally connected, Fig 2-1a), column feeders that
stagger tuple elements (§3.1), left-edge injectors for initial partial
results, and an optional accumulation column (Fig 4-1).  This module
builds those parts once — from a plan or from raw operands — so the
operator layer and the :class:`~repro.systolic.engine.pulse.PulseEngine`
only state what is *different* about each array.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.systolic.cell import Cell
from repro.systolic.cells import (
    AccumulationCell,
    ComparisonCell,
    DividendGateCell,
    DividendMatchCell,
    DivisorCell,
    DynamicThetaCell,
    ThetaCell,
)
from repro.systolic.engine.hexmesh import build_hex_network
from repro.systolic.engine.plan import (
    DivisionPlan,
    ExecutionPlan,
    GridPlan,
    HexPlan,
    TInit,
    acc_name,
    check_tuples,
    cmp_name,
)
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    DivisionSchedule,
    FixedRelationSchedule,
)
from repro.systolic.streams import ConstantFeeder, PeriodicFeeder, ScheduleFeeder
from repro.systolic.values import Token
from repro.systolic.wiring import Network

__all__ = [
    "CellFactory",
    "build_counter_stream_grid",
    "build_fixed_relation_grid",
    "attach_accumulation_column",
    "attach_op_stream",
    "build_division_network",
    "materialize",
    "materialize_grid",
]

#: Builds the processor for grid position (row, col) — ComparisonCell
#: for the comparison array, ThetaCell for join columns.
CellFactory = Callable[[str, int, int], Cell]


def _default_cell_factory(name: str, row: int, col: int) -> Cell:
    return ComparisonCell(name)


def _element_token(
    kind: str, tuple_index: int, col: int, value: int, tagged: bool
) -> Token:
    return Token(value, (kind, tuple_index, col) if tagged else None)


def build_counter_stream_grid(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    schedule: CounterStreamSchedule,
    t_init: Optional[TInit] = None,
    cell_factory: CellFactory = _default_cell_factory,
    tagged: bool = False,
    name: str = "comparison-array",
) -> tuple[Network, dict[str, tuple[int, int]]]:
    """Assemble the Fig 3-3 grid: A streams down, B streams up.

    Returns the network and a layout (cell name → (row, col)) for the
    trace renderer.  ``t_init`` installs the left-edge partial-result
    injections; omit it for the join array, whose cells originate their
    own ``t`` at the first column (§6.2).
    """
    rows, cols = schedule.rows, schedule.arity
    check_tuples(a_tuples, schedule.n_a, cols, "A")
    check_tuples(b_tuples, schedule.n_b, cols, "B")

    network = Network(name)
    layout: dict[str, tuple[int, int]] = {}
    for row in range(rows):
        for col in range(cols):
            cell = cell_factory(cmp_name(row, col), row, col)
            network.add(cell)
            layout[cell.name] = (row, col)

    for row in range(rows):
        for col in range(cols):
            if row + 1 < rows:
                network.connect(cmp_name(row, col), "a_out",
                                cmp_name(row + 1, col), "a_in")
                network.connect(cmp_name(row + 1, col), "b_out",
                                cmp_name(row, col), "b_in")
            if col + 1 < cols:
                network.connect(cmp_name(row, col), "t_out",
                                cmp_name(row, col + 1), "t_in")

    for col in range(cols):
        a_stream = [
            _element_token("a", i, col, row_values[col], tagged)
            for i, row_values in enumerate(a_tuples)
        ]
        network.feed(cmp_name(0, col), "a_in",
                     PeriodicFeeder(a_stream, start=col, period=2))
        b_stream = [
            _element_token("b", j, col, row_values[col], tagged)
            for j, row_values in enumerate(b_tuples)
        ]
        network.feed(cmp_name(rows - 1, col), "b_in",
                     PeriodicFeeder(b_stream, start=col, period=2))

    if t_init is not None:
        for row in range(rows):
            injections = {
                schedule.t_init_pulse(i, j): Token(
                    bool(t_init(i, j)), ("t", i, j) if tagged else None
                )
                for i, j in schedule.row_pairs(row)
            }
            if injections:
                network.feed(cmp_name(row, 0), "t_in",
                             ScheduleFeeder(injections))
    return network, layout


def build_fixed_relation_grid(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    schedule: FixedRelationSchedule,
    t_init: Optional[TInit] = None,
    cell_factory: CellFactory = _default_cell_factory,
    tagged: bool = False,
    name: str = "fixed-relation-array",
) -> tuple[Network, dict[str, tuple[int, int]]]:
    """Assemble the §8 variant: B preloaded (one tuple per row), A moves.

    Preloading is realized by a constant feeder on each cell's ``b_in``
    — the stored operand is simply always present, so the unmodified
    comparison processor serves both designs.
    """
    rows, cols = schedule.rows, schedule.arity
    check_tuples(a_tuples, schedule.n_a, cols, "A")
    check_tuples(b_tuples, schedule.n_b, cols, "B")

    network = Network(name)
    layout: dict[str, tuple[int, int]] = {}
    for row in range(rows):
        for col in range(cols):
            cell = cell_factory(cmp_name(row, col), row, col)
            network.add(cell)
            layout[cell.name] = (row, col)
            network.feed(
                cell.name, "b_in",
                ConstantFeeder(
                    _element_token("b", row, col, b_tuples[row][col], tagged)
                ),
            )

    for row in range(rows):
        for col in range(cols):
            if row + 1 < rows:
                network.connect(cmp_name(row, col), "a_out",
                                cmp_name(row + 1, col), "a_in")
            if col + 1 < cols:
                network.connect(cmp_name(row, col), "t_out",
                                cmp_name(row, col + 1), "t_in")

    for col in range(cols):
        a_stream = [
            _element_token("a", i, col, row_values[col], tagged)
            for i, row_values in enumerate(a_tuples)
        ]
        network.feed(cmp_name(0, col), "a_in",
                     PeriodicFeeder(a_stream, start=col, period=1))

    if t_init is not None:
        for row in range(rows):
            injections = {
                schedule.t_init_pulse(i, row): Token(
                    bool(t_init(i, row)), ("t", i, row) if tagged else None
                )
                for i in range(schedule.n_a)
            }
            network.feed(cmp_name(row, 0), "t_in", ScheduleFeeder(injections))
    return network, layout


def attach_accumulation_column(
    network: Network,
    schedule: CounterStreamSchedule | FixedRelationSchedule,
    layout: Optional[dict[str, tuple[int, int]]] = None,
    tagged: bool = False,
    tap: str = "t_i",
) -> None:
    """Bolt the Fig 4-1 accumulation array onto a comparison grid.

    One accumulation processor per row; each takes the row's final
    ``t_ij`` from the left and the descending ``t_i`` from above.  The
    descending value is seeded FALSE at the top on the schedule's seed
    pulses and tapped at the bottom under ``tap``.
    """
    rows, cols = schedule.rows, schedule.arity
    for row in range(rows):
        network.add(AccumulationCell(acc_name(row)))
        if layout is not None:
            layout[acc_name(row)] = (row, cols)
    for row in range(rows):
        network.connect(cmp_name(row, cols - 1), "t_out",
                        acc_name(row), "t_left")
        if row + 1 < rows:
            network.connect(acc_name(row), "t_bottom",
                            acc_name(row + 1), "t_top")
    seeds = {
        schedule.accumulator_seed_pulse(i): Token(
            False, ("acc", i) if tagged else None
        )
        for i in range(schedule.n_a)
    }
    network.feed(acc_name(0), "t_top", ScheduleFeeder(seeds))
    network.tap(tap, acc_name(rows - 1), "t_bottom")


def attach_op_stream(
    network: Network,
    schedule: CounterStreamSchedule,
    ops: Sequence[str],
) -> None:
    """Stream op codes down each column alongside relation A (§6.3.2).

    Same staggering and two-pulse tuple spacing as the ``a`` elements,
    so each op code meets exactly the comparisons of its tuple.
    """
    for row in range(schedule.rows - 1):
        for col in range(schedule.arity):
            network.connect(cmp_name(row, col), "op_out",
                            cmp_name(row + 1, col), "op_in")
    for col in range(schedule.arity):
        op_stream = [Token(ops[col]) for _ in range(schedule.n_a)]
        network.feed(cmp_name(0, col), "op_in",
                     PeriodicFeeder(op_stream, start=col, period=2))


def build_division_network(
    pairs: Sequence[tuple[int, int]],
    distinct_x: Sequence[int],
    divisor: Sequence[int],
    schedule: DivisionSchedule,
    tagged: bool = False,
) -> tuple[Network, dict[str, tuple[int, int]]]:
    """Assemble Fig 7-2 for encoded ``(x, y)`` pairs and divisor values."""
    network = Network("division-array")
    layout: dict[str, tuple[int, int]] = {}
    p_rows = schedule.p_rows

    for row, stored in enumerate(distinct_x):
        match_cell = network.add(DividendMatchCell(f"dm[{row}]", stored))
        gate_cell = network.add(DividendGateCell(f"dg[{row}]"))
        layout[match_cell.name] = (row, 0)
        layout[gate_cell.name] = (row, 1)
        network.connect(f"dm[{row}]", "t_out", f"dg[{row}]", "t_in")
    for row in range(p_rows - 1, 0, -1):
        network.connect(f"dm[{row}]", "x_out", f"dm[{row - 1}]", "x_in")
        network.connect(f"dg[{row}]", "y_out", f"dg[{row - 1}]", "y_in")

    for row in range(p_rows):
        for s, stored in enumerate(divisor):
            cell = network.add(DivisorCell(f"dv[{row},{s}]", stored))
            layout[cell.name] = (row, 2 + s)
        network.connect(f"dg[{row}]", "y_pass", f"dv[{row},0]", "y_in")
        for s in range(len(divisor) - 1):
            network.connect(f"dv[{row},{s}]", "y_out", f"dv[{row},{s + 1}]", "y_in")
            network.connect(f"dv[{row},{s}]", "and_out", f"dv[{row},{s + 1}]", "and_in")
        network.feed(
            f"dv[{row},0]", "and_in",
            ScheduleFeeder({
                schedule.and_inject_pulse(row): Token(
                    True, ("and", row) if tagged else None
                )
            }),
        )
        network.tap(f"and_row[{row}]", f"dv[{row},{len(divisor) - 1}]", "and_out")

    x_stream = [
        Token(x, ("pair", q) if tagged else None) for q, (x, _) in enumerate(pairs)
    ]
    y_stream = [
        Token(y, ("pair", q) if tagged else None) for q, (_, y) in enumerate(pairs)
    ]
    network.feed(f"dm[{p_rows - 1}]", "x_in",
                 PeriodicFeeder(x_stream, start=0, period=1))
    network.feed(f"dg[{p_rows - 1}]", "y_in",
                 PeriodicFeeder(y_stream, start=1, period=1))
    return network, layout


def _grid_factory(plan: GridPlan) -> CellFactory:
    if plan.ops is None:
        return _default_cell_factory
    if plan.dynamic_ops:
        return lambda name, row, col: DynamicThetaCell(name)
    ops = plan.ops

    def theta_factory(name: str, row: int, col: int) -> Cell:
        return ThetaCell(name, op=ops[col])

    return theta_factory


def _python_rows(rows):
    """Array operands as nested lists: the cells stream Python ints, so
    traces and Token payloads never carry numpy scalars."""
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


def materialize_grid(
    plan: GridPlan,
) -> tuple[Network, dict[str, tuple[int, int]]]:
    """Build a grid plan's cell network, taps included, and its layout
    (cell name → (row, col), accumulators in the column past the grid)."""
    factory = _grid_factory(plan)
    a_tuples = _python_rows(plan.a_tuples)
    b_tuples = _python_rows(plan.b_tuples)
    if plan.variant == "counter":
        network, layout = build_counter_stream_grid(
            a_tuples, b_tuples, plan.schedule,
            t_init=plan.t_init, cell_factory=factory,
            tagged=plan.tagged, name=plan.name,
        )
        if plan.dynamic_ops:
            attach_op_stream(network, plan.schedule, plan.ops)
    else:
        network, layout = build_fixed_relation_grid(
            a_tuples, b_tuples, plan.schedule,
            t_init=plan.t_init, cell_factory=factory,
            tagged=plan.tagged, name=plan.name,
        )
    if plan.accumulate:
        attach_accumulation_column(
            network, plan.schedule, layout, tagged=plan.tagged
        )
    if plan.row_taps:
        for row in range(plan.rows):
            network.tap(f"t_row[{row}]", cmp_name(row, plan.cols - 1), "t_out")
    return network, layout


def materialize(plan: ExecutionPlan) -> Network:
    """Build the full cell network a plan describes, taps included."""
    if isinstance(plan, GridPlan):
        return materialize_grid(plan)[0]
    if isinstance(plan, DivisionPlan):
        network, _ = build_division_network(
            _python_rows(plan.pairs), plan.distinct_x, plan.divisor,
            plan.schedule,
            tagged=plan.tagged,
        )
        return network
    if isinstance(plan, HexPlan):
        network, _ = build_hex_network(
            plan.a_rows, plan.b_cols, plan.semiring, tagged=plan.tagged
        )
        return network
    raise SimulationError(f"unknown plan type {type(plan).__name__}")
