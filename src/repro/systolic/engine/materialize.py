"""Plan → cell network: the one way to build the paper's processors.

§4.3 calls the comparison array "the main hardware": every operator is
the same grid of processors (orthogonally connected, Fig 2-1a) with
different operands, initial ``t`` and output, and division is Fig 7-2's
array.  So a grid plan or a division plan says everything a network
needs, and :func:`materialize` builds it from the plan alone: column
feeders that stagger tuple elements (§3.1), left-edge injectors for the
initial partial results, the accumulation column of Fig 4-1 when the
plan accumulates, and the taps the plan names.

No engine computes on these networks.  They are where a grid or
division run is watched (a trace, busy counts, through a
:class:`~repro.systolic.simulator.SystolicSimulator` observer), and the
reference the register stepper is held to: :func:`tables_of` reads
their Token records as the tap tables a run hands back.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Mapping, Optional

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
from repro.systolic.engine.plan import (
    ColumnarTap,
    DivisionPlan,
    ExecutionPlan,
    GridPlan,
    acc_name,
    cmp_name,
)
from repro.systolic.streams import ConstantFeeder, PeriodicFeeder, ScheduleFeeder
from repro.systolic.values import Token
from repro.systolic.wiring import Network

__all__ = ["materialize", "tables_of"]

#: Cell name → (row, col), where the trace renderer draws the cell.
Layout = dict[str, tuple[int, int]]


def materialize(plan: ExecutionPlan) -> tuple[Network, Layout]:
    """The cell network a grid or division plan describes, taps
    included, and its layout: a grid's accumulators sit in the column
    past the grid, a division row's divisor cells right of its two
    dividend cells."""
    if isinstance(plan, GridPlan):
        return _grid(plan)
    if isinstance(plan, DivisionPlan):
        return _division(plan)
    raise SimulationError(f"unknown plan type {type(plan).__name__}")


def _python_rows(rows):
    """Array operands as nested lists: the cells stream Python ints, so
    traces and Token payloads never carry numpy scalars."""
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


def _processor(plan: GridPlan, name: str, col: int) -> Cell:
    """The comparison processor, or the join's θ-cell for its column."""
    if plan.ops is None:
        return ComparisonCell(name)
    if plan.dynamic_ops:
        return DynamicThetaCell(name)
    return ThetaCell(name, op=plan.ops[col])


def _grid(plan: GridPlan) -> tuple[Network, Layout]:
    """Fig 3-3's grid, A streaming down every column.  The two variants
    differ only in B and in A's period: counter-streaming B moves up,
    one tuple every two pulses like A; §8's fixed relation keeps one
    B tuple in each row, preloaded as a feeder that is always present,
    so the unmodified comparison processor serves both designs and A
    enters every pulse."""
    schedule, tagged = plan.schedule, plan.tagged
    rows, cols = plan.rows, plan.cols
    counter = plan.variant == "counter"
    a_tuples = _python_rows(plan.a_tuples)
    b_tuples = _python_rows(plan.b_tuples)

    def element(kind: str, index: int, col: int, value: int) -> Token:
        return Token(value, (kind, index, col) if tagged else None)

    network = Network(plan.name)
    layout: Layout = {}
    for row in range(rows):
        for col in range(cols):
            name = cmp_name(row, col)
            network.add(_processor(plan, name, col))
            layout[name] = (row, col)
            if not counter:
                network.feed(name, "b_in", ConstantFeeder(
                    element("b", row, col, b_tuples[row][col])
                ))

    for row in range(rows):
        for col in range(cols):
            if row + 1 < rows:
                network.connect(cmp_name(row, col), "a_out",
                                cmp_name(row + 1, col), "a_in")
                if counter:
                    network.connect(cmp_name(row + 1, col), "b_out",
                                    cmp_name(row, col), "b_in")
            if col + 1 < cols:
                network.connect(cmp_name(row, col), "t_out",
                                cmp_name(row, col + 1), "t_in")

    a_period = 2 if counter else 1
    for col in range(cols):
        a_stream = [
            element("a", i, col, values[col])
            for i, values in enumerate(a_tuples)
        ]
        network.feed(cmp_name(0, col), "a_in",
                     PeriodicFeeder(a_stream, start=col, period=a_period))
        if counter:
            b_stream = [
                element("b", j, col, values[col])
                for j, values in enumerate(b_tuples)
            ]
            network.feed(cmp_name(rows - 1, col), "b_in",
                         PeriodicFeeder(b_stream, start=col, period=2))

    if plan.t_init is not None:
        for row in range(rows):
            pairs = (
                schedule.row_pairs(row) if counter
                else [(i, row) for i in range(schedule.n_a)]
            )
            injections = {
                schedule.t_init_pulse(i, j): Token(
                    bool(plan.t_init(i, j)), ("t", i, j) if tagged else None
                )
                for i, j in pairs
            }
            if injections:
                network.feed(cmp_name(row, 0), "t_in",
                             ScheduleFeeder(injections))
    if plan.dynamic_ops:
        _add_op_stream(network, plan)
    if plan.accumulate:
        _add_accumulation_column(network, plan, layout)
    if plan.row_taps:
        for row in range(rows):
            network.tap(f"t_row[{row}]", cmp_name(row, cols - 1), "t_out")
    return network, layout


def _add_accumulation_column(
    network: Network, plan: GridPlan, layout: Layout
) -> None:
    """Bolt the Fig 4-1 accumulation array onto the grid.

    One accumulation processor per row; each takes the row's final
    ``t_ij`` from the left and the descending ``t_i`` from above.  The
    descending value is seeded FALSE at the top on the schedule's seed
    pulses and tapped at the bottom as ``t_i``.
    """
    schedule, rows, cols = plan.schedule, plan.rows, plan.cols
    for row in range(rows):
        network.add(AccumulationCell(acc_name(row)))
        layout[acc_name(row)] = (row, cols)
    for row in range(rows):
        network.connect(cmp_name(row, cols - 1), "t_out",
                        acc_name(row), "t_left")
        if row + 1 < rows:
            network.connect(acc_name(row), "t_bottom",
                            acc_name(row + 1), "t_top")
    seeds = {
        schedule.accumulator_seed_pulse(i): Token(
            False, ("acc", i) if plan.tagged else None
        )
        for i in range(schedule.n_a)
    }
    network.feed(acc_name(0), "t_top", ScheduleFeeder(seeds))
    network.tap("t_i", acc_name(rows - 1), "t_bottom")


def _add_op_stream(network: Network, plan: GridPlan) -> None:
    """Stream op codes down each column alongside relation A (§6.3.2).

    Same staggering and two-pulse tuple spacing as the ``a`` elements,
    so each op code meets exactly the comparisons of its tuple.
    """
    for row in range(plan.rows - 1):
        for col in range(plan.cols):
            network.connect(cmp_name(row, col), "op_out",
                            cmp_name(row + 1, col), "op_in")
    for col in range(plan.cols):
        op_stream = [Token(plan.ops[col]) for _ in range(plan.schedule.n_a)]
        network.feed(cmp_name(0, col), "op_in",
                     PeriodicFeeder(op_stream, start=col, period=2))


def _division(plan: DivisionPlan) -> tuple[Network, Layout]:
    """Fig 7-2 for the plan's encoded ``(x, y)`` pairs and divisor."""
    schedule, tagged = plan.schedule, plan.tagged
    pairs, divisor = _python_rows(plan.pairs), plan.divisor
    network = Network("division-array")
    layout: Layout = {}
    p_rows = schedule.p_rows

    for row, stored in enumerate(plan.distinct_x):
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


#: A tap that is one position of an edge: ``t_row[3]`` is ``t_row``'s 3.
_EDGE_TAP = re.compile(r"(\w+)\[(\d+)\]")


def tables_of(
    records: Mapping[str, Iterable[tuple[int, Token]]]
) -> dict[str, ColumnarTap]:
    """Token records keyed by tap name — a cell network's collectors —
    as tap tables, the form an engine run hands back.

    The taps ``edge[0]``, ``edge[1]``, … become one table of ``width``
    positions (empty taps included); any other tap (``t_i``) is a
    table of its own.  Each tap's records go
    in pulse order.  Nothing is coerced: a payload that is not a bool,
    or a tag outside the table's one ghost-tag family (same kind, same
    length, integer indices), is refused naming the tap.
    """
    edges: dict[str, dict[Optional[int], str]] = {}
    for name in records:
        match = _EDGE_TAP.fullmatch(name)
        edge, position = (match[1], int(match[2])) if match else (name, None)
        edges.setdefault(edge, {})[position] = name
    tables = {}
    for edge, taps in edges.items():
        width = None if None in taps else max(taps) + 1
        pulses, values, positions, tags = [], [], [], []
        family = None
        for position in [None] if width is None else sorted(taps):
            name = taps[position]
            for pulse, token in sorted(records[name], key=itemgetter(0)):
                value, tag = token.value, token.tag
                if type(value) is not bool:
                    raise SimulationError(
                        f"tap {name!r} carries payload {value!r}, not a bool"
                    )
                if tag is not None and not (
                    isinstance(tag, tuple) and tag
                    and isinstance(tag[0], str)
                    and all(type(index) is int for index in tag[1:])
                ):
                    raise SimulationError(
                        f"tap {name!r} carries {tag!r}, not a ghost tag"
                    )
                shape = None if tag is None else (tag[0], len(tag))
                if not pulses:
                    family = shape
                elif shape != family:
                    raise SimulationError(
                        f"tap {name!r} carries tag {tag!r} outside its "
                        f"edge's ghost-tag family (kind, length) {family!r}"
                    )
                pulses.append(pulse)
                values.append(value)
                positions.append(position)
                tags.append(() if tag is None else tag[1:])
        tables[edge] = ColumnarTap(
            edge, np.array(pulses, dtype=np.int64),
            np.array(values, dtype=bool), family and family[0],
            tuple(np.array(tags, dtype=np.int64).T) if family else (),
            positions=None if width is None
            else np.array(positions, dtype=np.int64),
            width=width,
        )
    return tables
