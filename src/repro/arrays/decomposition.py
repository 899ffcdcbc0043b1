"""Problem decomposition for fixed-size arrays (§8).

"It is also possible to use the array to solve problems that will not
fit entirely on it.  This calls for the technique of decomposing
problems ... in the intersection problem, consider the matrix, T, of
results.  For a large problem, one can simply partition this matrix
into sub-problems small enough to fit on the array; each of these
sub-problems would generate a piece of the matrix."

:class:`ArrayCapacity` describes the physical device (processor rows ×
columns).  The blocked operators below partition both the tuple
dimension (the T matrix, as quoted) and, when tuples are wider than the
device, the element dimension — ANDing partial comparison results
across column blocks.  Partial results between block runs are "stored
outside the systolic arrays before they are finally combined" (§9); the
combination (ORing T-rows, unioning match sets) is that outside step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.arrays.base import execute, joined_rows, rows_where
from repro.arrays.decode import blocked_verdicts, quotient_bits
from repro.arrays.division import division_operands
from repro.bitlevel.bits import expand_matrix
from repro.errors import CapacityError, SimulationError
from repro.relational.algebra import equi_join_layout, theta_join_layout
from repro.relational.relation import MultiRelation, Relation
from repro.relational.schema import ColumnRef
from repro.systolic.engine import (
    BlockedPlan,
    DivisionPlan,
    TInit,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine.schedule import block_bounds, division_span_law

__all__ = [
    "ArrayCapacity",
    "BlockedReport",
    "blocked_pair_matrix",
    "blocked_intersection",
    "blocked_difference",
    "blocked_remove_duplicates",
    "blocked_union",
    "blocked_join",
    "blocked_divide",
]


@dataclass(frozen=True)
class ArrayCapacity:
    """The physical size of a systolic device: processor rows × columns."""

    max_rows: int
    max_cols: int

    def __post_init__(self) -> None:
        if self.max_rows < 1 or self.max_cols < 1:
            raise CapacityError(
                f"capacity must be positive, got {self.max_rows}×{self.max_cols}"
            )


@dataclass
class BlockedReport:
    """Accounting for a blocked execution."""

    block_runs: int = 0
    total_pulses: int = 0
    a_blocks: int = 0
    b_blocks: int = 0
    column_blocks: int = 0

    def add_run(self, pulses: int) -> None:
        """Record one sub-problem executed on the device."""
        self.block_runs += 1
        self.total_pulses += pulses


def column_matrix(tuples: Sequence[Sequence[int]]) -> np.ndarray:
    """Raw tuples as an ``(n, k)`` int64 matrix, built once per blocked
    call; every block run gets a slice of it.  (A relation operand
    brings its own: ``relation.array``.)"""
    if not len(tuples):
        return np.empty((0, 0), dtype=np.int64)
    try:
        matrix = np.asarray(tuples, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SimulationError(
            f"blocked operands must be equal-arity tuples of "
            f"integer-encoded elements: {exc}"
        ) from None
    if matrix.ndim != 2:
        raise SimulationError(
            f"blocked operands must be equal-arity tuples, got an array "
            f"of shape {matrix.shape}"
        )
    return matrix


_Out = TypeVar("_Out")


def _run_blocked(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    capacity: ArrayCapacity,
    backend,
    reduce: str,
    build: Callable[[np.ndarray], _Out],
    ops: Optional[Sequence[str]] = None,
    t_init: Optional[TInit] = None,
    variant: str = "counter",
) -> tuple[_Out, BlockedReport]:
    """The T matrix of a problem larger than the device (§8), as one
    engine run: ``build`` of what ``reduce`` keeps of it
    (:class:`~repro.arrays.decode.Reduction`) — the operator's output —
    and the accounting of the block runs it stands for.  The verdict
    decode and ``build`` are the ``arrays.decode`` span: the tap decode
    layer of a device's run.

    Both tuple dimensions are blocked to the device's rows and, when
    the tuples are wider than the device, the element columns to its
    width — partial results ANDed outside the array.  ``ops`` selects
    the join grid (θ-cells, one operator per column); without it the
    comparison grid runs, seeded by ``t_init`` (global indices).
    ``variant`` is the block runs' geometry: ``"counter"`` (both
    relations blocked to half the rows) or ``"fixed"`` (§8: B held in
    blocks of the device's rows, A streamed whole past each).
    """
    plan = BlockedPlan(
        a_matrix, b_matrix, capacity.max_rows, capacity.max_cols, reduce,
        ops=tuple(ops) if ops is not None else None, t_init=t_init,
        variant=variant,
    )
    result = execute(plan, backend=backend)
    report = BlockedReport(
        block_runs=plan.block_runs, total_pulses=result.pulses,
        a_blocks=plan.a_blocks, b_blocks=plan.b_blocks,
        column_blocks=plan.column_blocks,
    )
    with obs.span("arrays.decode", reduce=reduce):
        return build(blocked_verdicts(result, plan)), report


def blocked_pair_matrix(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    capacity: ArrayCapacity,
    t_init: TInit = t_init_true,
    backend=None,
    variant: str = "counter",
) -> tuple[list[list[bool]], BlockedReport]:
    """The full T matrix, computed block by block on a bounded device.

    Tuple blocks bound the rows; when tuple arity exceeds the device
    width, element columns are blocked too and partial equality results
    are ANDed outside the array.  The ``t_init`` mask (global indices)
    is applied on the first column block only — ANDing propagates it.
    """
    n_a, n_b = len(a_tuples), len(b_tuples)
    if not (n_a and n_b):
        return np.zeros((n_a, n_b), dtype=bool).tolist(), BlockedReport()
    return _run_blocked(
        column_matrix(a_tuples), column_matrix(b_tuples), capacity, backend,
        "matrix", np.ndarray.tolist, t_init=t_init, variant=variant,
    )


def _membership(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    capacity: ArrayCapacity,
    backend,
    build: Callable[[np.ndarray], Relation],
    t_init: TInit = t_init_true,
    element_bits: Optional[int] = None,
    variant: str = "counter",
) -> tuple[Relation, BlockedReport]:
    """``build`` of ``t_i = OR_j t_ij`` (equation 4.1) over the blocked
    T matrix.

    The rows of ``T`` are ORed into the vector as they are produced, so
    the ``n_a × n_b`` matrix never exists at once.  On a §8 bit-level
    device (``element_bits`` set) both operands stream as their
    MSB-first bit expansions and ``capacity.max_cols`` bounds *bit*
    columns, so the reported pulses equal
    :func:`repro.perf.cost.bit_comparison_cost` exactly.
    """
    if not (len(a_matrix) and len(b_matrix)):
        return build(np.zeros(len(a_matrix), dtype=bool)), BlockedReport()
    if element_bits is not None:
        a_matrix = expand_matrix(a_matrix, element_bits)
        b_matrix = expand_matrix(b_matrix, element_bits)
    return _run_blocked(
        a_matrix, b_matrix, capacity, backend, "rows", build,
        t_init=t_init, variant=variant,
    )


def blocked_intersection(
    a: Relation, b: Relation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None, variant: str = "counter",
) -> tuple[Relation, BlockedReport]:
    """``A ∩ B`` on a device too small for the whole problem."""
    a.schema.require_union_compatible(b.schema)
    return _membership(
        a.array, b.array, capacity, backend,
        lambda t_vector: Relation(a.schema, rows_where(a, t_vector)),
        element_bits=element_bits, variant=variant,
    )


def blocked_difference(
    a: Relation, b: Relation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None, variant: str = "counter",
) -> tuple[Relation, BlockedReport]:
    """``A − B`` blocked: keep the FALSE rows of T (§4.3)."""
    a.schema.require_union_compatible(b.schema)
    return _membership(
        a.array, b.array, capacity, backend,
        lambda t_vector: Relation(
            a.schema, rows_where(a, t_vector, keep=False)
        ),
        element_bits=element_bits, variant=variant,
    )


def blocked_remove_duplicates(
    a: MultiRelation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None, variant: str = "counter",
) -> tuple[Relation, BlockedReport]:
    """Remove-duplicates blocked: triangular mask via global t_init (§5)."""
    return _membership(
        a.array, a.array, capacity, backend,
        lambda drop: Relation(a.schema, rows_where(a, drop, keep=False)),
        t_init=t_init_strict_lower, element_bits=element_bits,
        variant=variant,
    )


def blocked_union(
    a: Relation, b: Relation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None, variant: str = "counter",
) -> tuple[Relation, BlockedReport]:
    """``A ∪ B`` = blocked remove-duplicates of the concatenation (§5)."""
    a.schema.require_union_compatible(b.schema)
    return blocked_remove_duplicates(
        a.to_multi().concat(b), capacity, backend=backend,
        element_bits=element_bits, variant=variant,
    )


def _join_columns(
    matrix: np.ndarray, positions: Sequence[int]
) -> np.ndarray:
    """The joined columns of a relation's matrix, in ``positions`` order.

    A view when they are adjacent (a single-column join always is): the
    plan only reads them, and a fancy-index copy of a few thousand rows
    releases the GIL — beside concurrent queries that hands the
    interpreter to another query's thread in the middle of setting this
    join up, and the wait to get it back is billed here.
    """
    first, count = positions[0], len(positions)
    if tuple(positions) == tuple(range(first, first + count)):
        return matrix[:, first:first + count]
    return matrix[:, positions]


def blocked_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    capacity: ArrayCapacity,
    ops: Optional[Sequence[str]] = None,
    backend=None,
    variant: str = "counter",
) -> tuple[Relation, BlockedReport]:
    """(θ-)join blocked over tuple blocks and join-column blocks.

    A pair matches overall iff it matches in every column block, so the
    per-block verdicts are ANDed outside the array.
    """
    if ops is None:
        a_pos, b_pos, schema, b_keep = equi_join_layout(a, b, on)
        ops = ["=="] * len(on)
    else:
        a_pos, b_pos, schema, b_keep = theta_join_layout(a, b, on, ops)
    if not a or not b:
        return Relation(schema), BlockedReport()
    return _run_blocked(
        _join_columns(a.array, a_pos), _join_columns(b.array, b_pos),
        capacity, backend, "pairs",
        lambda pairs: Relation(schema, joined_rows(a, b, *pairs, b_keep)),
        ops=ops, variant=variant,
    )


def blocked_divide(
    a: Relation,
    b: Relation,
    capacity: ArrayCapacity,
    a_value: ColumnRef = 1,
    a_group: ColumnRef | None = None,
    b_value: ColumnRef = 0,
    backend=None,
) -> tuple[Relation, BlockedReport]:
    """``A ÷ B`` on a bounded device (§7 array + §8 decomposition).

    The dividend array's row count equals the number of *distinct* A₁
    values, so those are blocked to the device height.  A divisor wider
    than the device is blocked along the divisor row: ``x`` covers all
    of B iff it covers every divisor block, so per-block quotient bits
    are ANDed outside the array.  Every block streams the full pair
    list (the dividend is not partitionable — any pair may feed any
    row).
    """
    quotient_schema, pairs, distinct_x, divisor = division_operands(
        a, b, a_value, a_group, b_value
    )
    report = BlockedReport()
    if not len(pairs):
        return Relation(quotient_schema), report
    if not divisor:
        return Relation(quotient_schema, ((x,) for x in distinct_x)), report

    law = division_span_law(
        len(pairs), len(distinct_x), len(divisor),
        capacity.max_rows, capacity.max_cols,
    )
    # The first block is a full one: its spans are the block sizes.
    x_bounds = block_bounds(len(distinct_x), law.first.p_rows)
    divisor_bounds = block_bounds(len(divisor), law.first.n_divisor)
    report.a_blocks = law.a_blocks
    report.b_blocks = law.b_blocks

    keep = np.ones(len(distinct_x), dtype=bool)
    for x_lo, x_hi in x_bounds:
        for d_lo, d_hi in divisor_bounds:
            plan = DivisionPlan(
                pairs, distinct_x[x_lo:x_hi], divisor[d_lo:d_hi]
            )
            result = execute(plan, backend=backend)
            report.add_run(result.pulses)
            keep[x_lo:x_hi] &= quotient_bits(result, plan.schedule, False)

    members = ((x,) for x in compress(distinct_x, keep.tolist()))
    return Relation(quotient_schema, members), report
