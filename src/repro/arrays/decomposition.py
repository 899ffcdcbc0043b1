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
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.arrays.base import execute, joined_rows, rows_where
from repro.arrays.comparison_array import comparison_plan
from repro.arrays.decode import pair_verdicts, quotient_bits
from repro.arrays.division import division_operands
from repro.arrays.join import join_plan
from repro.bitlevel.bits import expand_matrix
from repro.errors import CapacityError, SimulationError
from repro.relational.algebra import equi_join_layout, theta_join_layout
from repro.relational.relation import MultiRelation, Relation
from repro.relational.schema import ColumnRef
from repro.systolic.engine import (
    DivisionPlan,
    TInit,
    t_init_at,
    t_init_strict_lower,
    t_init_true,
)

__all__ = [
    "ArrayCapacity",
    "BlockedReport",
    "blocked_pair_matrix",
    "blocked_membership",
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

    @property
    def tuple_block(self) -> int:
        """Max tuples per counter-streaming block: rows = 2·block − 1."""
        return (self.max_rows + 1) // 2


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


def _block_bounds(n: int, size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def column_matrix(tuples: Sequence[Sequence[int]]) -> np.ndarray:
    """Raw tuples as an ``(n, k)`` int64 matrix, built once per blocked
    call; every block run gets a slice of it.  (A relation operand
    brings its own: ``relation.array``.)"""
    if not len(tuples):
        return np.empty((0, 0), dtype=np.int64)
    try:
        matrix = np.asarray(tuples, dtype=np.int64)
    except OverflowError:
        # Elements wider than a machine word: only the pulse engine's
        # cells compare those, and it streams Python ints.
        matrix = np.asarray(tuples, dtype=object)
    except (ValueError, TypeError) as exc:
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


def _block_verdicts(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    capacity: ArrayCapacity,
    report: BlockedReport,
    backend,
    ops: Optional[Sequence[str]] = None,
    t_init: TInit = t_init_true,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Run the T matrix block by block on a bounded device (§8).

    Yields ``(a_lo, b_lo, verdicts)`` per pair of tuple blocks:
    ``verdicts[bi, bj]`` is ``t`` for the global pair
    ``(a_lo + bi, b_lo + bj)``.  Each block is the whole-array
    operator's plan on a slice.  When the tuples are wider than the
    device, element columns are blocked too — one device run per column
    block — and the partial results ANDed outside the array.  ``ops``
    selects the join grid (θ-cells, one operator per column); without
    it the comparison grid runs, seeded by ``t_init`` (global indices)
    on the first column block only — ANDing propagates the mask.
    """
    size = capacity.tuple_block
    col_bounds = _block_bounds(a_matrix.shape[1], capacity.max_cols)
    a_bounds = _block_bounds(len(a_matrix), size)
    b_bounds = _block_bounds(len(b_matrix), size)
    report.a_blocks = len(a_bounds)
    report.b_blocks = len(b_bounds)
    report.column_blocks = len(col_bounds)

    for a_lo, a_hi in a_bounds:
        for b_lo, b_hi in b_bounds:
            block: Optional[np.ndarray] = None
            for c_lo, c_hi in col_bounds:
                sub_a = a_matrix[a_lo:a_hi, c_lo:c_hi]
                sub_b = b_matrix[b_lo:b_hi, c_lo:c_hi]
                if ops is not None:
                    plan = join_plan(
                        sub_a, sub_b, ops[c_lo:c_hi], "counter", False
                    )
                else:
                    plan = comparison_plan(
                        sub_a, sub_b,
                        t_init_at(t_init, a_lo, b_lo) if c_lo == 0
                        else t_init_true,
                        False,
                    )
                result = execute(plan, backend=backend)
                report.add_run(result.pulses)
                verdicts = pair_verdicts(result, plan.schedule, tagged=False)
                block = verdicts if block is None else block & verdicts
            assert block is not None
            yield a_lo, b_lo, block


def blocked_pair_matrix(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    capacity: ArrayCapacity,
    t_init: TInit = t_init_true,
    backend=None,
) -> tuple[list[list[bool]], BlockedReport]:
    """The full T matrix, computed block by block on a bounded device.

    Tuple blocks bound the rows; when tuple arity exceeds the device
    width, element columns are blocked too and partial equality results
    are ANDed outside the array.  The ``t_init`` mask (global indices)
    is applied on the first column block only — ANDing propagates it.
    """
    n_a, n_b = len(a_tuples), len(b_tuples)
    report = BlockedReport()
    matrix = np.zeros((n_a, n_b), dtype=bool)
    if n_a and n_b:
        for a_lo, b_lo, block in _block_verdicts(
            column_matrix(a_tuples), column_matrix(b_tuples), capacity,
            report, backend, t_init=t_init,
        ):
            height, width = block.shape
            matrix[a_lo:a_lo + height, b_lo:b_lo + width] = block
    return matrix.tolist(), report


def _membership(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    capacity: ArrayCapacity,
    backend,
    t_init: TInit = t_init_true,
    element_bits: Optional[int] = None,
) -> tuple[np.ndarray, BlockedReport]:
    """``t_i = OR_j t_ij`` (equation 4.1) over the blocked T matrix.

    Each block's rows are ORed into the vector as the block comes off
    the device, so the ``n_a × n_b`` matrix never exists at once.  On a
    §8 bit-level device (``element_bits`` set) both operands stream as
    their MSB-first bit expansions and ``capacity.max_cols`` bounds
    *bit* columns, so the reported pulses equal
    :func:`repro.perf.cost.bit_comparison_cost` exactly.
    """
    report = BlockedReport()
    t_vector = np.zeros(len(a_matrix), dtype=bool)
    if len(a_matrix) and len(b_matrix):
        if element_bits is not None:
            a_matrix = expand_matrix(a_matrix, element_bits)
            b_matrix = expand_matrix(b_matrix, element_bits)
        for a_lo, _, block in _block_verdicts(
            a_matrix, b_matrix, capacity, report, backend, t_init=t_init,
        ):
            t_vector[a_lo:a_lo + len(block)] |= block.any(axis=1)
    return t_vector, report


def blocked_membership(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    capacity: ArrayCapacity,
    t_init: TInit = t_init_true,
    backend=None,
) -> tuple[list[bool], BlockedReport]:
    """The blocked ``t_i`` vector of raw tuple sequences (see
    :func:`_membership`), one Python bool per tuple of A."""
    t_vector, report = _membership(
        column_matrix(a_tuples), column_matrix(b_tuples), capacity,
        backend, t_init=t_init,
    )
    return t_vector.tolist(), report


def blocked_intersection(
    a: Relation, b: Relation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None,
) -> tuple[Relation, BlockedReport]:
    """``A ∩ B`` on a device too small for the whole problem."""
    a.schema.require_union_compatible(b.schema)
    t_vector, report = _membership(
        a.array, b.array, capacity, backend, element_bits=element_bits
    )
    return Relation(a.schema, rows_where(a, t_vector)), report


def blocked_difference(
    a: Relation, b: Relation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None,
) -> tuple[Relation, BlockedReport]:
    """``A − B`` blocked: keep the FALSE rows of T (§4.3)."""
    a.schema.require_union_compatible(b.schema)
    t_vector, report = _membership(
        a.array, b.array, capacity, backend, element_bits=element_bits
    )
    return Relation(a.schema, rows_where(a, t_vector, keep=False)), report


def blocked_remove_duplicates(
    a: MultiRelation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None,
) -> tuple[Relation, BlockedReport]:
    """Remove-duplicates blocked: triangular mask via global t_init (§5)."""
    drop, report = _membership(
        a.array, a.array, capacity, backend, t_init=t_init_strict_lower,
        element_bits=element_bits,
    )
    return Relation(a.schema, rows_where(a, drop, keep=False)), report


def blocked_union(
    a: Relation, b: Relation, capacity: ArrayCapacity, backend=None,
    element_bits: Optional[int] = None,
) -> tuple[Relation, BlockedReport]:
    """``A ∪ B`` = blocked remove-duplicates of the concatenation (§5)."""
    a.schema.require_union_compatible(b.schema)
    return blocked_remove_duplicates(
        a.to_multi().concat(b), capacity, backend=backend,
        element_bits=element_bits,
    )


def blocked_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    capacity: ArrayCapacity,
    ops: Optional[Sequence[str]] = None,
    backend=None,
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
    report = BlockedReport()
    if not a or not b:
        return Relation(schema), report

    found_i, found_j = [], []
    for a_lo, b_lo, block in _block_verdicts(
        a.array[:, a_pos], b.array[:, b_pos], capacity, report, backend,
        ops=ops,
    ):
        block_i, block_j = np.nonzero(block)
        found_i.append(block_i + a_lo)
        found_j.append(block_j + b_lo)
    match_i = np.concatenate(found_i)
    match_j = np.concatenate(found_j)
    order = np.lexsort((match_j, match_i))
    rows = joined_rows(a, b, match_i[order], match_j[order], b_keep)
    return Relation(schema, rows), report


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
    if not pairs:
        return Relation(quotient_schema), report
    if not divisor:
        return Relation(quotient_schema, ((x,) for x in distinct_x)), report

    # The divisor rows sit beside the two dividend columns.
    divisor_cols = capacity.max_cols - 2
    if divisor_cols < 1:
        raise CapacityError(
            f"the division array needs at least 3 processor columns, "
            f"device has {capacity.max_cols}"
        )
    x_bounds = _block_bounds(len(distinct_x), capacity.max_rows)
    divisor_bounds = _block_bounds(len(divisor), divisor_cols)
    report.a_blocks = len(x_bounds)
    report.b_blocks = len(divisor_bounds)

    pair_matrix = column_matrix(pairs)
    keep = np.ones(len(distinct_x), dtype=bool)
    for x_lo, x_hi in x_bounds:
        for d_lo, d_hi in divisor_bounds:
            plan = DivisionPlan(
                pair_matrix, distinct_x[x_lo:x_hi], divisor[d_lo:d_hi]
            )
            result = execute(plan, backend=backend)
            report.add_run(result.pulses)
            keep[x_lo:x_hi] &= quotient_bits(result, plan.schedule, False)

    members = ((x,) for x in compress(distinct_x, keep.tolist()))
    return Relation(quotient_schema, members), report
