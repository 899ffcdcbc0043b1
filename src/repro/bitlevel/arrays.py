"""Bit-level operator arrays and the word→bit design transformation (§8).

Equality-based arrays transform mechanically: replace each word column
by ``width`` bit columns and feed the MSB-first expansion of every
tuple (:func:`~repro.bitlevel.bits.expand_matrix`).  The resulting array
computes the identical ``T`` matrix — verified against the word-level
arrays in the tests — while its area is expressible directly in §8's
bit-comparator unit.

Magnitude comparison uses a chain of
:class:`~repro.bitlevel.cells.BitMagnitudeCell`\\ s: the three-way state
ripples through the bit positions MSB-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arrays.base import rows_where
from repro.arrays.comparison_array import ComparisonMatrixResult, compare_all_pairs
from repro.arrays.decomposition import column_matrix
from repro.arrays.intersection import MembershipResult, run_membership
from repro.arrays.linear_comparison import LinearComparisonResult, compare_tuples
from repro.bitlevel.bits import (
    expand_matrix,
    expand_tuple,
    required_width,
    word_to_bits,
)
from repro.bitlevel.cells import EQ, GT, LT, BitMagnitudeCell
from repro.errors import SimulationError
from repro.relational.relation import Relation
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import ScheduleFeeder
from repro.systolic.values import Token
from repro.systolic.wiring import Network

__all__ = [
    "bit_level_compare_tuples",
    "bit_level_compare_all_pairs",
    "bit_level_intersection",
    "bit_level_three_way_compare",
    "BitArrayStats",
    "bit_array_stats",
]


@dataclass(frozen=True)
class BitArrayStats:
    """Geometry of a bit-level array vs its word-level original."""

    word_rows: int
    word_cols: int
    width: int

    @property
    def bit_cols(self) -> int:
        """Columns after the transformation (word columns × width)."""
        return self.word_cols * self.width

    @property
    def bit_cells(self) -> int:
        """Total bit-comparators — §8's area unit."""
        return self.word_rows * self.bit_cols


def bit_array_stats(rows: int, cols: int, width: int) -> BitArrayStats:
    """Describe the bit-level version of a ``rows × cols`` word array."""
    if rows < 1 or cols < 1 or width < 1:
        raise SimulationError(
            f"array geometry must be positive: {rows}×{cols} @ {width}b"
        )
    return BitArrayStats(word_rows=rows, word_cols=cols, width=width)


def _width_for(values: Sequence[int], width: int | None) -> int:
    """``width`` if given, else the narrowest that holds every value."""
    if width is None:
        return required_width(values)
    if width < 1:
        raise SimulationError(f"width must be >= 1, got {width}")
    return width


def _bit_matrices(
    a_matrix: np.ndarray, b_matrix: np.ndarray, width: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Both operands' MSB-first bit expansions, at one shared width."""
    matrices = (a_matrix, b_matrix)
    bit_width = _width_for([int(m.max()) for m in matrices if m.size], width)
    return tuple(expand_matrix(m, bit_width) for m in matrices)


def bit_level_compare_tuples(
    a: Sequence[int],
    b: Sequence[int],
    width: int | None = None,
    seed: bool = True,
    backend=None,
) -> LinearComparisonResult:
    """Fig 3-1 at bit level: the linear array widened by the bit expansion."""
    bit_width = _width_for([*a, *b], width)
    return compare_tuples(
        expand_tuple(a, bit_width), expand_tuple(b, bit_width), seed=seed,
        backend=backend,
    )


def bit_level_compare_all_pairs(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    width: int | None = None,
    backend=None,
) -> ComparisonMatrixResult:
    """Fig 3-3 at bit level: same T matrix from the expanded tuples."""
    a_bits, b_bits = _bit_matrices(
        column_matrix(a_tuples), column_matrix(b_tuples), width
    )
    return compare_all_pairs(a_bits, b_bits, backend=backend)


def bit_level_three_way_compare(
    a: int, b: int, width: int | None = None
) -> int:
    """Three-way compare two words on a chain of bit-magnitude cells.

    Returns −1 / 0 / +1 for a < b / a == b / a > b, computed by the
    MSB-first state ripple.  This is the processor §6.3.2's
    greater-than-join would be built from at bit level.
    """
    if width is None:
        width = required_width([a, b])
    a_bits = word_to_bits(a, width)
    b_bits = word_to_bits(b, width)
    network = Network("bit-magnitude-chain")
    for position in range(width):
        network.add(BitMagnitudeCell(f"mag[{position}]"))
    for position in range(width):
        name = f"mag[{position}]"
        if position + 1 < width:
            network.connect(name, "s_out", f"mag[{position + 1}]", "s_in")
        network.feed(name, "a_in",
                     ScheduleFeeder({position: Token(a_bits[position])}))
        network.feed(name, "b_in",
                     ScheduleFeeder({position: Token(b_bits[position])}))
    network.feed("mag[0]", "s_in", ScheduleFeeder({0: Token(EQ)}))
    network.tap("state", f"mag[{width - 1}]", "s_out")
    simulator = SystolicSimulator(network).run(width)
    token = simulator.collector("state").at(width - 1)
    if token is None:
        raise SimulationError("the comparison state never left the chain")
    if token.value not in (EQ, LT, GT):
        raise SimulationError(f"invalid comparison state {token.value!r}")
    return token.value


def bit_level_intersection(a, b, width: int | None = None, backend=None):
    """``A ∩ B`` with the whole Fig 4-1 array at bit level (§8).

    Tuples are expanded to their MSB-first bit vectors and the full
    intersection array — bit comparators plus the accumulation column —
    runs on the widened relations.  The answer is identical to the
    word-level array's; the pulse count grows by the extra columns.
    ``backend`` picks the engine the widened array runs on, like every
    word-level operator.
    """
    a.schema.require_union_compatible(b.schema)
    a_bits, b_bits = _bit_matrices(a.array, b.array, width)
    # The expansion is injective and keeps row order, so bit i is a_i's.
    t_vector, run = run_membership(
        a_bits, b_bits, "counter", False, backend, "intersection-array",
    )
    return MembershipResult(
        Relation(a.schema, rows_where(a, t_vector)), t_vector, run
    )
