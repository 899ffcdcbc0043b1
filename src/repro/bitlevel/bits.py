"""Bit-vector encoding of word elements (§8's word→bit partition).

"Each word processor can be partitioned into bit processors to achieve
modularity at the bit-level."  The partition starts with a fixed-width
binary encoding of each element; this module provides it, MSB-first
(magnitude comparators must see the most significant bit first).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError

__all__ = [
    "word_to_bits",
    "bits_to_word",
    "required_width",
    "expand_tuple",
    "expand_matrix",
]


def required_width(values: Sequence[int]) -> int:
    """The smallest bit width that represents every value in ``values``."""
    worst = max(values, default=0)
    if worst < 0:
        raise ReproError("bit encoding covers non-negative encoded elements")
    return max(1, worst.bit_length())


def word_to_bits(value: int, width: int) -> tuple[int, ...]:
    """MSB-first bits of ``value`` in a ``width``-bit field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"elements are plain ints, got {value!r}")
    if value < 0:
        raise ReproError(f"encoded elements are non-negative, got {value}")
    if width < 1:
        raise ReproError(f"width must be >= 1, got {width}")
    if value >= (1 << width):
        raise ReproError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - position)) & 1 for position in range(width))


def bits_to_word(bits: Sequence[int]) -> int:
    """Inverse of :func:`word_to_bits` (MSB-first)."""
    if not bits:
        raise ReproError("cannot decode an empty bit vector")
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ReproError(f"bits are 0/1, got {bit!r}")
        value = (value << 1) | bit
    return value


def expand_tuple(values: Sequence[int], width: int) -> tuple[int, ...]:
    """Concatenate the MSB-first bits of every element of a tuple.

    An m-element tuple becomes an ``m·width``-element bit tuple; tuple
    equality is preserved (two tuples are equal iff their expansions
    are), which is what lets a word-level comparison array be replaced
    by a wider bit-level one.
    """
    expanded: list[int] = []
    for value in values:
        expanded.extend(word_to_bits(value, width))
    return tuple(expanded)


def expand_matrix(matrix: np.ndarray, width: int) -> np.ndarray:
    """:func:`expand_tuple` over every row of an ``(n, k)`` matrix at once.

    Returns the ``(n, k·width)`` int64 matrix of MSB-first bits — the
    operand a bit-level array streams in place of the word matrix — and
    refuses what :func:`word_to_bits` refuses.
    """
    if width < 1:
        raise ReproError(f"width must be >= 1, got {width}")
    n, k = matrix.shape
    bad = matrix < 0
    if width < 63:  # every non-negative int64 fits 63 bits
        bad |= (matrix >> width) != 0
    if bad.any():
        # Re-raise through the scalar encoder for the exact diagnostic.
        word_to_bits(int(matrix[bad][0]), width)
    # A non-negative int64 has no bit above position 62.
    shifts = np.minimum(np.arange(width - 1, -1, -1), 63)
    return ((matrix[:, :, None] >> shifts) & 1).reshape(n, k * width)
