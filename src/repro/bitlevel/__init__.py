"""Bit-level designs: §8's word→bit partition.

MSB-first bit encodings, the bit-magnitude comparator chain, packed
``uint64`` bitplane kernels (:mod:`~repro.bitlevel.planes`, the
bitplane engine's substrate), and bit-level versions of the comparison
arrays whose results are provably identical to the word-level
originals.

The array-level helpers are re-exported lazily: they sit on top of
:mod:`repro.arrays`, which itself loads the engine registry (including
the bitplane engine, which needs :mod:`repro.bitlevel.planes`) — eager
imports here would close that cycle.
"""

from repro.bitlevel.bits import (
    bits_to_word,
    expand_matrix,
    expand_tuple,
    required_width,
    word_to_bits,
)
from repro.bitlevel.cells import EQ, GT, LT, MagnitudeChain
from repro.bitlevel.planes import (
    PLANE_BITS,
    pack_bits,
    pack_planes,
    plane_equal_matrix,
    plane_shift_width,
    plane_three_way,
    unpack_bits,
)

__all__ = [
    "BitArrayStats",
    "EQ",
    "GT",
    "LT",
    "MagnitudeChain",
    "PLANE_BITS",
    "bit_array_stats",
    "bit_level_compare_all_pairs",
    "bit_level_compare_tuples",
    "bit_level_intersection",
    "bit_level_three_way_compare",
    "bits_to_word",
    "expand_matrix",
    "expand_tuple",
    "pack_bits",
    "pack_planes",
    "plane_equal_matrix",
    "plane_shift_width",
    "plane_three_way",
    "required_width",
    "unpack_bits",
    "word_to_bits",
]

#: Names that live in :mod:`repro.bitlevel.arrays`, resolved on first
#: access (PEP 562) to keep the engine-registry import acyclic.
_ARRAY_EXPORTS = frozenset({
    "BitArrayStats",
    "bit_array_stats",
    "bit_level_compare_all_pairs",
    "bit_level_compare_tuples",
    "bit_level_intersection",
    "bit_level_three_way_compare",
})


def __getattr__(name: str):
    if name in _ARRAY_EXPORTS:
        from repro.bitlevel import arrays

        return getattr(arrays, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
