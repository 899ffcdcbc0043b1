"""Packed bitplanes: §8's bit-serial comparators as bulk word ops.

The word→bit transformation of :mod:`repro.bitlevel` replaces every
word comparator by ``width`` bit comparators.  Simulating those bit
cells one token at a time is exactly as slow as it sounds; this module
applies the PR 1 lattice treatment one level down, the way bulk-bitwise
processing-in-memory evaluates bit-serial logic: lay each **bit
position** out as one plane of packed ``uint64`` machine words (64
tuples per word, over the tuple axis) and evaluate the whole plane with
one ``np.bitwise_*`` sweep.

* **Equality** is an XOR/OR-reduce over the planes: two values differ
  iff any bit position differs, so ``NEQ = OR_p (a_p XOR b_p)`` and the
  verdict plane is its complement.
* **Magnitude** is the :class:`~repro.bitlevel.cells.MagnitudeChain`
  state ripple (EQ / LT / GT, MSB-first) vectorized across the plane:
  at each bit position the still-EQ lanes whose bits differ resolve to
  GT or LT by the ``a`` bit, exactly the cell's transition table.

Values are signed ``int64`` (the lattice engine's element type); they
are translated by the common minimum into ``uint64`` — a shift that
preserves both equality and order, keeps every element in
``[0, 2⁶⁴)``, and makes the MSB-first ripple correct for negative
inputs too.  ``n`` not a multiple of 64 leaves a ragged tail in the
last word; every kernel unpacks only the first ``n`` lanes, so tail
garbage never reaches a verdict.

Layout work is numpy's bit codecs, not arithmetic: a word's bits are
:func:`numpy.unpackbits` of its little-endian bytes, a plane is
:func:`numpy.packbits` of its lanes (``bitorder="little"``, read back
through an explicit ``'<u8'`` view, so lane ``j`` of a word is bit
``j`` on any host).  The sweeps run **word-major**: a state plane of
``c`` streamed tuples against ``n_words`` resident words is held as
``(n_words, c)``, so every in-place ``out=`` operation runs along the
long streamed axis; the kernels hand back its ``(c, n_words)``
transpose.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "PLANE_BITS",
    "plane_shift_width",
    "pack_bits",
    "unpack_bits",
    "pack_planes",
    "equality_planes",
    "equal_runs",
    "magnitude_planes",
    "PLANE_OPS",
    "plane_op",
    "plane_equal_matrix",
    "plane_three_way",
]

#: Tuples packed per machine word — one ``uint64`` lane per plane word.
PLANE_BITS = 64

#: A plane word as the bit codecs see it: eight bytes, least significant
#: first, so lane ``j`` is bit ``j % 8`` of byte ``j // 8``.
_WORD = np.dtype("<u8")

_ALL = ~np.uint64(0)
_MASK64 = (1 << 64) - 1


def plane_shift_width(*matrices: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Translate signed matrices into ``uint64`` planes-ready form.

    Subtracting the common minimum preserves equality and order; the
    translated range fits ``[0, 2⁶⁴)`` for any ``int64`` inputs, so the
    wrapping ``uint64`` arithmetic is exact.  Returns the translated
    matrices and the bit width of the widest translated value.
    """
    mats = [np.asarray(m, dtype=np.int64) for m in matrices]
    if not mats or all(m.size == 0 for m in mats):
        return [m.astype(np.uint64) for m in mats], 1
    lo = min(int(m.min()) for m in mats if m.size)
    hi = max(int(m.max()) for m in mats if m.size)
    width = max(1, (hi - lo).bit_length())
    shift = np.uint64(lo & _MASK64)
    return [m.astype(np.uint64) - shift for m in mats], width


def _bit_planes(matrix: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of every ``uint64`` in an ``(n, m)``
    matrix, one byte each, as a contiguous ``(m, width, n)`` array:
    ``[k, p]`` is bit position ``p`` (MSB-first) of column ``k``.  Only
    the ``⌈width/8⌉`` low bytes of each word are unpacked."""
    n, m = matrix.shape
    octets = np.ascontiguousarray(matrix, dtype=_WORD).view(np.uint8)
    bits = np.unpackbits(
        octets.reshape(n, m, 8)[:, :, :-(-width // 8)], axis=-1,
        bitorder="little",
    )  # (n, m, 8·⌈width/8⌉), bit b of each word at [..., b]
    return np.ascontiguousarray(bits[:, :, width - 1::-1].transpose(1, 2, 0))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 lanes along the last axis into ``uint64`` words, 64
    lanes per word.

    Lane ``j`` of word ``w`` holds element ``64·w + j`` (LSB-first
    within the word); a ragged tail is zero-padded.
    """
    n = bits.shape[-1]
    n_words = max(1, -(-n // PLANE_BITS))
    lanes = np.zeros((*bits.shape[:-1], n_words * PLANE_BITS), dtype=np.uint8)
    lanes[..., :n] = bits
    return np.packbits(lanes, axis=-1, bitorder="little").view(_WORD)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack plane words back to a boolean vector of length ``n``.

    The inverse of :func:`pack_bits`; stopping at ``n`` drops the
    ragged tail, so padding lanes never surface.  Works on any leading
    shape (the last axis is the word axis).
    """
    octets = np.ascontiguousarray(words, dtype=_WORD).view(np.uint8)
    lanes = np.unpackbits(octets, axis=-1, count=n, bitorder="little")
    return lanes.view(bool)


def pack_planes(matrix: np.ndarray, width: int) -> np.ndarray:
    """Bitplanes of a translated ``(n, m)`` ``uint64`` matrix.

    Returns a ``(m, width, n_words)`` array: plane ``[k, p]`` packs bit
    position ``p`` (MSB-first, matching
    :func:`repro.bitlevel.bits.word_to_bits`) of column ``k`` across
    all ``n`` tuples.
    """
    if width < 1 or width > PLANE_BITS:
        raise SimulationError(
            f"plane width must be in [1, {PLANE_BITS}], got {width}"
        )
    return pack_bits(_bit_planes(matrix, width))


def equality_planes(
    a_matrix: np.ndarray, b_planes: np.ndarray, width: int
) -> np.ndarray:
    """Packed NEQ accumulation of ``a`` rows against ``b`` planes.

    ``a_matrix`` is ``(c, m)`` translated values (the streamed side),
    ``b_planes`` ``(m, width, n_words)`` packed planes (the resident
    side).  Returns the packed equality verdicts, ``(c, n_words)``:
    lane ``j`` of row ``i`` is set iff tuples ``a[i]`` and ``b[j]``
    agree on every bit of every column — the XOR/OR-reduce.
    """
    c = a_matrix.shape[0]
    m, _, n_words = b_planes.shape
    a_bits = _bit_planes(a_matrix, width)
    neq = np.zeros((n_words, c), dtype=np.uint64)
    diff = np.empty_like(neq)
    a_mask = np.empty(c, dtype=np.uint64)
    for k in range(m):
        for p in range(width):
            # A 0/1 bit negated into a word: all lanes clear, or all set.
            np.negative(a_bits[k, p], dtype=np.uint64, out=a_mask)
            np.bitwise_xor(b_planes[k, p, :, None], a_mask, out=diff)
            np.bitwise_or(neq, diff, out=neq)
    return np.invert(neq, out=neq).T


def equal_runs(matrix: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a translated ``(n, m)`` matrix ordered so that equal
    rows are adjacent, and where each run of equal rows starts.

    A row's sort key is its ``m × width`` bits laid end to end in
    ``⌈m·width/64⌉`` ``uint64`` words (column ``c`` at bit ``c·width``),
    so the sort moves words, never the unpacked bits.  Whether
    neighbours are equal is then decided plane-wise: each packed plane
    of the ordered rows is XORed with itself shifted one lane — the
    next word's lane 0 carried into lane 63 — and the differences are
    ORed across planes, ``n − 1`` comparisons where a whole verdict
    matrix is ``n²``.  Returns ``(order, starts)``: sorted position
    ``p`` holds row ``order[p]``, and ``starts[p]`` is TRUE iff it
    differs from position ``p − 1``.
    """
    n, m = matrix.shape
    keys = np.zeros((-(-m * width // PLANE_BITS), n), dtype=np.uint64)
    for c in range(m):
        word, bit = divmod(c * width, PLANE_BITS)
        keys[word] |= matrix[:, c] << np.uint64(bit)
        if bit + width > PLANE_BITS:  # the field's high bits spill over
            keys[word + 1] |= matrix[:, c] >> np.uint64(PLANE_BITS - bit)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
    planes = pack_planes(matrix[order], width).reshape(m * width, -1)
    shifted = planes >> np.uint64(1)
    shifted[:, :-1] |= planes[:, 1:] << np.uint64(PLANE_BITS - 1)
    shifted ^= planes
    differs = unpack_bits(np.bitwise_or.reduce(shifted, axis=0), n)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = differs[:-1]
    return order, starts


def magnitude_planes(
    a_values: np.ndarray, b_planes_k: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bit-magnitude ripple of one column, whole planes at a time.

    ``a_values`` is ``(c,)`` translated stream values, ``b_planes_k``
    the ``(width, n_words)`` planes of the resident column.  Rips the
    EQ / GT / LT state MSB-first exactly as the
    :class:`~repro.bitlevel.cells.MagnitudeChain` does: a lane
    still EQ whose bits differ resolves by the ``a`` bit.  Returns the
    packed ``(eq, gt, lt)`` state planes, each ``(c, n_words)``.
    """
    c = a_values.shape[0]
    n_words = b_planes_k.shape[1]
    a_bits = _bit_planes(a_values.reshape(c, 1), width)[0]
    eq = np.full((n_words, c), _ALL, dtype=np.uint64)
    gt = np.zeros_like(eq)
    lt = np.zeros_like(eq)
    resolved = np.empty_like(eq)
    to_gt = np.empty_like(eq)
    a_mask = np.empty(c, dtype=np.uint64)
    for p in range(width):
        np.negative(a_bits[p], dtype=np.uint64, out=a_mask)
        # The lanes still EQ whose bits differ here ...
        np.bitwise_xor(b_planes_k[p, :, None], a_mask, out=resolved)
        np.bitwise_and(resolved, eq, out=resolved)
        np.bitwise_xor(eq, resolved, out=eq)
        # ... go GT where the a bit is set, LT where it is clear.
        np.bitwise_and(resolved, a_mask, out=to_gt)
        np.bitwise_or(gt, to_gt, out=gt)
        np.bitwise_xor(resolved, to_gt, out=resolved)
        np.bitwise_or(lt, resolved, out=lt)
    return eq.T, gt.T, lt.T


#: Comparison op code → verdict plane from the rippled (eq, gt, lt)
#: state, matching :data:`repro.relational.algebra.COMPARISON_OPS`.
PLANE_OPS = {
    "==": lambda eq, gt, lt: eq,
    "!=": lambda eq, gt, lt: ~eq,
    "<": lambda eq, gt, lt: lt,
    "<=": lambda eq, gt, lt: lt | eq,
    ">": lambda eq, gt, lt: gt,
    ">=": lambda eq, gt, lt: gt | eq,
}


def plane_op(op: str):
    try:
        return PLANE_OPS[op]
    except KeyError:
        raise SimulationError(
            f"unknown comparison operator {op!r}; have {sorted(PLANE_OPS)}"
        ) from None


def plane_equal_matrix(
    a_values: Sequence[int], b_values: Sequence[int]
) -> tuple[np.ndarray, int]:
    """Boolean equality matrix ``a[i] == b[j]`` via packed planes.

    Returns ``(matrix, planes)`` where ``planes`` counts the bit planes
    the kernel swept (``width``, the work unit the bitplane engine
    meters).
    """
    a = np.asarray(a_values, dtype=np.int64)
    b = np.asarray(b_values, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.size, b.size), dtype=bool), 0
    (a_s, b_s), width = plane_shift_width(a, b)
    b_planes = pack_planes(b_s.reshape(-1, 1), width)
    packed = equality_planes(a_s.reshape(-1, 1), b_planes, width)
    return unpack_bits(packed, b.size), width


def plane_three_way(
    a_values: Sequence[int],
    b_values: Sequence[int],
    width: Optional[int] = None,
) -> np.ndarray:
    """Element-wise three-way compare (−1 / 0 / +1) via the ripple.

    The vectorized counterpart of
    :func:`repro.bitlevel.arrays.bit_level_three_way_compare`: each
    ``(a[i], b[i])`` pair resolves by the same MSB-first EQ/GT/LT state
    machine, evaluated one packed plane per bit position.  ``width``
    (when given) must hold every translated value.
    """
    a = np.asarray(a_values, dtype=np.int64)
    b = np.asarray(b_values, dtype=np.int64)
    if a.shape != b.shape:
        raise SimulationError(
            f"three-way compare needs matched shapes, got {a.shape} "
            f"vs {b.shape}"
        )
    if a.size == 0:
        return np.zeros(0, dtype=np.int64)
    (a_s, b_s), data_width = plane_shift_width(a, b)
    if width is None:
        width = data_width
    elif width < data_width:
        raise SimulationError(
            f"width {width} cannot hold {data_width}-bit translated "
            f"values"
        )
    if width > PLANE_BITS:
        raise SimulationError(
            f"plane width must be in [1, {PLANE_BITS}], got {width}"
        )
    b_planes = pack_planes(b_s.reshape(-1, 1), width)[0]
    # Pair i compares against resident lane i: ripple each stream value
    # against the diagonal of the resident planes.  Packing keeps the
    # kernel identical; only lane i of row i is read back.
    eq, gt, lt = magnitude_planes(a_s, b_planes, width)
    n = a.size
    gt_diag = np.diagonal(unpack_bits(gt, n))
    lt_diag = np.diagonal(unpack_bits(lt, n))
    return gt_diag.astype(np.int64) - lt_diag.astype(np.int64)
