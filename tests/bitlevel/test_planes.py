"""The plane layout and sweeps against the formulas they replaced.

``repro.bitlevel.planes`` packs and unpacks planes with numpy's bit
codecs and sweeps them word-major in place.  Before that, each step was
a shift-and-mask formula over ``uint64`` lanes; those formulas are kept
here, verbatim in behaviour, as the reference: every public layout and
sweep function must return exactly what they did — same words, same
padding, same verdict lanes — at the word-boundary sizes (1, 63, 64,
65, 129 tuples) and at every plane width 1–64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitlevel.planes import (
    PLANE_BITS,
    equality_planes,
    magnitude_planes,
    pack_bits,
    pack_planes,
    plane_shift_width,
    unpack_bits,
)

SIZES = (1, 63, 64, 65, 129)
WIDTHS = range(1, PLANE_BITS + 1)

_SHIFTS = np.arange(PLANE_BITS, dtype=np.uint64)
_ONE, _ZERO, _ALL = np.uint64(1), np.uint64(0), ~np.uint64(0)


# -- the shift/reduce formulas the codecs replaced ---------------------------


def old_pack_bits(bits):
    n = bits.shape[0]
    n_words = max(1, -(-n // PLANE_BITS))
    padded = np.zeros(n_words * PLANE_BITS, dtype=np.uint64)
    padded[:n] = bits.astype(np.uint64)
    lanes = padded.reshape(n_words, PLANE_BITS)
    return np.bitwise_or.reduce(lanes << _SHIFTS[None, :], axis=1)


def old_unpack_bits(words, n):
    lanes = (words[..., :, None] >> _SHIFTS) & _ONE
    flat = lanes.reshape(*words.shape[:-1], words.shape[-1] * PLANE_BITS)
    return flat[..., :n].astype(bool)


def old_pack_planes(matrix, width):
    n, m = matrix.shape
    n_words = max(1, -(-n // PLANE_BITS))
    planes = np.empty((m, width, n_words), dtype=np.uint64)
    for k in range(m):
        column = matrix[:, k]
        for p in range(width):
            bit = (column >> np.uint64(width - 1 - p)) & _ONE
            planes[k, p] = old_pack_bits(bit)
    return planes


def old_lane_masks(values, position, width):
    bit = (values >> np.uint64(width - 1 - position)) & _ONE
    return np.where(bit != 0, _ALL, _ZERO)[:, None]


def old_equality_planes(a_matrix, b_planes, width):
    c = a_matrix.shape[0]
    m, _, n_words = b_planes.shape
    neq = np.zeros((c, n_words), dtype=np.uint64)
    for k in range(m):
        for p in range(width):
            neq |= old_lane_masks(a_matrix[:, k], p, width) ^ b_planes[k, p]
    return ~neq


def old_magnitude_planes(a_values, b_planes_k, width):
    c = a_values.shape[0]
    n_words = b_planes_k.shape[1]
    eq = np.full((c, n_words), _ALL, dtype=np.uint64)
    gt = np.zeros((c, n_words), dtype=np.uint64)
    lt = np.zeros((c, n_words), dtype=np.uint64)
    for p in range(width):
        a_mask = old_lane_masks(a_values, p, width)
        diff = a_mask ^ b_planes_k[p][None, :]
        gt |= eq & diff & a_mask
        lt |= eq & diff & ~a_mask
        eq &= ~diff
    return eq, gt, lt


# -- operands ----------------------------------------------------------------


def translated(n, m, width, seed):
    """An ``(n, m)`` matrix of translated values using all ``width``
    bits — zero and the top value included — with repeats, so equal
    and unequal pairs both occur."""
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    pool = np.concatenate((
        np.array([0, top, top >> 1], dtype=np.uint64),
        rng.integers(0, top, size=5, endpoint=True, dtype=np.uint64),
    ))
    return rng.choice(pool, size=(n, m))


def assert_words_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.astype(np.uint64), want)


class TestCodecs:
    @pytest.mark.parametrize("n", SIZES)
    def test_pack_bits(self, n):
        bits = np.random.default_rng(n).integers(0, 2, n).astype(bool)
        assert_words_equal(pack_bits(bits), old_pack_bits(bits))

    @pytest.mark.parametrize("n", SIZES)
    def test_unpack_bits(self, n):
        rng = np.random.default_rng(n)
        n_words = -(-n // PLANE_BITS)
        # Tail lanes set: a ragged last word must not leak past n.
        words = rng.integers(0, 1 << 63, (3, n_words), dtype=np.uint64)
        words |= np.uint64(1 << 63)
        got = unpack_bits(words, n)
        assert got.dtype == bool
        assert np.array_equal(got, old_unpack_bits(words, n))
        assert np.array_equal(unpack_bits(words[0], n),
                              old_unpack_bits(words[0], n))

    @pytest.mark.parametrize("n", SIZES)
    def test_round_trip(self, n):
        bits = np.random.default_rng(n + 1).integers(0, 2, n).astype(bool)
        assert np.array_equal(unpack_bits(pack_bits(bits), n), bits)

    def test_unpack_reads_a_transposed_plane(self):
        """The sweeps hand back ``(c, n_words)`` transposes of their
        word-major state: unpacking must not depend on the layout."""
        words = np.random.default_rng(3).integers(
            0, 1 << 63, (2, 5), dtype=np.uint64
        )
        assert np.array_equal(unpack_bits(words.T, 70),
                              old_unpack_bits(words.T.copy(), 70))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_pack_planes(self, width):
        for n in SIZES:
            matrix = translated(n, 2, width, seed=width * 1000 + n)
            assert_words_equal(pack_planes(matrix, width),
                               old_pack_planes(matrix, width))


class TestSweeps:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_equality_planes(self, width):
        for n in SIZES:
            a = translated(n, 2, width, seed=width * 7 + n)
            b = translated(n, 2, width, seed=width * 11 + n)
            b_planes = old_pack_planes(b, width)
            got = equality_planes(a, b_planes, width)
            assert_words_equal(got, old_equality_planes(a, b_planes, width))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_magnitude_planes(self, width):
        for n in SIZES:
            a = translated(n, 1, width, seed=width * 13 + n)[:, 0]
            b = translated(n, 1, width, seed=width * 17 + n)
            b_planes = old_pack_planes(b, width)[0]
            got = magnitude_planes(a, b_planes, width)
            want = old_magnitude_planes(a, b_planes, width)
            for state, expected in zip(got, want):
                assert_words_equal(state, expected)

    def test_signed_operands_through_the_shift(self):
        """Negative values and the int64 extremes reach the sweeps
        translated by the common minimum: same verdicts as before."""
        lo, hi = -(1 << 63), (1 << 63) - 1
        a = np.array([[lo, 0], [hi, -1], [-5, 7], [lo, hi]], dtype=np.int64)
        b = np.array([[hi, -1], [lo, 0], [-5, 7]], dtype=np.int64)
        (a_s, b_s), width = plane_shift_width(a, b)
        assert width == PLANE_BITS
        b_planes = old_pack_planes(b_s, width)
        assert_words_equal(pack_planes(b_s, width), b_planes)
        assert_words_equal(equality_planes(a_s, b_planes, width),
                           old_equality_planes(a_s, b_planes, width))
