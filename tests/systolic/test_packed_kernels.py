"""The word-level comparator kernels above the packed-key floor.

The lattice engine compares an all-equality block of at least
``_PACK_MIN_ELEMENTS`` elements as one packed key a row
(``relation._packed_key`` over A∪B, in the narrowest signed dtype that
holds the columns' joint span); below the floor, or for θ-ops, it sweeps
the columns one by one.  The equivalence suites run almost entirely
below the floor, so this file holds the packed kernel — at sizes above
it — to the column sweep, to the bitplane engine and to the software
algebra, with operands built to sit on the dtype edges: joint spans of
2⁷, 2¹⁵, 2³¹ and 2⁶³ values, one below and one above, negative minima
and the int64 extremes.  It also holds the bitplane engine to its
``chunk_bytes`` budget on a whole-array grid.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import systolic_intersection, systolic_join
from repro.obs import metrics
from repro.relational import Domain, Relation, Schema, algebra
from repro.relational.relation import _packed_key
from repro.systolic.engine import BitplaneEngine, LatticeEngine
from repro.systolic.engine import lattice
from repro.workloads import overlapping_pair

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
_MASK64 = (1 << 64) - 1

#: Signed key dtypes, narrowest first, and the largest key each holds.
KEY_DTYPES = ((np.int8, 127), (np.int16, 32_767), (np.int32, 2**31 - 1),
              (np.int64, 2**63 - 1))

_DOMAIN = Domain("pk")  # any int64


@st.composite
def edge_boxes(draw):
    """Per-column ``(minimum, width)`` whose widths multiply to just
    below, exactly at, or just above a packed-key dtype edge."""
    arity = draw(st.integers(1, 4))
    edge = draw(st.sampled_from((7, 15, 31, 63)))
    cuts = sorted(draw(st.lists(
        st.integers(0, edge), min_size=arity - 1, max_size=arity - 1
    )))
    widths = [1 << (hi - lo) for lo, hi in zip([0, *cuts], [*cuts, edge])]
    column = draw(st.integers(0, arity - 1))
    nudge = draw(st.sampled_from((-1, 0, 1)))
    if widths[column] + nudge >= 1:
        widths[column] += nudge
    lows = [
        draw(st.one_of(
            st.just(INT64_MIN),                      # the bottom word
            st.just(INT64_MAX - width + 1),          # reaches the top
            st.integers(INT64_MIN, INT64_MAX - width + 1),
        ))
        for width in widths
    ]
    return lows, widths


def offsets_above_the_floor(widths, seed):
    """Offsets of A's and B's rows inside the box: enough rows for
    ``n_a · n_b · m`` to reach the floor, row 0 of A at every minimum
    and row 1 at every maximum (so the data span *is* the box), half of
    B repeated from A (so tuples match)."""
    arity = len(widths)
    n = math.isqrt(lattice._PACK_MIN_ELEMENTS // arity) + 1
    rng = np.random.default_rng(seed)

    def fresh(rows):
        return np.stack([
            rng.integers(0, width, size=rows, dtype=np.uint64)
            for width in widths
        ], axis=1)

    a = fresh(n)
    a[0] = 0
    a[1] = [width - 1 for width in widths]
    b = np.concatenate((a[rng.integers(0, n, size=n // 2)], fresh(n - n // 2)))
    rng.shuffle(b)
    return a, b


def placed(offsets, lows):
    """The int64 values ``low + offset`` (exact: each lies in the box)."""
    base = np.array([low & _MASK64 for low in lows], dtype=np.uint64)
    return (offsets + base).view(np.int64)


def mixed_radix(offsets, widths):
    """Each row's rank in the box, in Python ints."""
    keys = []
    for row in offsets.tolist():
        key = 0
        for digit, width in zip(row, widths):
            key = key * width + digit
        keys.append(key)
    return keys


class TestPackedKey:
    @settings(max_examples=80, deadline=None)
    @given(box=edge_boxes(), seed=st.integers(0, 2**32 - 1))
    def test_exact_keys_in_the_narrowest_dtype(self, box, seed):
        lows, widths = box
        a_off, b_off = offsets_above_the_floor(widths, seed)
        both = np.concatenate((a_off, b_off))
        key = _packed_key(placed(both, lows))
        span = math.prod(widths)
        if span > 1 << 63:
            assert key is None
            return
        dtype = next(t for t, top in KEY_DTYPES if span - 1 <= top)
        assert key.dtype == dtype
        assert key.tolist() == mixed_radix(both, widths)

    @pytest.mark.parametrize("edge", (7, 15, 31, 63))
    @pytest.mark.parametrize("delta", (-1, 0, 1))
    def test_one_value_either_side_of_each_edge(self, edge, delta):
        """A span of ``2**edge`` values fits the signed ``edge + 1``-bit
        dtype exactly; one more needs the next (or, past 2⁶³, none)."""
        span = (1 << edge) + delta
        offsets = [0, span - 1, 1, span // 2]
        for low in (INT64_MIN, -(span // 2), INT64_MAX - span + 1):
            key = _packed_key(
                np.array([[low + d] for d in offsets], dtype=np.int64)
            )
            if span > 1 << 63:
                assert key is None
                continue
            dtype = next(t for t, top in KEY_DTYPES if span - 1 <= top)
            assert key.dtype == dtype and key.tolist() == offsets

    def test_constant_and_empty_columns(self):
        rows = np.array([[5, -1], [5, -1], [5, -1]], dtype=np.int64)
        assert _packed_key(rows).tolist() == [0, 0, 0]
        assert _packed_key(np.empty((2, 0), dtype=np.int64)).tolist() == [0, 0]

    def test_a_column_of_every_int64_overflows(self):
        rows = np.array([[INT64_MIN], [INT64_MAX]], dtype=np.int64)
        assert _packed_key(rows) is None
        # 2**63 values exactly: the widest span a key holds.
        half = np.array([[0, INT64_MIN], [1, -1]], dtype=np.int64)
        assert _packed_key(half[:, 1:]).tolist() == [0, INT64_MAX]


class TestKernels:
    """Packed == column sweep == bitplane == algebra, above the floor."""

    @settings(max_examples=60, deadline=None)
    @given(box=edge_boxes(), seed=st.integers(0, 2**32 - 1))
    def test_equality_verdicts(self, box, seed):
        lows, widths = box
        a_off, b_off = offsets_above_the_floor(widths, seed)
        A, B = placed(a_off, lows), placed(b_off, lows)
        assert A.shape[0] * B.shape[0] * A.shape[1] >= (
            lattice._PACK_MIN_ELEMENTS
        )
        want = (A[:, None, :] == B[None, :, :]).all(axis=2)
        packed = LatticeEngine()._verdict_matrix(A, B, None)
        assert np.array_equal(packed, want)
        assert np.array_equal(
            LatticeEngine()._verdict_matrix(A, B, ("==",) * A.shape[1]),
            want,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "_PACK_MIN_ELEMENTS", 1 << 62)
            swept = LatticeEngine()._verdict_matrix(A, B, None)
        assert np.array_equal(swept, want)
        assert np.array_equal(BitplaneEngine()._verdict_matrix(A, B, None),
                              want)

        schema = Schema.of(*((f"c{k}", _DOMAIN) for k in range(A.shape[1])))
        a, b = Relation(schema, A), Relation(schema, B)
        on = [(f"c{k}", f"c{k}") for k in range(A.shape[1])]
        expected = algebra.join(a, b, on)
        for backend in ("lattice", "bitplane"):
            assert systolic_join(a, b, on, backend=backend).relation == (
                expected
            )
            assert systolic_intersection(a, b, backend=backend).relation == (
                algebra.intersection(a, b)
            )

    def test_the_floor_and_the_ops_choose_the_path(self, monkeypatch):
        packs = []

        def counting(array):
            packs.append(array.shape)
            return _packed_key(array)

        monkeypatch.setattr(lattice, "_packed_key", counting)
        floor = lattice._PACK_MIN_ELEMENTS
        rows = np.arange(2 * floor, dtype=np.int64).reshape(-1, 2) % 977
        engine = LatticeEngine()
        n = math.isqrt(floor // 2)
        below, above = rows[:n - 1], rows[:n + 1]
        engine._verdict_matrix(below, below, None)
        engine._verdict_matrix(above, above, ("==", "<"))
        assert packs == []
        engine._verdict_matrix(above, above, ("==", "=="))
        engine._verdict_matrix(above, above, None)
        assert packs == [(2 * (n + 1), 2)] * 2

    def test_chunks_are_counted_on_both_paths(self, monkeypatch):
        """``engine.lattice.chunks`` counts the same chunks whichever
        kernel compares them."""
        rows = np.arange(512, dtype=np.int64).reshape(-1, 1)
        engine = LatticeEngine(chunk_bytes=8 * 512 * 100)  # 100-row chunks
        counts = []
        for floor in (0, 1 << 62):
            metrics.reset()
            metrics.enable()
            monkeypatch.setattr(lattice, "_PACK_MIN_ELEMENTS", floor)
            try:
                engine._verdict_matrix(rows, rows, None)
                counts.append(metrics.counter("engine.lattice.chunks"))
            finally:
                metrics.disable()
                metrics.reset()
        assert counts == [6, 6]


def test_bitplane_chunk_bytes_bound_a_whole_array_grid():
    """A 4096 × 4096 equi-join on all three columns under 4 MB of
    ``chunk_bytes``: beside the verdict matrix itself, what the bitplane
    kernel holds at once stays within the budget (each verdict lane
    unpacked is a byte, so chunks sized by packed planes alone would
    hold 64× too much).  A join reads all of ``T``, so the whole grid
    goes through one dense kernel call."""
    a, b = overlapping_pair(4096, 4096, 1024, arity=3, seed=5)
    on = [(f"c{k}", f"c{k}") for k in range(3)]
    engine = BitplaneEngine(chunk_bytes=4_000_000)
    verdict_bytes = len(a) * len(b)
    tracemalloc.start()
    try:
        result = systolic_join(a, b, on, backend=engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.relation == algebra.join(a, b, on)
    assert peak < verdict_bytes + engine.chunk_bytes + 1_000_000
