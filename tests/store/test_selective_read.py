"""A selective store read against a numpy filter of the chunk files.

``StoredRelation.read(selection)`` compares the predicate column of each
surviving chunk first and copies only the rows that pass.  Whatever it
copies, it must return exactly the rows a whole-chunk read followed by a
numpy filter returns, in the same order, and bill exactly the same
chunks.  The reference below reads the chunk files with ``np.fromfile``
and never touches the store's read path.
"""

from __future__ import annotations

import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreError
from repro.obs import metrics
from repro.relational.domain import IntegerDomain
from repro.relational.schema import Schema
from repro.store import RelationStore

_INT = IntegerDomain("int")

#: numpy's comparisons by another route than the store's ``COLUMN_OPS``.
_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _schema(arity: int) -> Schema:
    return Schema.of(*((f"c{i}", _INT) for i in range(arity)))


def _whole_chunk_read(handle, position, op, value):
    """(rows, rows_scanned, nbytes) of reading every chunk the zone maps
    and grid admit whole, then filtering with a boolean mask."""
    chunk_ids = handle.select_chunks(position, op, value)
    blocks = [
        np.fromfile(handle.path / handle.chunks[i].file, dtype="<i8")
        .reshape(handle.arity, handle.chunks[i].rows).T
        for i in chunk_ids
    ]
    whole = (
        np.concatenate(blocks) if blocks
        else np.empty((0, handle.arity), dtype=np.int64)
    )
    return (
        whole[_OPS[op](whole[:, position], value)],
        len(whole),
        whole.nbytes,
    )


def _drop_distinct(handle) -> RelationStore:
    """The same directory as an older writer left it: no ``distinct``."""
    manifest_path = handle.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["distinct"]
    manifest_path.write_text(json.dumps(manifest))
    return RelationStore(handle.path.parent)


@st.composite
def stored_cases(draw):
    arity = draw(st.integers(1, 4))
    n = draw(st.integers(1, 120))
    spread = draw(st.sampled_from([3, 40, 1000]))
    rows = np.array(
        draw(st.lists(
            st.lists(st.integers(-spread, spread), min_size=arity,
                     max_size=arity),
            min_size=n, max_size=n,
        )),
        dtype=np.int64,
    )
    chunk_rows = draw(st.sampled_from([1, 2, 3, 7, 16, 64, 200]))
    index_columns = draw(st.sampled_from([None, ()]))
    distinct = draw(st.booleans())
    position = draw(st.integers(0, arity - 1))
    op = draw(st.sampled_from(sorted(_OPS)))
    return rows, chunk_rows, index_columns, distinct, position, op


class TestSelectiveReadEqualsAFilter:
    @settings(max_examples=150, deadline=None)
    @given(case=stored_cases(), data=st.data())
    def test_rows_order_and_counters(self, tmp_path_factory, case, data):
        rows, chunk_rows, index_columns, distinct, position, op = case
        store = RelationStore(tmp_path_factory.mktemp("selective"))
        handle = store.write_array(
            "R", rows, _schema(rows.shape[1]), chunk_rows=chunk_rows,
            index_columns=index_columns,
        )
        if not distinct:
            handle = _drop_distinct(handle).open("R")
        assert handle.distinct is distinct
        # Below, at the edges of, inside and above one chunk's zone range.
        lo, hi = data.draw(st.sampled_from(handle.chunks)).stats[position]
        value = data.draw(st.sampled_from(
            [lo - 7, lo - 1, lo, (lo + hi) // 2, hi, hi + 1, hi + 7]
        ))
        expected, rows_scanned, nbytes = _whole_chunk_read(
            handle, position, op, value
        )
        metrics.enable()
        try:
            scan = handle.read((f"c{position}", op, value))
            counted = {
                name: metrics.counter(f"store.{name}")
                for name in ("chunks_read", "chunks_pruned", "bytes_read")
            }
        finally:
            metrics.disable()
            metrics.reset()
        np.testing.assert_array_equal(scan.relation.array, expected)
        assert scan.relation.array.dtype == np.int64
        assert scan.rows_scanned == rows_scanned
        assert scan.nbytes == nbytes
        assert scan.chunks_total == handle.n_chunks
        assert scan.chunks_read == len(
            handle.select_chunks(position, op, value)
        )
        assert counted == {
            "chunks_read": scan.chunks_read,
            "chunks_pruned": scan.chunks_pruned,
            "bytes_read": nbytes,
        }

    @pytest.mark.parametrize("arity", [1, 2, 4])
    @pytest.mark.parametrize("distinct", [True, False])
    def test_a_chunk_the_zone_map_admits_but_no_row_matches(
        self, tmp_path, arity, distinct
    ):
        """The zone map says 0..10, no row holds 5: the chunk is read
        and billed, and nothing comes back."""
        column = np.array([0, 2, 4, 6, 8, 10])
        rows = np.stack([column + 100 * i for i in range(arity)], axis=1)
        handle = RelationStore(tmp_path).write_array(
            "R", rows, _schema(arity), chunk_rows=6, index_columns=()
        )
        if not distinct:
            handle = _drop_distinct(handle).open("R")
        assert handle.chunks[0].stats[0] == (0, 10)
        assert handle.select_chunks("c0", "==", 5) == [0]
        scan = handle.read(("c0", "==", 5))
        assert scan.relation.array.shape == (0, arity)
        assert (scan.chunks_read, scan.rows_scanned, scan.nbytes) == (
            1, 6, 6 * arity * 8
        )

    def test_rows_keep_the_stored_order_across_chunks(self, tmp_path):
        """Survivors come chunk by chunk, each chunk's in row order —
        the order of a full scan."""
        rows = np.stack([np.arange(40) % 7, np.arange(40)], axis=1)
        handle = RelationStore(tmp_path).write_array(
            "R", rows, _schema(2), chunk_rows=6, index_columns=()
        )
        full = handle.read().relation.array
        scan = handle.read(("c0", ">=", 3))
        np.testing.assert_array_equal(
            scan.relation.array, full[full[:, 0] >= 3]
        )
        assert handle.n_chunks == 7 and scan.chunks_read == 7


class TestTornChunkWithNoMatch:
    """The size check runs when the chunk is opened, before its
    predicate column is compared — not only when rows survive."""

    @pytest.mark.parametrize("column", ["c0", "c1"], ids=["first", "last"])
    @pytest.mark.parametrize(
        "resize", [-8, -40, 8], ids=["truncated", "column short", "over-long"]
    )
    def test_a_wrong_size_chunk_is_refused_when_no_row_matches(
        self, tmp_path, column, resize
    ):
        store = RelationStore(tmp_path)
        rows = np.stack([np.arange(10) * 2, np.arange(10) * 3], axis=1)
        handle = store.write_array("R", rows, _schema(2), chunk_rows=4)
        chunk = handle.chunks[1]
        # Inside chunk 1's zone range, held by neither column: admitted, no match.
        lo, hi = chunk.stats[int(column[1])]
        value = next(v for v in range(lo, hi) if v % 2 and v % 3)
        assert value not in rows
        assert 1 in handle.select_chunks(column, "==", value)
        target = handle.path / chunk.file
        data = target.read_bytes()
        target.write_bytes(data[:resize] if resize < 0 else data + b"\0" * 8)
        with pytest.raises(
            StoreError,
            match=rf"chunk chunk-00001\.bin of 'R' holds {8 + resize // 8} "
                  r"elements, manifest says 8",
        ):
            handle.read((column, "==", value))
