"""The chunk pool behind ``StoredRelation.read``.

Every scan reads its chunks through one process-wide LRU of size-checked
blocks, which keeps a block at its second miss.  Whatever the pool
holds, a read must return exactly what a numpy filter of the chunk files
returns, bill the same chunks, serve no block of one manifest version to
another, and never admit a torn chunk.  The budget is a module constant;
the fixture below swaps in pools of other budgets so that admission and
eviction can be driven from a test.
"""

from __future__ import annotations

import json
import operator
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.errors import StoreError
from repro.relational.domain import IntegerDomain
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.store import CHUNK_POOL_BYTES, RelationStore, pool_info
from repro.store import columnar

_INT = IntegerDomain("int")
SCHEMA = Schema.of(("c0", _INT), ("c1", _INT), ("c2", _INT))

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

ROWS = 300
CHUNK_ROWS = 64  # four chunks of 64 rows and one of 44
CHUNK_BYTES = CHUNK_ROWS * 3 * 8
LAST_CHUNK_BYTES = (ROWS % CHUNK_ROWS) * 3 * 8

#: large; smaller than any chunk (nothing is admitted); two chunks
#: (a scan of more than two chunks keeps none of them).
BUDGETS = {
    "large": CHUNK_POOL_BYTES,
    "below one chunk": LAST_CHUNK_BYTES - 8,
    "two chunks": 2 * CHUNK_BYTES,
}


@pytest.fixture(params=sorted(BUDGETS))
def pool(request, monkeypatch):
    pool = columnar._ChunkPool(BUDGETS[request.param])
    monkeypatch.setattr(columnar, "_POOL", pool)
    return pool


@pytest.fixture
def large_pool(monkeypatch):
    pool = columnar._ChunkPool(CHUNK_POOL_BYTES)
    monkeypatch.setattr(columnar, "_POOL", pool)
    return pool


def _rows(seed: int = 5, n: int = ROWS) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, 40, n), rng.integers(-50, 50, n), np.arange(n)],
        axis=1,
    )


def _on_disk(handle) -> np.ndarray:
    """Every chunk file of ``handle``, read with ``np.fromfile``."""
    blocks = [
        np.fromfile(handle.path / chunk.file, dtype="<i8")
        .reshape(handle.arity, chunk.rows).T
        for chunk in handle.chunks
    ]
    return np.concatenate(blocks)


def _read_twice(handle, selection=None):
    """Read ``selection`` until the pool keeps its blocks."""
    handle.read(selection)
    return handle.read(selection)


def _truncate(handle, chunk_id: int, by: int = 8) -> None:
    target = handle.path / handle.chunks[chunk_id].file
    target.write_bytes(target.read_bytes()[:-by])


class TestReadsEqualAFilterOfTheFiles:
    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_every_op_selective_and_full_first_kept_and_warm(
        self, tmp_path, pool, op
    ):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS,
        )
        whole = _on_disk(handle)
        value = 20
        expected = whole[_OPS[op](whole[:, 0], value)]
        survivors = handle.select_chunks("c0", op, value)
        for temperature in ("first", "kept", "warm"):
            before = pool.info()
            full = handle.read()
            scan = handle.read(("c0", op, value))
            np.testing.assert_array_equal(full.relation.array, whole)
            np.testing.assert_array_equal(scan.relation.array, expected)
            assert (full.chunks_read, full.rows_scanned, full.nbytes) == (
                handle.n_chunks, ROWS, ROWS * 3 * 8
            ), temperature
            assert scan.chunks_read == len(survivors)
            assert scan.rows_scanned == sum(
                handle.chunks[i].rows for i in survivors
            )
            after = pool.info()
            assert after["resident_bytes"] <= pool.budget
            loads = after["misses"] - before["misses"]
            served = after["hits"] - before["hits"]
            assert loads + served == handle.n_chunks + len(survivors)
            if pool.budget == CHUNK_POOL_BYTES:
                # Once the full scan's matrix is kept it serves the
                # selective scan's chunks too.
                assert loads == {
                    "first": handle.n_chunks + len(survivors),
                    "kept": handle.n_chunks,
                    "warm": 0,
                }[temperature]
            elif pool.budget < LAST_CHUNK_BYTES:
                assert served == 0 and after["blocks"] == 0
                assert after["evictions"] == 0  # never admitted
            elif len(survivors) > 2:
                assert after["blocks"] == 0  # both scans exceed the budget

    def test_scans_within_the_budget_evict_and_larger_ones_keep_nothing(
        self, tmp_path, monkeypatch
    ):
        pool = columnar._ChunkPool(BUDGETS["two chunks"])
        monkeypatch.setattr(columnar, "_POOL", pool)
        # No index, so chunk i holds c2 = 64 i, ..., 64 i + 63.
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        whole = _on_disk(handle)
        for op, value, chunk_id in (
            ("<", 64, 0), (">=", 256, 4), ("==", 130, 2),
        ):
            scan = _read_twice(handle, ("c2", op, value))
            np.testing.assert_array_equal(
                scan.relation.array, whole[_OPS[op](whole[:, 2], value)]
            )
            assert (handle._serial, chunk_id) in pool._blocks
        assert pool.info()["evictions"] == 1
        resident = {(handle._serial, 4), (handle._serial, 2)}
        assert set(pool._blocks) == resident
        # A full scan and a selective one over all five chunks are each
        # larger than the budget: they push nothing out, not even for
        # chunks whose keys an earlier scan noted.
        handle.read(("c2", "<", 128))  # notes chunks 0 and 1
        np.testing.assert_array_equal(_read_twice(handle).relation.array,
                                      whole)
        np.testing.assert_array_equal(
            _read_twice(handle, ("c2", ">=", 0)).relation.array, whole
        )
        assert set(pool._blocks) == resident
        assert pool.info()["evictions"] == 1

    def test_one_chunk_full_scan_is_the_pooled_block(
        self, tmp_path, large_pool
    ):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(n=50), SCHEMA, chunk_rows=CHUNK_ROWS,
        )
        first = _read_twice(handle).relation.array
        second = handle.read().relation.array
        assert np.shares_memory(first, second)
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, _on_disk(handle))

    def test_a_block_is_kept_at_its_second_miss(self, tmp_path, large_pool):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        selection = ("c2", "<", 64)  # chunk 0
        seen = []
        for _ in range(3):
            handle.read(selection)
            info = large_pool.info()
            seen.append((info["misses"], info["hits"], info["blocks"]))
        assert seen == [(1, 0, 0), (2, 0, 1), (2, 1, 1)]

    def test_the_noted_keys_fit_the_budget(self, tmp_path, monkeypatch):
        pool = columnar._ChunkPool(BUDGETS["two chunks"])
        monkeypatch.setattr(columnar, "_POOL", pool)
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(n=4 * CHUNK_ROWS), SCHEMA, chunk_rows=CHUNK_ROWS,
        )
        for chunk_id in range(4):
            columnar._POOL.block(handle, chunk_id)[0]
        # Chunks 0 and 1 were noted first and forgotten first.
        columnar._POOL.block(handle, 0)[0]
        columnar._POOL.block(handle, 3)[0]
        assert set(pool._blocks) == {(handle._serial, 3)}
        # A matrix larger than the budget is not noted, so it forgets
        # no other key.
        handle.read()
        columnar._POOL.block(handle, 0)[0]
        assert set(pool._blocks) == {(handle._serial, 3), (handle._serial, 0)}

    def test_a_full_scan_keeps_one_matrix_in_place_of_the_chunks(
        self, tmp_path, large_pool
    ):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        selected = _read_twice(handle, ("c2", "<", 128))  # chunks 0, 1
        assert large_pool.info()["resident_bytes"] == 2 * CHUNK_BYTES
        handle.read()
        first = handle.read()
        # Twice two chunks came from the pool, three from their files.
        assert large_pool.info()["misses"] == 4 + 2 * 3
        assert large_pool.info()["blocks"] == 1
        assert large_pool.info()["resident_bytes"] == ROWS * 24
        second = handle.read()
        assert np.shares_memory(first.relation.array, second.relation.array)
        np.testing.assert_array_equal(second.relation.array, _on_disk(handle))
        # Chunks are served as slices of the matrix from now on.
        again = handle.read(("c2", "<", 128))
        np.testing.assert_array_equal(again.relation.array,
                                      selected.relation.array)
        assert large_pool.info()["misses"] == 4 + 2 * 3

    def test_an_empty_relation_reads_no_chunk(self, tmp_path, large_pool):
        handle = RelationStore(tmp_path).write_array(
            "R", np.empty((0, 3), dtype=np.int64), SCHEMA
        )
        assert handle.read().relation.array.shape == (0, 3)
        assert large_pool.info()["misses"] == 0


class TestVersions:
    def _same_manifest_pair(self):
        """Two row sets with the same zone maps, distinct counts, no
        index and the same chunk row counts: their manifests differ only
        in the chunks' CRC32s, so written without them (as an older
        writer did) they are byte-identical."""
        old = np.array([
            [0, 0], [1, 5], [9, 9], [10, 10], [12, 11], [20, 20],
        ])
        new = np.array([
            [0, 0], [5, 1], [9, 9], [10, 10], [11, 12], [20, 20],
        ])
        return old, new

    @staticmethod
    def _without_checksums(store, name):
        """Rewrite ``name``'s manifest as an older writer did, without
        the chunks' CRC32s; returns the handle of the rewritten one."""
        path = store.root / name / "manifest.json"
        manifest = json.loads(path.read_text())
        for chunk in manifest["chunks"]:
            del chunk["crc32"]
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        return store.open(name)

    def test_a_rewrite_with_an_identical_manifest_reads_the_new_rows(
        self, tmp_path, large_pool
    ):
        schema = Schema.of(("a", _INT), ("b", _INT))
        old, new = self._same_manifest_pair()
        store = RelationStore(tmp_path)
        store.write_array("R", old, schema, chunk_rows=3, index_columns=())
        first = self._without_checksums(store, "R")
        for _ in range(2):  # the second read keeps the blocks
            np.testing.assert_array_equal(first.read().relation.array, old)
        # A rewrite names new chunk files, so only a drop and a first
        # write give the new rows the old manifest's bytes; another store
        # does both, so ``first`` stays cached and its blocks pooled.
        other = RelationStore(tmp_path)
        other.drop("R")
        other.write_array("R", new, schema, chunk_rows=3, index_columns=())
        second = self._without_checksums(store, "R")
        assert second.digest == first.digest
        np.testing.assert_array_equal(store.open("R").read().relation.array,
                                      new)
        np.testing.assert_array_equal(
            store.open("R").read(("b", "<", 10)).relation.array, new[:3]
        )

    def test_a_rewrite_by_another_store_is_seen_through_find(
        self, tmp_path, large_pool
    ):
        schema = Schema.of(("a", _INT), ("b", _INT))
        old, new = self._same_manifest_pair()
        store = RelationStore(tmp_path)
        store.write_array("R", old, schema, chunk_rows=3, index_columns=())
        store.open("R").read()
        RelationStore(tmp_path).write_array("R", new, schema, chunk_rows=3,
                                            index_columns=())
        np.testing.assert_array_equal(store.open("R").read().relation.array,
                                      new)


    @pytest.mark.parametrize("change", ["rewrite", "drop", "drop and write"])
    def test_a_handle_opened_before_a_rewrite_or_drop_says_so(
        self, tmp_path, large_pool, change
    ):
        """A handle reads its own version's chunk files until a rewrite
        or a drop through another store deletes them; then its read is
        refused as stale — not as a missing file, and not as a torn or
        corrupt chunk, even when a first write after the drop has put
        same-sized chunks under the old names."""
        store = RelationStore(tmp_path)
        store.write_array("R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS)
        handle = store.open("R")
        other = RelationStore(tmp_path)
        if change.startswith("drop"):
            other.drop("R")
        if change != "drop":
            other.write_array("R", _rows(seed=6), SCHEMA,
                              chunk_rows=CHUNK_ROWS)
        with pytest.raises(
            StoreError, match="'R' was rewritten or dropped after this "
            "handle was opened",
        ):
            handle.read()


class TestRelease:
    def test_drop_and_rewrite_bring_resident_bytes_down(
        self, tmp_path, large_pool
    ):
        store = RelationStore(tmp_path)
        store.write_array("R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS)
        s = store.write_array("S", _rows(n=64), SCHEMA, chunk_rows=CHUNK_ROWS)
        _read_twice(s)
        s_bytes = large_pool.info()["resident_bytes"]
        assert s_bytes == CHUNK_BYTES
        old = store.open("R")
        _read_twice(old)
        assert large_pool.info()["resident_bytes"] == s_bytes + ROWS * 24
        store.write_array("R", _rows(seed=6), SCHEMA, chunk_rows=CHUNK_ROWS)
        assert large_pool.info()["resident_bytes"] == s_bytes
        new = store.open("R")
        _read_twice(new, ("c0", "<", 10))
        assert large_pool.info()["resident_bytes"] > s_bytes
        store.drop("R")
        assert large_pool.info()["resident_bytes"] == s_bytes
        store.drop("S")
        assert large_pool.info() == {
            **large_pool.info(), "resident_bytes": 0, "blocks": 0,
        }

    def test_find_replacing_a_stale_handle_releases_it(
        self, tmp_path, large_pool
    ):
        store = RelationStore(tmp_path)
        store.write_array("R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS)
        stale = store.open("R")
        _read_twice(stale)
        assert large_pool.info()["resident_bytes"] == ROWS * 24
        RelationStore(tmp_path).write_array(
            "R", _rows(n=64), SCHEMA, chunk_rows=CHUNK_ROWS
        )
        assert store.open("R") is not stale
        assert large_pool.info()["resident_bytes"] == 0
        # The new version's handle is admitted as usual.
        _read_twice(store.open("R"))
        assert large_pool.info()["resident_bytes"] == CHUNK_BYTES


class TestThreads:
    THREADS = 8
    SELECTIONS = (
        None, ("c0", "==", 7), ("c1", "<", 0), ("c0", ">=", 30),
        ("c2", "!=", 5), None, ("c1", ">", 20), ("c0", "<=", 3),
    )

    @pytest.mark.parametrize("budget", ["large", "two chunks"])
    def test_mixed_reads_match_a_serial_run(
        self, tmp_path, monkeypatch, budget
    ):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS,
        )
        serial = [handle.read(s).relation.array for s in self.SELECTIONS]
        # The threads start on an empty pool, so they also race to load.
        pool = columnar._ChunkPool(BUDGETS[budget])
        monkeypatch.setattr(columnar, "_POOL", pool)
        start = threading.Barrier(self.THREADS)
        answers: dict[int, list] = {}
        peaks: list[int] = []
        failures: list[BaseException] = []

        def worker(thread: int) -> None:
            try:
                start.wait()
                got = []
                for turn in range(6):
                    i = (thread + turn) % len(self.SELECTIONS)
                    got.append((i, handle.read(self.SELECTIONS[i])))
                    peaks.append(pool.info()["resident_bytes"])
                answers[thread] = got
            except BaseException as exc:  # reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the pool
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                # A hang guard: the threads' reads take well under a
                # second; the assert below names a hang.
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(answers) == self.THREADS
        for got in answers.values():
            for i, scan in got:
                np.testing.assert_array_equal(scan.relation.array, serial[i])
        assert max(peaks) <= pool.budget
        # A lost update of the table or a counter breaks these.
        info = pool.info()
        assert info["resident_bytes"] == sum(
            block.nbytes for block in pool._blocks.values()
        )
        assert info["hits"] + info["misses"] == sum(
            scan.chunks_read for got in answers.values() for _, scan in got
        )


class TestTornChunks:
    @pytest.mark.parametrize(
        "selection", [None, ("c0", ">=", 0), ("c0", "==", 129)],
        ids=["full", "selective", "no match"],
    )
    def test_a_torn_chunk_raises_every_time_and_is_never_admitted(
        self, tmp_path, large_pool, selection
    ):
        # Chunk 1 holds c0 = 128, 130, ..., 254: its zone map admits 129,
        # which no row holds.
        rows = np.stack([np.arange(ROWS) * 2, np.arange(ROWS) % 7,
                         np.arange(ROWS)], axis=1)
        handle = RelationStore(tmp_path).write_array(
            "R", rows, SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        _truncate(handle, 1)
        for _ in range(3):
            with pytest.raises(
                StoreError,
                match=r"chunk chunk-00001\.bin of 'R' holds 191 elements, "
                      r"manifest says 192",
            ):
                handle.read(selection)
        assert (handle._serial, 1) not in large_pool._blocks
        assert (handle._serial, None) not in large_pool._blocks
        assert large_pool.info()["misses"] >= 3


class TestChecksums:
    """A chunk file whose bytes changed after the write — its size
    intact, so the size check cannot tell — fails the CRC32 the manifest
    recorded for it."""

    @staticmethod
    def _flip_a_byte(handle, chunk_id: int) -> None:
        target = handle.path / handle.chunks[chunk_id].file
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))

    @pytest.mark.parametrize(
        "selection", [None, ("c0", ">=", 0)], ids=["full", "selective"],
    )
    def test_a_flipped_byte_raises_is_never_admitted_and_a_rewrite_heals(
        self, tmp_path, large_pool, selection
    ):
        store = RelationStore(tmp_path)
        rows = _rows()
        handle = store.write_array(
            "R", rows, SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        self._flip_a_byte(handle, 2)
        for _ in range(3):
            with pytest.raises(
                StoreError,
                match=r"chunk chunk-00002\.bin of 'R' fails its CRC32 check",
            ):
                handle.read(selection)
        assert (handle._serial, 2) not in large_pool._blocks
        assert (handle._serial, 2) not in large_pool._noted
        assert (handle._serial, None) not in large_pool._blocks

        healed = store.write_array(
            "R", rows, SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        # Every row has c0 >= 0: both scans read the whole relation.
        assert _read_twice(healed, selection).relation == Relation(
            SCHEMA, rows
        )

    def test_a_manifest_without_checksums_is_read_unchecked(
        self, tmp_path, large_pool
    ):
        """An older directory records no CRC32: its chunks are read as
        they are, the size check alone guarding them."""
        store = RelationStore(tmp_path)
        handle = store.write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS, index_columns=(),
        )
        manifest_path = handle.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for chunk in manifest["chunks"]:
            del chunk["crc32"]
        manifest_path.write_text(json.dumps(manifest))
        self._flip_a_byte(handle, 2)
        older = RelationStore(tmp_path).open("R")
        assert all(chunk.crc32 is None for chunk in older.chunks)
        # The flip lands in column c1; c2 keeps every row distinct.
        read = older.read().relation
        assert len(read) == ROWS and read != Relation(SCHEMA, _rows())

    def test_each_chunk_records_the_crc32_of_its_file(self, tmp_path):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS,
        )
        assert [chunk.crc32 for chunk in handle.chunks] == [
            zlib.crc32((handle.path / chunk.file).read_bytes())
            for chunk in handle.chunks
        ]


class TestChunkColumn:
    """One column of a chunk, read as the pool's size-checked block."""

    def test_a_column_is_a_read_only_view_of_the_checked_block(
        self, tmp_path, large_pool
    ):
        handle = RelationStore(tmp_path).write_array(
            "R", _rows(), SCHEMA, chunk_rows=CHUNK_ROWS,
        )
        columnar._POOL.block(handle, 2)[1]
        column = columnar._POOL.block(handle, 2)[1]
        chunk = handle.chunks[2]
        raw = np.fromfile(handle.path / chunk.file, dtype="<i8")
        np.testing.assert_array_equal(
            column, raw[chunk.rows:2 * chunk.rows]
        )
        assert not column.flags.writeable
        assert large_pool.info()["misses"] == 2
        handle.read()
        assert large_pool.info()["misses"] == 2 + handle.n_chunks - 1

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "last"])
    def test_a_truncated_chunk_is_refused_for_every_column(
        self, tmp_path, large_pool, position
    ):
        """A memory map of the last column overran the file, and one of
        the first column read the torn chunk without a word."""
        rows = np.stack([np.arange(10), np.arange(10) * 3], axis=1)
        handle = RelationStore(tmp_path).write_array(
            "R", rows, Schema.of(("a", _INT), ("b", _INT)), chunk_rows=4,
        )
        _truncate(handle, 1)
        with pytest.raises(
            StoreError,
            match=r"chunk chunk-00001\.bin of 'R' holds 7 elements, "
                  r"manifest says 8",
        ):
            columnar._POOL.block(handle, 1)[position]


def test_the_budget_is_a_constant_reported_by_pool_info():
    assert CHUNK_POOL_BYTES == 64 << 20
    info = pool_info()
    assert info["budget_bytes"] == CHUNK_POOL_BYTES
    assert set(info) == {
        "hits", "misses", "evictions", "blocks", "resident_bytes",
        "budget_bytes",
    }
