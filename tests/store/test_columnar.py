"""The persistent columnar store: round trips, pruning, durability."""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, RelationError, StoreError
from repro.machine import MachineDisk
from repro.obs import metrics
from repro.relational.domain import Domain, IntegerDomain
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.store import (
    DEFAULT_CHUNK_ROWS,
    RelationStore,
    build_scales,
    cell_coords,
    cluster_order,
    columnar,
)

_INT = IntegerDomain("int")

SMALL = settings(max_examples=30, deadline=None)

#: Full signed-64-bit range, with the extremes always reachable.
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
extreme_rows = st.lists(
    st.tuples(
        st.one_of(int64s, st.sampled_from([-(2**63), 2**63 - 1, 0])),
        int64s,
    ),
    min_size=0,
    max_size=40,
)


def _schema(arity: int) -> Schema:
    return Schema.of(*((f"c{i}", _INT) for i in range(arity)))


class TestRoundTrip:
    @SMALL
    @given(rows=extreme_rows, chunk_rows=st.integers(1, 7))
    def test_write_reopen_read_is_bit_identical(
        self, tmp_path_factory, rows, chunk_rows
    ):
        root = tmp_path_factory.mktemp("store")
        relation = Relation(_schema(2), rows)
        store = RelationStore(root)
        store.write("R", relation, chunk_rows=chunk_rows)
        # A *fresh* store object: nothing survives but the files.
        back = RelationStore(root).open("R").read().relation
        assert back == relation
        assert sorted(back.tuples) == sorted(relation.tuples)

    def test_empty_relation_round_trips(self, tmp_path):
        relation = Relation(_schema(3), ())
        store = RelationStore(tmp_path)
        handle = store.write("empty", relation)
        assert handle.rows == 0
        assert handle.n_chunks == 0
        scan = store.open("empty").read()
        assert scan.relation == relation
        assert scan.chunks_read == scan.chunks_total == 0

    def test_signed_extremes_survive(self, tmp_path):
        rows = [(-(2**63), 2**63 - 1), (0, -1)]
        store = RelationStore(tmp_path)
        store.write("edge", Relation(_schema(2), rows), chunk_rows=1)
        back = store.open("edge").read().relation
        assert sorted(back.tuples) == sorted(rows)

    def test_dictionary_domains_round_trip(self, tmp_path):
        city = Domain("city", ["basel", "pisa", "kyoto"], frozen=True)
        schema = Schema.of(("name", city), ("rank", _INT))
        relation = Relation.from_values(
            schema, [("pisa", 2), ("kyoto", 1)]
        )
        store = RelationStore(tmp_path)
        store.write("T", relation)
        back = RelationStore(tmp_path).open("T")
        assert sorted(back.read().relation.decoded()) == sorted(
            relation.decoded()
        )
        assert [d.name for d in back.schema.domains] == ["city", "int"]
        assert back.schema.column("name").domain.frozen

    def test_shared_domains_stay_shared_after_reload(self, tmp_path):
        shared = Domain("shared", ["x", "y"])
        schema = Schema.of(("a", shared), ("b", shared))
        store = RelationStore(tmp_path)
        store.write("S", Relation.from_values(schema, [("x", "y")]))
        back = RelationStore(tmp_path).open("S").schema
        assert back.column("a").domain is back.column("b").domain


class TestValidation:
    def test_out_of_range_element_raises(self, tmp_path):
        # No relation holds one, so ``write`` is never handed one; the
        # bulk path refuses an array that could.
        with pytest.raises(RelationError, match="64-bit"):
            Relation(_schema(1), [(2**63,)])
        with pytest.raises(StoreError, match="int64"):
            RelationStore(tmp_path).write_array(
                "big", np.array([[2**63]], dtype=np.uint64), _schema(1)
            )

    def test_bad_names_raise(self, tmp_path):
        store = RelationStore(tmp_path)
        relation = Relation(_schema(1), [(1,)])
        for name in ("", "../up", "a/b", ".hidden"):
            with pytest.raises(StoreError, match="name"):
                store.write(name, relation)

    def test_non_json_domain_value_raises(self, tmp_path):
        weird = Domain("weird", [("tu", "ple")])
        schema = Schema.of(("w", weird))
        with pytest.raises(StoreError, match="JSON"):
            RelationStore(tmp_path).write(
                "W", Relation.from_values(schema, [(("tu", "ple"),)])
            )

    def test_missing_relation_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no stored relation"):
            RelationStore(tmp_path).open("ghost")

    def test_corrupt_manifest_raises(self, tmp_path):
        store = RelationStore(tmp_path)
        store.write("R", Relation(_schema(1), [(1,)]))
        (tmp_path / "R" / "manifest.json").write_text("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            RelationStore(tmp_path).open("R")

    def test_store_needs_a_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with pytest.raises(ConfigError, match="REPRO_STORE_DIR"):
            RelationStore()

    def test_env_var_names_the_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-root"))
        store = RelationStore()
        store.write("R", Relation(_schema(1), [(7,)]))
        assert (tmp_path / "env-root" / "R" / "manifest.json").is_file()


class TestCatalogue:
    def test_names_holds_drop(self, tmp_path):
        store = RelationStore(tmp_path)
        r = Relation(_schema(1), [(1,)])
        store.write("B", r)
        store.write("A", r)
        assert store.names() == ["A", "B"]
        assert store.holds("A") and not store.holds("Z")
        store.drop("A")
        assert store.names() == ["B"]
        store.drop("A")  # idempotent

    def test_fingerprint_tracks_rewrites(self, tmp_path):
        history = [[(1,)], [(2,)], [(2,)]]
        roots = [tmp_path / "a", tmp_path / "b"]
        for root in roots:
            store = RelationStore(root)
            digests = []
            for rows in history:
                store.write("R", Relation(_schema(1), rows))
                digests.append(store.fingerprint())
                assert store.open("R").read().relation == Relation(
                    _schema(1), rows
                )
            assert [name for name, _ in digests[-1]] == ["R"]
            # A rewrite names new chunk files, so even one of the same
            # rows is a new manifest and a new digest.
            assert len(set(digests)) == len(history)
        # The same write history gives the same bytes (deterministic names).
        manifests = [(root / "R" / "manifest.json").read_bytes()
                     for root in roots]
        assert manifests[0] == manifests[1]

    def test_a_drop_between_finds_stat_and_read_finds_nothing(
        self, tmp_path, monkeypatch
    ):
        """Another process may drop a relation after ``find`` has seen
        its manifest and before it reads it: ``find`` then finds
        nothing, as it would a moment later."""
        store = RelationStore(tmp_path)
        store.write("R", Relation(_schema(1), [(1,)]))
        manifest = str(tmp_path / "R" / "manifest.json")
        real_stat = os.stat

        def stat_then_drop(path, *args, **kwargs):
            result = real_stat(path, *args, **kwargs)
            if str(path) == manifest:
                monkeypatch.setattr(os, "stat", real_stat)
                RelationStore(tmp_path).drop("R")
            return result

        monkeypatch.setattr(os, "stat", stat_then_drop)
        assert RelationStore(tmp_path).find("R") is None

    def test_default_chunk_rows_is_the_documented_knob(self):
        assert DEFAULT_CHUNK_ROWS == 65536

    def test_two_threads_writing_one_name_take_turns(self, tmp_path):
        """Each write holds the store's lock from its first chunk file to
        its cleanup: no write fails, the survivor is one of the two
        inputs whole, and nothing but its files is left over."""
        store = RelationStore(tmp_path)
        inputs = [
            np.arange(start, start + 400).reshape(-1, 2) for start in (0, 1000)
        ]
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(inputs))

        def writer(rows: np.ndarray) -> None:
            barrier.wait()
            for _ in range(15):
                try:
                    store.write_array("R", rows, _schema(2), chunk_rows=16)
                except Exception as exc:  # noqa: BLE001 — collected, asserted
                    errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(rows,)) for rows in inputs
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                # A hang guard: the small writes take well under a
                # second; the assert below names a hang.
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        final = RelationStore(tmp_path).open("R").read().relation
        assert final in [Relation(_schema(2), rows) for rows in inputs]
        assert [entry.name for entry in tmp_path.iterdir()] == ["R"]
        # The last write's cleanup left only its manifest and chunks.
        handle = RelationStore(tmp_path).open("R")
        named = {chunk.file for chunk in handle.chunks}
        assert {entry.name for entry in (tmp_path / "R").iterdir()} == (
            named | {"manifest.json"}
        )


def _brute(rows: np.ndarray, position: int, op: str, value: int):
    import operator

    ops = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
    return sorted(
        tuple(row) for row in rows.tolist() if ops[op](row[position], value)
    )


class TestPruning:
    def _stored(self, tmp_path, n=4096, chunk_rows=256):
        rng = np.random.default_rng(11)
        rows = np.stack(
            [
                rng.integers(0, 64, n),
                rng.integers(0, 128, n),
                np.arange(n),
            ],
            axis=1,
        )
        store = RelationStore(tmp_path)
        store.write_array(
            "SP", rows, _schema(3), chunk_rows=chunk_rows,
            index_columns=("c0", "c1"),
        )
        return store, rows

    def test_selective_equality_reads_fewer_chunks(self, tmp_path):
        store, rows = self._stored(tmp_path)
        metrics.enable()
        try:
            scan = store.open("SP").read(("c0", "==", 17))
            assert scan.chunks_read < scan.chunks_total
            assert scan.chunks_pruned > 0
            assert metrics.counter("store.chunks_pruned") > 0
            assert metrics.counter("store.index_probes") == 1
            assert metrics.counter("store.bytes_read") == scan.nbytes
            assert sorted(scan.relation.tuples) == _brute(rows, 0, "==", 17)
        finally:
            metrics.disable()
            metrics.reset()

    def test_both_grid_axes_prune(self, tmp_path):
        """Morton clustering means the *second* indexed column prunes
        too, not just the primary sort key."""
        store, rows = self._stored(tmp_path)
        scan = store.open("SP").read(("c1", "<", 16))
        assert scan.chunks_read < scan.chunks_total
        assert sorted(scan.relation.tuples) == _brute(rows, 1, "<", 16)

    def test_zone_maps_answer_unindexed_columns(self, tmp_path):
        store, rows = self._stored(tmp_path)
        handle = store.open("SP")
        # c2 is not grid-indexed; an impossible predicate still prunes
        # every chunk via the per-chunk min/max stats.
        scan = handle.read(("c2", ">", int(rows[:, 2].max())))
        assert scan.chunks_read == 0
        assert len(scan.relation) == 0

    @SMALL
    @given(
        op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        column=st.integers(0, 2),
        value=st.integers(-4, 132),
    )
    def test_pruned_scan_equals_full_scan(
        self, tmp_path_factory, op, column, value
    ):
        """The pruning contract: chunk skipping never changes results."""
        root = tmp_path_factory.mktemp("prune")
        store, rows = self._stored(root, n=1024, chunk_rows=128)
        handle = store.open("SP")
        scan = handle.read((column, op, value))
        assert sorted(scan.relation.tuples) == _brute(rows, column, op, value)

    def test_unknown_operator_raises(self, tmp_path):
        store, _ = self._stored(tmp_path, n=64, chunk_rows=32)
        with pytest.raises(StoreError, match="operator"):
            store.open("SP").read(("c0", "~=", 3))

    def test_an_older_manifests_grid_directory_is_ignored(self, tmp_path):
        """A manifest now records only the columns its rows are clustered
        on.  One written while the store kept a grid directory also
        holds the grid's scales and its cell -> chunks directory in
        ``"index"``: it opens, reads the same rows and keeps the same
        chunks for every probe."""
        store, rows = self._stored(tmp_path)
        handle = store.open("SP")
        path = handle.path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["index"] == {"columns": [0, 1]}
        manifest["index"].update(_grid_directory(handle))
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        older = RelationStore(tmp_path).open("SP")
        assert older.digest != handle.digest
        assert older.clustered_on == handle.clustered_on == (0, 1)
        assert "clustered on [0, 1]" in repr(older)
        assert older.read().relation == handle.read().relation
        for column in range(3):
            for value in np.quantile(rows[:, column], [0, 0.1, 0.5, 0.9, 1]):
                for op in ("==", "!=", "<", "<=", ">", ">="):
                    probe = (column, op, int(value))
                    assert older.select_chunks(*probe) == (
                        handle.select_chunks(*probe)
                    ), probe
                    assert older.read(probe).relation == (
                        handle.read(probe).relation
                    ), probe

    @pytest.mark.parametrize("index", [
        5, [0, 1], {}, {"scales": []}, {"columns": 0}, {"columns": [0, 3]},
        {"columns": [-1]}, {"columns": ["c0"]}, {"columns": [True]},
        {"columns": [1.0]},
    ])
    def test_a_malformed_index_is_refused(self, tmp_path, index):
        """The manifest is outside input: an ``"index"`` that is not null
        or an object listing column positions of the relation is refused
        where it is read, and ``verify`` reports it."""
        store, _ = self._stored(tmp_path, n=64, chunk_rows=32)
        path = store.open("SP").path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["index"] = index
        path.write_text(json.dumps(manifest))
        message = r"manifest for 'SP' has index .*; need null or"
        with pytest.raises(StoreError, match=message):
            RelationStore(tmp_path).open("SP")
        chunks, problems = RelationStore(tmp_path).verify()
        assert chunks == 0 and len(problems) == 1
        assert re.match(message, problems[0])

    @pytest.mark.parametrize("file", [
        "absolute", "../../OUT/chunk-00000.bin", "sub/chunk-00000.bin", "",
    ], ids=["absolute", "dot-dot", "subdirectory", "empty"])
    def test_a_chunk_file_outside_the_writers_pattern_is_refused(
        self, tmp_path, file
    ):
        """The manifest is outside input: a chunk ``"file"`` that is not
        a bare name of the writer's pattern — here one naming a whole,
        well-formed chunk of another relation — is refused where it is
        read, and ``verify`` reports it."""
        root = tmp_path / "root"
        store, _ = self._stored(root, n=64, chunk_rows=32)
        outside = RelationStore(tmp_path).write_array(
            "OUT", np.arange(96).reshape(32, 3), _schema(3), chunk_rows=32
        )
        if file == "absolute":
            file = str(outside.path / outside.chunks[0].file)
        path = store.open("SP").path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["chunks"][0]["file"] = file
        path.write_text(json.dumps(manifest))
        message = r"manifest for 'SP' names chunk file .*; need a name"
        with pytest.raises(StoreError, match=message):
            RelationStore(root).open("SP")
        chunks, problems = RelationStore(root).verify()
        assert chunks == 0 and len(problems) == 1
        assert re.match(message, problems[0])


def _grid_directory(handle) -> dict:
    """The ``"scales"`` and ``"directory"`` a grid-directory writer put
    beside ``"columns"`` for ``handle``'s rows: quantile scales of each
    clustered column, and each occupied cell's sorted chunk ids."""
    columns = handle.read().relation.array.T
    cells = columnar._cells_per_axis(handle.n_chunks, len(handle.clustered_on))
    scales = [
        build_scales(columns[p], cells) for p in handle.clustered_on
    ]
    coords = cell_coords([columns[p] for p in handle.clustered_on], scales)
    chunk_of_row = np.repeat(
        np.arange(handle.n_chunks), [chunk.rows for chunk in handle.chunks]
    )
    directory: dict = {}
    for cell, chunk in zip(coords.tolist(), chunk_of_row.tolist()):
        directory.setdefault(tuple(cell), set()).add(chunk)
    return {
        "scales": [list(axis) for axis in scales],
        "directory": [
            [list(cell), sorted(ids)]
            for cell, ids in sorted(directory.items())
        ],
    }


def _z_order_21_bits(coords: np.ndarray) -> np.ndarray:
    """``cluster_order`` as it was: 21 bits an axis, needed or not."""
    n, ndims = coords.shape
    key = np.zeros(n, dtype=np.uint64)
    unsigned = coords.astype(np.uint64)
    for bit in range(21):
        for d in range(ndims):
            key |= ((unsigned[:, d] >> np.uint64(bit)) & np.uint64(1)) << (
                np.uint64(bit * ndims + d)
            )
    return np.argsort(key, kind="stable")


class TestGridIndex:
    """The grid the writer clusters rows on: quantile scales and the
    Morton order of their cells."""

    def test_scales_are_balanced_quantiles(self):
        values = np.arange(1000)
        scales = build_scales(values, 4)
        assert len(scales) == 3
        assert scales == tuple(sorted(scales))

    def test_single_cell_axis_has_no_scales(self):
        assert build_scales(np.arange(10), 1) == ()

    def test_cluster_order_is_a_permutation(self):
        coords = np.array([[1, 0], [0, 1], [3, 3], [0, 0]])
        order = cluster_order(coords)
        assert sorted(order.tolist()) == [0, 1, 2, 3]

    @SMALL
    @given(
        coords=st.integers(1, 3).flatmap(lambda ndims: st.lists(
            st.lists(st.integers(0, 40), min_size=ndims, max_size=ndims),
            max_size=30,
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, ndims))),
    )
    def test_order_equals_the_21_bit_construction(self, coords):
        """The as-many-bits-as-needed z-order is the fixed 21-bit one it
        replaced (written out above), from an empty relation through a
        single cell to one row a cell."""
        order = cluster_order(coords)
        assert order.tolist() == _z_order_21_bits(coords).tolist()

    def test_a_grid_too_large_for_one_key_is_refused(self):
        with pytest.raises(StoreError, match="z-order key"):
            cluster_order(np.array([[1 << 21] * 4]))

    @pytest.mark.parametrize("rows, grid, digest, chunks_digest", [
        (131_072, 8,
         "dee5f40eda841edeb8ccc6de52ffb1984f7ca9957eb276390272f8675312ff22",
         "f9ff18cdb233f1e3384e77dbe3c8a51fa1ffcd8a42e1a9ce3e8c33b10f26a283"),
        (32_768, 4,
         "68acf79f8e9afba00dfe992a105fcdcd13330c1c8cdef418c7dff0f710998623",
         "1fdcb4831610e74de1792144c55a66ee675a4817fbe40936fbf625125a225a86"),
    ], ids=["SP", "FRESH"])
    def test_manifest_bytes_did_not_move(
        self, tmp_path, rows, grid, digest, chunks_digest
    ):
        """The two relations the ``store_scan`` benchmark writes (``SP``
        and ``write_drop``'s ``FRESH``): their ``manifest.json`` — what
        the digest, and through it every plan-cache key, is taken over —
        is pinned byte for byte.  Every chunk's CRC32 and zone maps are
        the ones the writer recorded while it also kept a grid
        directory (``chunks_digest``), so dropping the directory moved
        only the ``"index"`` lines: the rows reach the same chunks."""
        s_width, p_width = 1_000 // grid, 2_000 // grid
        rng = np.random.default_rng(0)
        cell = np.repeat(np.arange(grid * grid), rows // (grid * grid))
        array = np.stack(
            [(cell // grid) * s_width + rng.integers(0, s_width, rows),
             (cell % grid) * p_width + rng.integers(0, p_width, rows),
             np.arange(rows)],
            axis=1,
        )[rng.permutation(rows)]
        schema = Schema.of(("s", _INT), ("p", _INT), ("qty", _INT))
        handle = RelationStore(tmp_path).write_array(
            "SP", array, schema, chunk_rows=8_192, index_columns=("s", "p")
        )
        manifest = (handle.path / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == digest
        parsed = json.loads(manifest)
        assert parsed["distinct"] is True
        assert parsed["index"] == {"columns": [0, 1]}
        assert [column["distinct"] for column in parsed["schema"]] == [
            len(np.unique(column)) for column in array.T
        ]
        chunks = [[chunk["crc32"], chunk["stats"]]
                  for chunk in parsed["chunks"]]
        assert len(chunks) == rows // 8_192
        assert hashlib.sha256(
            json.dumps(chunks).encode()
        ).hexdigest() == chunks_digest


class TestDistinctCounts:
    """The writer counts each column's distinct values into the
    manifest; the disk's planning record reads them, so a store-backed
    join is sized like an in-memory one."""

    ROWS = np.array([[1, 7, 0], [1, 8, 1], [2, 7, 2], [3, 7, 3], [1, 7, 4]])

    def _rewrite(self, handle, edit) -> None:
        path = handle.path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    def test_the_manifest_records_each_columns_count(self, tmp_path):
        handle = RelationStore(tmp_path).write_array(
            "R", self.ROWS, _schema(3), chunk_rows=2
        )
        relation = Relation(_schema(3), self.ROWS)
        assert handle.distinct_counts == tuple(
            relation.distinct_count(c) for c in range(3)
        ) == (3, 2, 5)
        assert handle.distinct_count("c1") == 2
        disk = MachineDisk()
        disk.attach_store(RelationStore(tmp_path))
        record = disk.record("R", ("c0", "c2"))
        assert record.distinct == (("c0", 3), ("c2", 5))

    def test_an_empty_relation_counts_zero_values(self, tmp_path):
        handle = RelationStore(tmp_path).write(
            "E", Relation(_schema(2))
        )
        assert handle.distinct_counts == (0, 0)

    def test_a_manifest_without_the_counts_reads_as_none(self, tmp_path):
        store = RelationStore(tmp_path)
        handle = store.write_array("R", self.ROWS, _schema(3))
        self._rewrite(handle, lambda manifest: [
            entry.pop("distinct") for entry in manifest["schema"]
        ])
        older = RelationStore(tmp_path).open("R")
        assert older.distinct_counts == (None, None, None)
        disk = MachineDisk()
        disk.attach_store(RelationStore(tmp_path))
        assert disk.record("R", ("c0",)).distinct == (("c0", None),)

    @pytest.mark.parametrize("count", [-1, 6, 2.0, "3", True, [3]])
    def test_a_count_outside_the_rows_is_refused(self, tmp_path, count):
        """The manifest is outside input: a count the rows cannot hold,
        or one that is not an int, is refused where it is read."""
        store = RelationStore(tmp_path)
        handle = store.write_array("R", self.ROWS, _schema(3))

        def edit(manifest):
            manifest["schema"][1]["distinct"] = count

        self._rewrite(handle, edit)
        with pytest.raises(
            StoreError,
            match=r"manifest for 'R' gives column 'c1' .* distinct values; "
                  r"need an int in \[0, 5\]",
        ):
            RelationStore(tmp_path).open("R")


class TestSetSemantics:
    """Proved once at the write, recorded in the manifest, carried on
    every read (``tests/conftest.py`` re-checks each carried claim)."""

    REPEATS = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]])

    def test_the_manifest_describes_the_distinct_rows(self, tmp_path):
        """``write_array`` used to record ``rows: 5`` and a 5-row chunk
        for these rows while ``read()`` returned 3 — and the planner
        prices scans from ``handle.rows`` and ``chunks[i].rows``."""
        handle = RelationStore(tmp_path).write_array(
            "R", self.REPEATS, _schema(2), chunk_rows=2
        )
        relation = handle.read().relation
        assert handle.rows == len(relation) == 3
        assert [chunk.rows for chunk in handle.chunks] == [2, 1]
        assert handle.chunks[1].stats == ((5, 5), (6, 6))
        # First occurrences, in cluster order (one grid cell: input order).
        assert relation.tuples == ((1, 2), (3, 4), (5, 6))
        manifest = json.loads((handle.path / "manifest.json").read_text())
        assert manifest["distinct"] is True and manifest["rows"] == 3
        assert handle.distinct

    @SMALL
    @given(rows=extreme_rows, chunk_rows=st.integers(1, 7))
    def test_rows_on_disk_equal_rows_read(
        self, tmp_path_factory, rows, chunk_rows
    ):
        array = np.array(rows, dtype=np.int64).reshape(-1, 2)
        handle = RelationStore(tmp_path_factory.mktemp("rows")).write_array(
            "R", array, _schema(2), chunk_rows=chunk_rows
        )
        scan = handle.read()
        assert handle.rows == scan.rows_scanned == len(scan.relation)
        assert handle.rows == sum(chunk.rows for chunk in handle.chunks)
        assert scan.relation == Relation(_schema(2), rows)

    def test_a_manifest_without_the_field_is_verified_on_read(self, tmp_path):
        """An older directory: nobody proved its rows, so the read does
        — here the chunk really does repeat a row.  (Its manifest counts
        no column's values and records no chunk's CRC32 either.)"""
        store = RelationStore(tmp_path)
        handle = store.write_array(
            "old", np.array([[1, 2], [3, 4], [5, 6]]), _schema(2)
        )
        manifest_path = handle.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["distinct"]
        for entry in manifest["schema"]:
            del entry["distinct"]
        for chunk in manifest["chunks"]:
            del chunk["crc32"]
        manifest_path.write_text(json.dumps(manifest))
        np.array([[1, 3, 1], [2, 4, 2]], dtype="<i8").tofile(
            handle.path / handle.chunks[0].file
        )
        reopened = RelationStore(tmp_path).open("old")
        assert not reopened.distinct
        assert reopened.read().relation.tuples == ((1, 2), (3, 4))
        assert reopened.read((0, "<", 2)).relation.tuples == ((1, 2),)

    @pytest.mark.parametrize("selection", [None, ("c0", ">=", 0)])
    @pytest.mark.parametrize("resize", [-8, 8], ids=["truncated", "over-long"])
    def test_a_chunk_of_the_wrong_size_is_refused(
        self, tmp_path, selection, resize
    ):
        store = RelationStore(tmp_path)
        rows = np.stack([np.arange(10), np.arange(10) * 3], axis=1)
        handle = store.write_array("R", rows, _schema(2), chunk_rows=4)
        target = handle.path / handle.chunks[1].file
        data = target.read_bytes()
        target.write_bytes(data[:resize] if resize < 0 else data + b"\0" * 8)
        with pytest.raises(
            StoreError,
            match=rf"chunk chunk-00001\.bin of 'R' holds {8 + resize // 8} "
                  r"elements, manifest says 8",
        ):
            handle.read(selection)
