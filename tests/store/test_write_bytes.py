"""The store's write path against the construction it replaced, byte for
byte: every chunk file and ``manifest.json`` of a relation directory.

The references below are the write path as it was before the rows were
laid out column-major once: a row-major gather into cluster order, a
``uint64`` z-order key, ``np.searchsorted`` cell coordinates, and a
chunk file written by ``block.T.astype('<i8').tofile``, with each
column's distinct count taken by ``np.unique`` and each chunk's CRC32
read back from its file.  The manifest's ``"index"`` names the columns
the rows are clustered on.  They share with the store only the pieces
that did not move: the duplicate search, the scales, the clustering
resolution and the schema's JSON.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.domain import IntegerDomain
from repro.relational.relation import Relation, _first_occurrences
from repro.relational.schema import Schema
from repro.store import RelationStore, build_scales, columnar

_INT = IntegerDomain("int")
INT64_EXTREMES = (-(2**63), 2**63 - 1)


def _schema(arity: int) -> Schema:
    return Schema.of(*((f"c{i}", _INT) for i in range(arity)))


def _searchsorted_cells(columns, scales) -> np.ndarray:
    coords = np.empty((len(columns[0]), len(columns)), dtype=np.int64)
    for d, (values, axis) in enumerate(zip(columns, scales)):
        coords[:, d] = np.searchsorted(
            np.asarray(axis, dtype=np.int64), values, side="right"
        ) if len(axis) else 0
    return coords


def _z_order_uint64(coords: np.ndarray) -> np.ndarray:
    n, ndims = coords.shape
    bits = int(coords.max()).bit_length()
    key = np.zeros(n, dtype=np.uint64)
    unsigned = coords.astype(np.uint64)
    for bit in range(bits):
        for d in range(ndims):
            key |= ((unsigned[:, d] >> np.uint64(bit)) & np.uint64(1)) << (
                np.uint64(bit * ndims + d)
            )
    return np.argsort(key, kind="stable")


def _write_rows_as_it_was(
    path: Path, name: str, array: np.ndarray, schema: Schema,
    chunk_rows: int, index_columns,
) -> None:
    """``RelationStore._write_rows`` before the column-major layout,
    writing straight into ``path``."""
    first = _first_occurrences(array)
    if first is not None:
        array = array[first]
    n = len(array)
    n_chunks = -(-n // chunk_rows) if n else 0
    if index_columns is None:
        positions = list(range(min(2, len(schema))))
    else:
        positions = schema.resolve_many(index_columns)
    index = None
    if positions and n:
        cells_per_axis = columnar._cells_per_axis(n_chunks, len(positions))
        scales = [build_scales(array[:, p], cells_per_axis) for p in positions]
        coords = _searchsorted_cells([array[:, p] for p in positions], scales)
        array = array[_z_order_uint64(coords)]
        index = {"columns": list(positions)}
    path.mkdir()
    chunks = []
    for chunk_id in range(n_chunks):
        block = array[chunk_id * chunk_rows:(chunk_id + 1) * chunk_rows]
        file = f"chunk-{chunk_id:05d}.bin"
        block.T.astype("<i8").tofile(path / file)
        chunks.append({
            "file": file,
            "rows": len(block),
            "stats": [
                [int(block[:, c].min()), int(block[:, c].max())]
                for c in range(len(schema))
            ],
            "crc32": zlib.crc32((path / file).read_bytes()),
        })
    schema_json = columnar._schema_to_json(schema)
    for c, entry in enumerate(schema_json):
        entry["distinct"] = len(np.unique(array[:, c]))
    manifest = {
        "version": columnar.MANIFEST_VERSION,
        "name": name,
        "rows": n,
        "arity": len(schema),
        "chunk_rows": chunk_rows,
        "schema": schema_json,
        "chunks": chunks,
        "distinct": True,
        "index": index,
    }
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )


def _files(path: Path) -> dict[str, bytes]:
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


def _assert_written_as_it_was(root: Path, rows, chunk_rows, index_columns):
    array = np.array(rows, dtype=np.int64)
    schema = _schema(array.shape[1])
    handle = RelationStore(root / "store").write_array(
        "R", array, schema, chunk_rows=chunk_rows, index_columns=index_columns
    )
    _write_rows_as_it_was(
        root / "reference", "R", array, schema, chunk_rows, index_columns
    )
    written, reference = _files(handle.path), _files(root / "reference")
    assert list(written) == list(reference)
    for file, data in reference.items():
        assert written[file] == data, file


@st.composite
def write_cases(draw):
    """Rows of arity 1-4 (small values, so rows share grid cells; the
    whole int64 range; its extremes), repeated rows, a ``chunk_rows``
    from 1 to n + 1 and an index over the default, no, one or every
    column."""
    arity = draw(st.integers(1, 4))
    element = draw(st.sampled_from([
        st.integers(-3, 3),
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(st.integers(-3, 3), st.sampled_from(INT64_EXTREMES)),
    ]))
    min_size, max_size = draw(st.sampled_from([(0, 2), (0, 40), (100, 300)]))
    rows = draw(st.lists(
        st.tuples(*[element] * arity), min_size=min_size, max_size=max_size
    ))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
    chunk_rows = draw(st.integers(1, len(rows) + 1))
    one = (draw(st.integers(0, arity - 1)),)
    index_columns = draw(st.sampled_from([None, (), one, tuple(range(arity))]))
    return np.array(rows, dtype=np.int64).reshape(-1, arity), chunk_rows, (
        index_columns
    )


class TestWritePathBytes:
    @settings(max_examples=60, deadline=None)
    @given(case=write_cases())
    def test_every_file_is_the_old_constructions(self, tmp_path_factory, case):
        rows, chunk_rows, index_columns = case
        _assert_written_as_it_was(
            tmp_path_factory.mktemp("bytes"), rows, chunk_rows, index_columns
        )

    @pytest.mark.parametrize("chunk_rows", [1, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_small_relations_at_every_chunking(self, tmp_path, n, chunk_rows):
        """n = 0 and 1, and n below, at and above ``chunk_rows``."""
        rows = np.arange(3 * n).reshape(n, 3) % 2
        rows[:, 2] = np.arange(n)
        _assert_written_as_it_was(tmp_path, rows, chunk_rows, None)

    def test_rows_sharing_a_cell_keep_their_input_order(self, tmp_path):
        """Hundreds of rows a cell of a 4 × 4 grid: the cluster order
        is a stable sort, so a cell's rows reach their chunks in the
        order they were handed over."""
        rng = np.random.default_rng(5)
        rows = np.stack(
            [rng.integers(0, 8, 4096), rng.integers(0, 8, 4096),
             rng.permutation(4096)],
            axis=1,
        )
        _assert_written_as_it_was(tmp_path, rows, 1024, None)

    @pytest.mark.parametrize("ndims, bits", [
        (2, 4), (3, 3), (2, 8), (1, 17), (4, 8), (3, 11),
    ], ids=lambda v: str(v))
    def test_z_order_widths_across_every_key_dtype_edge(
        self, tmp_path, monkeypatch, ndims, bits
    ):
        """Z-order keys of ``bits·ndims`` = 8, 9, 16, 17, 32 and 33 bits:
        either side of each edge between the uint8, uint16, uint32 and
        uint64 keys.  The grid resolution is forced to ``2**bits`` cells
        an axis, so each of an indexed column's ``2**(bits - 1) + 1``
        distinct values is a split point and the largest coordinate,
        one past the last split, has exactly ``bits`` bits."""
        monkeypatch.setattr(
            columnar, "_cells_per_axis", lambda n_chunks, ndims: 2**bits
        )
        widths = []

        def cluster_order(coords):
            widths.append(int(coords.max()).bit_length())
            return real_cluster_order(coords)

        real_cluster_order = columnar.cluster_order
        monkeypatch.setattr(columnar, "cluster_order", cluster_order)
        n = 2 ** (bits - 1) + 1
        rng = np.random.default_rng(bits * ndims)
        rows = np.stack(
            [rng.permutation(n) * 7 - n for _ in range(ndims)]
            + [np.arange(n)],
            axis=1,
        )
        _assert_written_as_it_was(
            tmp_path, rows, n // 3 + 1, tuple(range(ndims))
        )
        assert widths == [bits]


def _assert_relation_written_as_it_was(root: Path, rows, chunk_rows,
                                       index_columns):
    array = np.array(rows, dtype=np.int64)
    schema = _schema(array.shape[1])
    handle = RelationStore(root / "store").write(
        "R", Relation(schema, array), chunk_rows=chunk_rows,
        index_columns=index_columns,
    )
    _write_rows_as_it_was(
        root / "reference", "R", array, schema, chunk_rows, index_columns
    )
    assert _files(handle.path) == _files(root / "reference")


class TestWriteOfARelation:
    """``write`` carries a :class:`Relation`'s set proof into the store
    instead of searching its rows again: same directory, byte for byte,
    as the old path that searched."""

    @settings(max_examples=60, deadline=None)
    @given(case=write_cases())
    def test_every_file_is_the_old_constructions(self, tmp_path_factory, case):
        rows, chunk_rows, index_columns = case
        _assert_relation_written_as_it_was(
            tmp_path_factory.mktemp("relation"), rows, chunk_rows,
            index_columns,
        )

    def test_a_relation_is_never_searched(self, tmp_path, monkeypatch):
        searched = []

        def spy(array):
            searched.append(len(array))
            return _first_occurrences(array)

        monkeypatch.setattr(columnar, "_first_occurrences", spy)
        rows = np.array([[1, 2], [3, 4], [1, 2], [5, 6]], dtype=np.int64)
        relation = Relation(_schema(2), rows)
        store = RelationStore(tmp_path)
        store.write("R", relation, chunk_rows=2)
        assert searched == []
        assert store.open("R").read().relation == relation
        # Bare rows are not a proof: write_array still searches them.
        store.write_array("S", rows, _schema(2))
        assert searched == [4]
        assert store.open("S").read().relation == relation
