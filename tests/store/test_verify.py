"""``repro store verify``: every chunk of a store read and checked.

The check reads each chunk through the chunk pool's one reader into a
scratch block and keeps nothing in the pool.  A clean store exits 0; a
torn or CRC-failing chunk is named, relation and chunk, and the exit is
non-zero; a manifest from before checksums has its chunks checked by
size only.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.relational.domain import IntegerDomain
from repro.relational.schema import Schema
from repro.store import CHUNK_POOL_BYTES, RelationStore
from repro.store import columnar

_INT = IntegerDomain("int")
SCHEMA = Schema.of(("c0", _INT), ("c1", _INT))


@pytest.fixture
def pool(monkeypatch):
    pool = columnar._ChunkPool(CHUNK_POOL_BYTES)
    monkeypatch.setattr(columnar, "_POOL", pool)
    return pool


@pytest.fixture
def store(tmp_path):
    store = RelationStore(tmp_path)
    store.write_array(
        "R", np.arange(600).reshape(300, 2), SCHEMA, chunk_rows=64,
    )
    store.write_array("Q", np.arange(20).reshape(10, 2), SCHEMA)
    return store


def verify(store, capsys):
    code = main(["store", "verify", "--store-dir", str(store.root)])
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


def chunk_file(store, name, chunk_id):
    handle = store.open(name)
    return handle.path / handle.chunks[chunk_id].file


def flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_a_clean_store_passes_and_nothing_enters_the_pool(
    store, pool, capsys
):
    code, out, err = verify(store, capsys)
    assert (code, err) == (0, [])
    assert "2 relations, 6 chunks, no failures" in out
    assert pool.info()["resident_bytes"] == 0
    assert not pool._noted


def test_a_flipped_byte_names_the_relation_and_chunk(store, capsys):
    flip_a_byte(chunk_file(store, "R", 2))
    code, _, err = verify(store, capsys)
    assert code == 1
    assert err == [
        "chunk chunk-00002.bin of 'R' fails its CRC32 check: the file's "
        "bytes changed after the write"
    ]


def test_a_truncated_chunk_is_torn(store, capsys):
    path = chunk_file(store, "R", 4)
    path.write_bytes(path.read_bytes()[:-8])
    code, _, err = verify(store, capsys)
    assert code == 1
    assert err == [
        "chunk chunk-00004.bin of 'R' holds 87 elements, manifest says 88"
    ]


def test_an_older_manifest_is_verified_by_size_only(store, capsys):
    manifest_path = store.open("R").path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for chunk in manifest["chunks"]:
        del chunk["crc32"]
    manifest_path.write_text(json.dumps(manifest))
    flip_a_byte(chunk_file(store, "R", 2))
    assert verify(store, capsys)[0] == 0

    path = chunk_file(store, "R", 1)
    path.write_bytes(path.read_bytes()[:-8])
    code, _, err = verify(store, capsys)
    assert code == 1
    assert err == [
        "chunk chunk-00001.bin of 'R' holds 127 elements, manifest says 128"
    ]


def test_a_missing_store_directory_is_refused(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["store", "verify", "--store-dir", str(missing)]) == 2
    assert not missing.exists()
