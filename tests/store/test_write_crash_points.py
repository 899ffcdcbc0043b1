"""A rewrite or drop that fails at any filesystem step loses nothing.

A rewrite of a stored relation writes its chunks and manifest into a
staging directory, renames the old version aside, swaps the new one in
and removes the aside copy last.  Each test injects one exception at
one of those steps and then checks the store as a reader finds it: the
relation is still listed, it reads as either its old rows or its new
ones, every manifest describes the chunks beside it (``verify()``
reports nothing), and no staging or aside directory is taken for a
relation.
"""

from __future__ import annotations

import os
import pathlib
import shutil

import numpy as np
import pytest

from repro.relational.domain import IntegerDomain
from repro.relational.schema import Schema
from repro.store import RelationStore
from repro.store import columnar

_INT = IntegerDomain("int")
SCHEMA = Schema.of(("c0", _INT), ("c1", _INT))
OLD = np.arange(600).reshape(300, 2)
NEW = np.arange(1000, 1400).reshape(200, 2)
CHUNK_ROWS = 64


class Injected(Exception):
    """The failure a test plants at one filesystem step."""


def _failing_once(real, fires):
    """``real``, except that its first call for which ``fires(*args)``
    holds raises :class:`Injected` instead."""
    state = {"fired": False}

    def wrapper(*args, **kwargs):
        if not state["fired"] and fires(*args):
            state["fired"] = True
            raise Injected(real.__name__)
        return real(*args, **kwargs)

    wrapper.state = state
    return wrapper


def _chunk_writer(chunk_id):
    return lambda staging, cid, block: cid == chunk_id


def _is_manifest(path, *_):
    return pathlib.Path(path).name == "manifest.json"


def _from_final(src, dst):
    return pathlib.Path(src).name == "R"


def _from_staging(src, dst):
    return pathlib.Path(src).name.startswith(".tmp-R-")


def _is_aside(path, *_):
    return pathlib.Path(path).name.startswith(".old-R-")


#: step -> (module attribute owner, attribute, predicate on its arguments)
STEPS = {
    **{
        f"chunk {cid}": (columnar, "_write_chunk", _chunk_writer(cid))
        for cid in (0, 3)
    },
    "manifest": (pathlib.Path, "write_text", _is_manifest),
    "aside rename": (os, "replace", _from_final),
    "swap": (os, "replace", _from_staging),
    "final removal": (shutil, "rmtree", _is_aside),
}


@pytest.fixture
def store(tmp_path):
    store = RelationStore(tmp_path)
    store.write_array("R", OLD, SCHEMA, chunk_rows=CHUNK_ROWS)
    return store


def _rows(store):
    return sorted(
        map(tuple, store.open("R").read().relation.array.tolist())
    )


def _assert_whole(store, allowed):
    assert store.names() == ["R"]
    # A fresh handle: nothing the failed write cached stands in for disk.
    fresh = RelationStore(store.root)
    assert _rows(fresh) in allowed
    assert fresh.verify()[1] == []
    for entry in store.root.iterdir():
        assert entry.name == "R" or not store.holds(entry.name)


@pytest.mark.parametrize("step", sorted(STEPS))
def test_a_rewrite_failing_at_each_step_keeps_one_version(
    store, monkeypatch, step,
):
    owner, attribute, fires = STEPS[step]
    planted = _failing_once(getattr(owner, attribute), fires)
    monkeypatch.setattr(owner, attribute, planted)
    with pytest.raises(Injected):
        store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    assert planted.state["fired"]
    monkeypatch.undo()
    old = sorted(map(tuple, OLD.tolist()))
    new = sorted(map(tuple, NEW.tolist()))
    _assert_whole(store, [old, new])
    if step == "swap":
        assert _rows(store) == old


def test_a_rewrite_after_a_failed_one_succeeds(store, monkeypatch):
    owner, attribute, fires = STEPS["swap"]
    monkeypatch.setattr(
        owner, attribute, _failing_once(getattr(owner, attribute), fires),
    )
    with pytest.raises(Injected):
        store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    monkeypatch.undo()
    _assert_whole(store, [sorted(map(tuple, NEW.tolist()))])


def test_a_drop_failing_in_its_removal_leaves_no_half_relation(
    store, monkeypatch,
):
    monkeypatch.setattr(
        shutil, "rmtree", _failing_once(shutil.rmtree, _is_aside),
    )
    with pytest.raises(Injected):
        store.drop("R")
    monkeypatch.undo()
    assert store.names() == []
    assert RelationStore(store.root).verify() == (0, [])
