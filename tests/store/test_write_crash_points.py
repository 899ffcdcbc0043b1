"""A rewrite or drop that fails at any filesystem step loses nothing.

A rewrite of a stored relation writes its chunks and manifest into a
staging directory, renames the old version aside, swaps the new one in
and removes the aside copy last.  Each test injects one exception at
one of those steps and then checks the store as a reader finds it: the
relation is still listed, it reads as either its old rows or its new
ones, every manifest describes the chunks beside it (``verify()``
reports nothing), and no staging or aside directory is taken for a
relation.  A reader that looks while a rewrite is between its aside
rename and its swap still finds the relation.  A store opened on what
a crash at a step leaves behind finds the old version or the new one
(a drop cut off before it retires the set-aside copy is undone, one cut
off after stays dropped), and a copy that is not the relation — beside
a stored one, part way through its removal, or one of two — is retired,
never restored, so a later drop stays dropped.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import threading

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


def test_a_reader_in_the_swap_gap_finds_the_relation(store, monkeypatch):
    """A rewrite is held at its swap, R renamed aside and the new
    version staged, until a reader's ``stat`` misses R's manifest; the
    reader then waits out the swap and finds the new version."""
    swapping, missed = threading.Event(), threading.Event()
    real_replace, real_stat = os.replace, os.stat

    def replace(src, dst):
        if _from_staging(src, dst):
            swapping.set()
            missed.wait(timeout=30)
        return real_replace(src, dst)

    def stat(path, *args, **kwargs):
        try:
            return real_stat(path, *args, **kwargs)
        except FileNotFoundError:
            if isinstance(path, str) and path.endswith(
                os.path.join("R", "manifest.json")
            ):
                missed.set()
            raise

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "stat", stat)
    errors = []

    def write():
        try:
            store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
        except BaseException as exc:  # noqa: BLE001 — asserted below
            errors.append(exc)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert swapping.wait(timeout=30)
        handle = store.find("R")
    finally:
        missed.set()
        writer.join(timeout=30)
    monkeypatch.undo()
    assert not writer.is_alive() and errors == []
    assert handle is not None
    assert sorted(map(tuple, handle.read().relation.array.tolist())) == (
        sorted(map(tuple, NEW.tolist()))
    )


def _always(*_):
    return True


#: crash point -> (owner, attribute, predicate, what the store then holds)
CRASHES = {
    "rewrite before its swap": (os, "replace", _from_staging, OLD),
    "rewrite before its retire": (
        RelationStore, "_retire_asides", _always, NEW,
    ),
    "rewrite before its removal": (shutil, "rmtree", _is_aside, NEW),
    "drop before its retire": (
        RelationStore, "_retire_asides", _always, OLD,
    ),
    "drop before its removal": (shutil, "rmtree", _is_aside, None),
}


@pytest.mark.parametrize("point", sorted(CRASHES))
def test_a_store_opened_after_a_crash_finds_one_version(
    store, monkeypatch, tmp_path_factory, point,
):
    """The store root is copied at the crash point, as a crash there
    would leave it; a store opened on the copy lists R with the rows it
    should hold (none after a drop), its chunks verify, and R dropped
    there stays dropped when the root is opened again."""
    owner, attribute, fires, rows = CRASHES[point]
    real = getattr(owner, attribute)
    crashed = tmp_path_factory.mktemp("crash") / "root"

    def crash_here(*args, **kwargs):
        if fires(*args) and not crashed.exists():
            shutil.copytree(store.root, crashed)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, crash_here)
    if point.startswith("drop"):
        store.drop("R")
    else:
        store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    monkeypatch.undo()
    assert crashed.exists()
    reopened = RelationStore(crashed)
    if rows is None:
        assert reopened.names() == []
        assert reopened.verify() == (0, [])
        return
    assert reopened.names() == ["R"]
    assert _rows(reopened) == sorted(map(tuple, rows.tolist()))
    assert reopened.verify()[1] == []
    for entry in crashed.iterdir():
        assert entry.name == "R" or not reopened.holds(entry.name)
    reopened.drop("R")
    assert RelationStore(crashed).names() == []


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_a_copy_missing_a_chunk_is_retired_not_restored(store, damage):
    """A removal that stopped part way through the set-aside copy, as
    one could before copies were retired first, leaves a manifest that
    names chunks no longer whole: the copy is not taken for R."""
    aside = store.root / ".old-R-abcd1234"
    os.replace(store.root / "R", aside)
    chunk = aside / "chunk-00002.bin"
    if damage == "missing":
        chunk.unlink()
    else:
        chunk.write_bytes(chunk.read_bytes()[:-8])
    reopened = RelationStore(store.root)
    assert reopened.names() == []
    assert reopened.verify() == (0, [])
    assert not (aside / "manifest.json").exists()


def test_two_copies_of_one_name_are_both_retired(store):
    """Which of two whole copies was the relation cannot be told, so
    neither is restored."""
    shutil.copytree(store.root / "R", store.root / ".old-R-aaaaaaaa")
    os.replace(store.root / "R", store.root / ".old-R-bbbbbbbb")
    reopened = RelationStore(store.root)
    assert reopened.names() == []
    assert list(store.root.glob(".old-*/manifest.json")) == []


def test_a_drop_retires_a_copy_a_crash_left_beside_the_relation(store):
    """Another process stopped between its swap and its retire leaves a
    whole older copy beside R, unseen by a store opened before; a drop
    through that store retires it with its own copy, so R stays
    dropped."""
    shutil.copytree(store.root / "R", store.root / ".old-R-abcd1234")
    store.drop("R")
    assert RelationStore(store.root).names() == []
