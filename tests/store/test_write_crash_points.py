"""A rewrite or drop that fails at any filesystem step loses nothing.

A rewrite of a stored relation writes its chunk files under new names
in the relation's directory, stages its manifest beside
``manifest.json``, renames it over ``manifest.json`` — the swap, the one
step that switches versions — and last removes every file the new
manifest does not name.  A drop unlinks the manifest and then removes
the directory.  Each test injects one exception at one of those steps,
or copies the store root there as a crash would leave it, and then
checks the store as a reader finds it: the relation reads as either its
old rows or its new ones, every manifest describes whole chunks
(``verify()`` reports nothing), a failed write leaves no file it made,
and opening a store changes nothing on disk.  A store that another
process opens at any step of a rewrite or a drop reads the old or the
new version and undoes nothing.
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
    return lambda path, block: pathlib.Path(path).name.startswith(
        f"chunk-{chunk_id:05d}"
    )


def _is_staged(path, *_):
    return pathlib.Path(path).name == "manifest.json.tmp"


def _to_manifest(src, dst):
    return pathlib.Path(dst).name == "manifest.json"


def _is_chunk(path, *_):
    return columnar._CHUNK_RE.fullmatch(pathlib.Path(path).name) is not None


def _is_manifest(path, *_):
    return pathlib.Path(path).name == "manifest.json"


def _always(*_):
    return True


#: step -> (owner, attribute, predicate on its arguments, rows R then
#: reads): each chunk write, the staged manifest, the swap (the manifest
#: rename) and the final removal of the old version's files.
STEPS = {
    **{
        f"chunk {cid}": (columnar, "_write_chunk", _chunk_writer(cid), OLD)
        for cid in (0, 3)
    },
    "manifest": (pathlib.Path, "write_text", _is_staged, OLD),
    "swap": (os, "replace", _to_manifest, OLD),
    "final removal": (os, "unlink", _is_chunk, NEW),
}


@pytest.fixture
def store(tmp_path):
    store = RelationStore(tmp_path)
    store.write_array("R", OLD, SCHEMA, chunk_rows=CHUNK_ROWS)
    return store


def _sorted(rows):
    return sorted(map(tuple, rows.tolist()))


def _rows(store):
    return _sorted(store.open("R").read().relation.array)


def _files(root):
    """Every file under ``root``, relative, with its size."""
    return {
        (str(path.relative_to(root)), path.stat().st_size)
        for path in root.rglob("*") if path.is_file()
    }


def _named(store):
    """The files R's manifest names, and the manifest."""
    return {chunk.file for chunk in store.open("R").chunks} | {
        "manifest.json"
    }


def _assert_whole(root, rows):
    """A store opened on ``root`` lists R alone, reads ``rows`` from it,
    verifies clean, and changed nothing on disk by opening."""
    before = _files(root)
    fresh = RelationStore(root)
    assert fresh.names() == ["R"]
    assert _rows(fresh) == _sorted(rows)
    assert fresh.verify()[1] == []
    assert _files(root) == before


@pytest.mark.parametrize("step", sorted(STEPS))
def test_a_rewrite_failing_at_each_step_keeps_one_version(
    store, monkeypatch, step,
):
    owner, attribute, fires, rows = STEPS[step]
    before = {path.name for path in (store.root / "R").iterdir()}
    planted = _failing_once(getattr(owner, attribute), fires)
    monkeypatch.setattr(owner, attribute, planted)
    with pytest.raises(Injected):
        store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    assert planted.state["fired"]
    monkeypatch.undo()
    _assert_whole(store.root, rows)
    # No file the write made is left but those its manifest names.
    left = {path.name for path in (store.root / "R").iterdir()}
    assert left - before <= _named(store)
    if rows is OLD:
        assert left == before


@pytest.mark.parametrize(
    "step", [step for step, spec in sorted(STEPS.items()) if spec[3] is OLD]
)
def test_a_first_write_failing_at_each_step_leaves_nothing(
    tmp_path, monkeypatch, step,
):
    owner, attribute, fires, _ = STEPS[step]
    monkeypatch.setattr(
        owner, attribute, _failing_once(getattr(owner, attribute), fires),
    )
    with pytest.raises(Injected):
        RelationStore(tmp_path).write_array(
            "R", OLD, SCHEMA, chunk_rows=CHUNK_ROWS
        )
    assert list(tmp_path.iterdir()) == []


def test_a_rewrite_after_a_failed_one_succeeds(store, monkeypatch):
    owner, attribute, fires, _ = STEPS["swap"]
    monkeypatch.setattr(
        owner, attribute, _failing_once(getattr(owner, attribute), fires),
    )
    with pytest.raises(Injected):
        store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    monkeypatch.undo()
    _assert_whole(store.root, NEW)
    assert {path.name for path in (store.root / "R").iterdir()} == (
        _named(store)
    )


def test_a_drop_failing_at_its_unlink_keeps_the_relation(
    store, monkeypatch,
):
    monkeypatch.setattr(
        os, "unlink", _failing_once(os.unlink, _is_manifest),
    )
    with pytest.raises(Injected):
        store.drop("R")
    monkeypatch.undo()
    _assert_whole(store.root, OLD)


def test_a_drop_failing_in_its_removal_leaves_no_half_relation(
    store, monkeypatch,
):
    monkeypatch.setattr(
        shutil, "rmtree", _failing_once(shutil.rmtree, _always),
    )
    with pytest.raises(Injected):
        store.drop("R")
    monkeypatch.undo()
    assert store.names() == []
    assert RelationStore(store.root).verify() == (0, [])
    # The next write of R removes what the drop left.
    store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    assert {path.name for path in (store.root / "R").iterdir()} == (
        _named(store)
    )


def _open_at_each_step(monkeypatch, root):
    """Open a store on ``root``, as another process would, before and
    after every rename, unlink and tree removal made from here on;
    returns the list of what each found: R's sorted rows, or None when
    R is not stored."""
    seen, busy = [], []

    def look():
        if not busy:
            busy.append(True)
            try:
                other = RelationStore(root)
                seen.append(_rows(other) if other.holds("R") else None)
            finally:
                busy.pop()

    def observed(real):
        def wrapper(*args, **kwargs):
            look()
            result = real(*args, **kwargs)
            look()
            return result
        return wrapper

    for owner, attribute in ((os, "replace"), (os, "unlink"),
                             (shutil, "rmtree")):
        monkeypatch.setattr(
            owner, attribute, observed(getattr(owner, attribute))
        )
    return seen


def test_a_store_opened_inside_a_rewrite_reads_old_or_new_rows(
    store, monkeypatch,
):
    """Held at the swap, a rewrite leaves the old version for a store
    another process opens; after it, the new one.  That store restores
    nothing, so the rewrite succeeds."""
    seen = _open_at_each_step(monkeypatch, store.root)
    store.write_array("R", NEW, SCHEMA, chunk_rows=CHUNK_ROWS)
    monkeypatch.undo()
    old, new = _sorted(OLD), _sorted(NEW)
    assert seen[0] == old and seen[-1] == new
    switch = seen.index(new)
    assert seen == [old] * switch + [new] * (len(seen) - switch)
    _assert_whole(store.root, NEW)
    assert {path.name for path in (store.root / "R").iterdir()} == (
        _named(store)
    )


def test_a_store_opened_inside_a_drop_does_not_bring_the_relation_back(
    store, monkeypatch,
):
    seen = _open_at_each_step(monkeypatch, store.root)
    store.drop("R")
    monkeypatch.undo()
    assert seen[0] == _sorted(OLD) and seen[-1] is None
    gone = seen.index(None)
    assert seen[gone:] == [None] * (len(seen) - gone)
    assert RelationStore(store.root).names() == []
    assert list(store.root.iterdir()) == []


#: crash point -> (owner, attribute, predicate, what the store then holds)
CRASHES = {
    "rewrite before its manifest": (
        pathlib.Path, "write_text", _is_staged, OLD,
    ),
    "rewrite before its swap": (os, "replace", _to_manifest, OLD),
    "rewrite before its removal": (os, "unlink", _is_chunk, NEW),
    "drop before its unlink": (os, "unlink", _is_manifest, OLD),
    "drop before its removal": (shutil, "rmtree", _always, None),
}


@pytest.mark.parametrize("point", sorted(CRASHES))
def test_a_store_opened_after_a_crash_finds_one_version(
    store, monkeypatch, tmp_path_factory, point,
):
    """The store root is copied at the crash point, as a crash there
    would leave it; a store opened on the copy lists R with the rows it
    should hold (none after a drop), its chunks verify, opening changed
    nothing, and a later write of R leaves only the files its manifest
    names."""
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
    if rows is None:
        before = _files(crashed)
        reopened = RelationStore(crashed)
        assert reopened.names() == []
        assert reopened.verify() == (0, [])
        assert _files(crashed) == before
    else:
        _assert_whole(crashed, rows)
    reopened = RelationStore(crashed)
    reopened.write_array("R", NEW[:50], SCHEMA, chunk_rows=CHUNK_ROWS)
    assert {path.name for path in (crashed / "R").iterdir()} == (
        _named(reopened)
    )
    reopened.drop("R")
    assert RelationStore(crashed).names() == []


@pytest.mark.parametrize(
    "leftover",
    ["beside R", "missing", "truncated", "one of two"],
)
def test_a_previous_layouts_aside_copy_is_never_restored(store, leftover):
    """A store of the previous layout renamed a relation aside to
    ``.old-<name>-<random>/`` while it swapped a rewrite in or dropped
    it, and a crash could leave such a copy: beside R, alone but part
    way through its removal, or one of two.  The store takes none of
    them for a relation and leaves each as it is, for its owner to
    rename back by hand: R dropped stays dropped, and no copy comes back
    when a store is opened."""
    aside = store.root / ".old-R-abcd1234"
    if leftover == "beside R":
        shutil.copytree(store.root / "R", aside)
        store.drop("R")
    elif leftover == "one of two":
        shutil.copytree(store.root / "R", store.root / ".old-R-aaaaaaaa")
        os.replace(store.root / "R", aside)
    else:
        os.replace(store.root / "R", aside)
        chunk = aside / "chunk-00002.bin"
        if leftover == "missing":
            chunk.unlink()
        else:
            chunk.write_bytes(chunk.read_bytes()[:-8])
    before = _files(store.root)
    reopened = RelationStore(store.root)
    assert reopened.names() == []
    assert reopened.verify() == (0, [])
    assert _files(store.root) == before
