"""One compile path under one key, on every front end.

The machine, a pool session and each lane of a sharded session plan
through the same :func:`~repro.machine.pool.compile_plans`, whose cache
key holds the catalog's content fingerprint over the base relations the
plans *name*: a write elsewhere keeps the cached plan; a resize, a
preload, or a store that starts answering for a named relation evicts
it.  The same three front ends refuse an ill-typed division at compile,
where :func:`~repro.relational.algebra.division_layout` is resolved.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import SchemaError
from repro.machine import (
    Base,
    Divide,
    EnginePool,
    Intersect,
    Select,
    SystolicDatabaseMachine,
)
from repro.relational import Domain, Relation, Schema
from repro.store import RelationStore

_DOMAIN = Domain("compile-key", values=range(64))
_OTHER = Domain("compile-key-other", values=range(64))
_SCHEMA = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))

PLAN = Intersect(Base("A"), Base("B"))
STORED_PLAN = Select(Base("S"), column="k", op="==", value=3)


def _rows(n: int, schema: Schema = _SCHEMA) -> Relation:
    return Relation(schema, [(i % 32, i // 32) for i in range(n)])


def _front(kind: str) -> SimpleNamespace:
    """A front end reduced to the verbs the key rule is stated in.

    ``catalogs`` are what ``attach_store`` reaches: the machine's own
    catalog, the session's, or every shard's.
    """
    if kind == "machine":
        machine = SystolicDatabaseMachine()
        front = SimpleNamespace(
            store=machine.store, preload=machine.preload,
            compile=machine.compile, info=machine.plan_cache_info,
            catalogs=[machine.catalog],
        )
    else:
        sharded = kind == "shards2"
        session = EnginePool().session("acme", shards=2 if sharded else 1)
        front = SimpleNamespace(
            store=session.store, preload=session.preload,
            compile=session.compile, info=session.plan_cache_info,
            catalogs=(
                session.sharded_catalog.shards if sharded
                else [session.catalog]
            ),
        )
    front.store("A", _rows(40))
    front.store("B", _rows(24))
    return front


def _new_misses(front, plan=PLAN) -> int:
    """Plan-cache misses one more compile of ``plan`` adds."""
    before = front.info()["misses"]
    front.compile(plan)
    return front.info()["misses"] - before


@pytest.fixture(params=["machine", "pool", "shards2"])
def front(request):
    return _front(request.param)


class TestCacheKeyRule:
    def test_a_write_to_an_unnamed_relation_keeps_the_plan(
        self, front, tmp_path
    ):
        assert _new_misses(front) > 0
        assert _new_misses(front) == 0
        front.store("OTHER", _rows(50))
        front.store("OTHER", _rows(9))  # ... and a rewrite of it
        store = RelationStore(tmp_path / "unnamed")
        store.write("ELSEWHERE", _rows(30))
        for catalog in front.catalogs:
            catalog.attach_store(store)
        hits = front.info()["hits"]
        assert _new_misses(front) == 0
        assert front.info()["hits"] > hits

    def test_a_resize_of_a_named_relation_evicts_it(self, front):
        assert _new_misses(front) > 0
        front.store("B", _rows(60))
        assert _new_misses(front) > 0
        assert _new_misses(front) == 0

    def test_a_preload_evicts_it(self, front):
        """Residents occupy the memories every plan is placed around,
        so all of them are in every key."""
        assert _new_misses(front) > 0
        front.preload("HOT", _rows(5))
        assert _new_misses(front) > 0
        assert _new_misses(front) == 0

    # A sharded plan can only name a placed relation, and a placed
    # relation shadows the store: no attach_store can change what a
    # shard lane plans against.
    @pytest.mark.parametrize("kind", ["machine", "pool"])
    def test_an_attach_store_of_a_named_relation_evicts_it(
        self, kind, tmp_path
    ):
        front = _front(kind)
        small, large = tmp_path / "small", tmp_path / "large"
        RelationStore(small).write("S", _rows(20))
        RelationStore(large).write("S", _rows(48))
        (catalog,) = front.catalogs
        catalog.attach_store(RelationStore(small))
        assert _new_misses(front, STORED_PLAN) == 1
        catalog.attach_store(RelationStore(large))
        assert _new_misses(front, STORED_PLAN) == 1
        # The same bytes behind another store object: nothing changed.
        catalog.attach_store(RelationStore(large))
        assert _new_misses(front, STORED_PLAN) == 0


def test_ill_typed_divide_is_refused_at_compile(front):
    """``a_group == a_value`` and mismatched value domains used to
    compile, print an estimate, and fail only on the device."""
    front.store("D", Relation(Schema.of(("k", _DOMAIN)), [(1,), (2,)]))
    front.store("X", Relation(Schema.of(("k", _OTHER)), [(1,), (2,)]))
    with pytest.raises(SchemaError, match="different columns"):
        front.compile(Divide(Base("A"), Base("D"), a_value=1, a_group=1))
    with pytest.raises(SchemaError, match="different domains"):
        front.compile(Divide(Base("A"), Base("X"), a_value=1, a_group=0))
    assert front.info()["size"] == 0  # a refusal caches nothing
    front.compile(Divide(Base("A"), Base("D"), a_value=1, a_group=0))
