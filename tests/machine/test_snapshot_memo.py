"""A warm compile re-derives nothing of its planning snapshot.

Each ``BaseRecord`` is kept beside its source — the disk's relation at
its cylinder, the preloaded relation, the store's read handle — and
each assembled ``PlanningContext`` (fingerprint included) is kept by its
catalog while every record it holds is the very one a fresh look finds.
No writer has to clear these memos (a write drops its name's records
only to let go of the old relation): a record or context is reused only
while its source is the same object, so every case here compiles
exactly the plan a compile that rebuilt its snapshot from scratch
compiles.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.arrays import ArrayCapacity
from repro.machine import (
    Base,
    BaseRecord,
    Catalog,
    EnginePool,
    Join,
    MachineDisk,
    PhysicalPlanner,
    PlanningContext,
)
from repro.machine.memory import preloaded_free_bytes
from repro.machine.physical import base_reads
from repro.perf.disk import DiskModel
from repro.relational.relation import Relation
from repro.store import RelationStore
from repro.workloads import join_pair, random_relation

JOIN = Join(Base("R"), Base("S"), on=(("a0", "b0"),))


def _pool(**options) -> EnginePool:
    capacity = ArrayCapacity(max_rows=15, max_cols=4)
    return EnginePool(
        devices=(("join", 2, capacity),), capacity=capacity, **options
    )


def _rebuilt(pool, catalog, plans, devices=None) -> PlanningContext:
    """The context a compile without any memo plans from: every record
    built afresh from what the catalog holds now."""
    disk, preloaded = catalog.disk, dict(catalog.preloaded())
    store = disk.backing_store
    bases = {}
    for name, columns in base_reads(plans):
        if name in preloaded:
            bases[name] = BaseRecord.of(preloaded[name], columns, True)
        elif store is not None and store.holds(name):
            handle = store.find(name)
            bases[name] = BaseRecord(
                handle.rows, handle.schema, distinct=tuple(
                    (column, handle.distinct_count(column))
                    for column in columns
                ),
                handle=handle,
            )
        else:
            bases[name] = BaseRecord.of(
                disk.relation(name), columns, False, disk.cylinder(name)
            )
    return PlanningContext(
        bases, disk.model, disk.logic_per_track, disk.element_bits,
        tuple(pool.devices if devices is None else devices),
        preloaded_free_bytes(
            catalog.preloaded(), pool.memory_count, pool.memory_bytes,
            pool.element_bits,
        ),
        pool.element_bits,
    )


def _compiles_as_rebuilt(pool, catalog, plans, devices=None):
    """Compile through the pool (memos and cache) and hold the context
    and the plan to a from-scratch rebuild's."""
    physical = pool.compile(catalog, plans, devices=devices)
    roster = pool.devices if devices is None else list(devices)
    context = catalog.planning_context(
        base_reads(plans), roster, (pool.memory_count, pool.memory_bytes),
        pool.element_bits,
    )
    reference = _rebuilt(pool, catalog, plans, devices)
    assert context == reference
    assert context.fingerprint == reference.fingerprint
    assert physical.explain() == (
        PhysicalPlanner(reference).compile(plans).explain()
    )
    return context


class TestMemoizedRecords:
    def test_a_warm_compile_hands_back_the_same_context(self):
        pool, catalog = _pool(), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        first = _compiles_as_rebuilt(pool, catalog, [JOIN])
        assert _compiles_as_rebuilt(pool, catalog, [JOIN]) is first
        assert catalog.disk.record("R", ("a0",)) is first.bases["R"]

    def test_a_re_store_under_the_same_name(self):
        pool, catalog = _pool(), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        before = _compiles_as_rebuilt(pool, catalog, [JOIN])
        other, _ = join_pair(26, 12, 6, seed=4)
        catalog.store("R", other)
        after = _compiles_as_rebuilt(pool, catalog, [JOIN])
        assert after.bases["R"].rows == 26 != before.bases["R"].rows

    def test_the_same_relation_re_stored_after_its_cylinder_moved(self):
        """First-fit after a free: ``A`` lies on cylinder 1 until ``X``
        shrinks, and the very same ``A`` written again moves to 0."""
        pool = _pool()
        catalog = Catalog(disk=MachineDisk(DiskModel(cylinder_bytes=100)))
        x = random_relation(15, 1, universe=100, seed=1)  # 60 bytes
        a = random_relation(15, 1, universe=100, seed=2)
        catalog.store("X", x)
        catalog.store("A", a)
        plans = [Base("A"), Base("X")]
        before = _compiles_as_rebuilt(pool, catalog, plans)
        assert before.bases["A"].cylinder == 1
        catalog.store("X", random_relation(2, 1, universe=100, seed=3))
        catalog.store("A", a)
        after = _compiles_as_rebuilt(pool, catalog, plans)
        assert after.bases["A"].cylinder == 0
        assert catalog.disk.relation("A") is a

    def test_a_record_a_racing_reader_put_back_is_not_reused(self):
        """A write drops the name's kept records, but a reader under
        another lock (a shard lane) may put back one it built from the
        old source a moment later: the source check still refuses it."""
        pool = _pool()
        catalog = Catalog(disk=MachineDisk(DiskModel(cylinder_bytes=100)))
        x = random_relation(15, 1, universe=100, seed=1)
        a = random_relation(15, 1, universe=100, seed=2)
        catalog.store("X", x)
        catalog.store("A", a)
        plans = [Base("A"), Base("X")]
        _compiles_as_rebuilt(pool, catalog, plans)
        stale = {name: catalog.disk._records[name] for name in ("A", "X")}
        catalog.store("X", random_relation(2, 1, universe=100, seed=3))
        catalog.store("A", a)  # the same object, now on cylinder 0
        catalog.disk._records.update(stale)
        after = _compiles_as_rebuilt(pool, catalog, plans)
        assert (after.bases["A"].cylinder, after.bases["X"].rows) == (0, 2)

    def test_a_preload(self):
        pool, catalog = _pool(memories=2, memory_bytes=4096), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        before = _compiles_as_rebuilt(pool, catalog, [JOIN])
        # A preload the plans do not read still takes memory.
        catalog.preload("HOT", random_relation(30, 2, seed=5))
        other = _compiles_as_rebuilt(pool, catalog, [JOIN])
        assert other.memory_free != before.memory_free
        # One that shadows a stored relation turns its record resident.
        catalog.preload("S", s)
        resident = _compiles_as_rebuilt(pool, catalog, [JOIN])
        assert resident.bases["S"].resident
        assert _compiles_as_rebuilt(pool, catalog, [JOIN]) is resident

    def test_a_lane_shares_the_kept_contexts(self):
        """A per-query lane (``Catalog.lane``) hits the contexts its
        catalog kept, until its own preloads change what it plans."""
        pool, catalog = _pool(memories=2, memory_bytes=4096), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        kept = _compiles_as_rebuilt(pool, catalog, [JOIN])
        lane = catalog.lane()
        assert _compiles_as_rebuilt(pool, lane, [JOIN]) is kept
        lane.preload("X", random_relation(30, 2, seed=5))
        moved = _compiles_as_rebuilt(pool, lane, [JOIN])
        assert moved.memory_free != kept.memory_free
        other = catalog.lane()
        other.preload("R", r)
        resident = _compiles_as_rebuilt(pool, other, [JOIN])
        assert resident.bases["R"].resident
        # One context a key: the lanes' took the catalog's place, and
        # the catalog's own compile builds it again, equal to the first.
        assert _compiles_as_rebuilt(pool, catalog, [JOIN]) == kept
        assert "X" not in catalog and not catalog.preloaded()

    def test_the_free_bytes_are_counted_once_a_preload(self, monkeypatch):
        """A context miss counts what the preloads leave of the memories
        once; a hit, or a miss on other reads, counts it not at all
        until the next preload."""
        from repro.machine import catalog as machine_catalog

        counted = []

        def counting(*args):
            counted.append(args[1:])
            return preloaded_free_bytes(*args)

        monkeypatch.setattr(machine_catalog, "preloaded_free_bytes", counting)
        pool, catalog = _pool(memories=2, memory_bytes=4096), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        catalog.preload("HOT", random_relation(30, 2, seed=5))
        before = _compiles_as_rebuilt(pool, catalog, [JOIN])
        assert len(counted) == 1
        assert _compiles_as_rebuilt(pool, catalog, [Base("R")]).memory_free \
            == before.memory_free
        assert len(counted) == 1
        catalog.preload("WARM", random_relation(20, 2, seed=6))
        assert _compiles_as_rebuilt(pool, catalog, [JOIN]).memory_free \
            != before.memory_free
        assert len(counted) == 2

    def test_a_lane_receives_what_was_kept(self):
        """``Catalog.receive`` hands a lane the records and free bytes an
        earlier lane kept under the same key; the free bytes only while
        the preloads they follow are the same."""
        pool, catalog = _pool(memories=2, memory_bytes=4096), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        kept: dict = {}
        first = catalog.lane()
        first.receive([("R", Relation(r.schema, r.array))], kept, (0, 0))
        context = _compiles_as_rebuilt(pool, first, [JOIN])
        second = catalog.lane()
        second.receive([("R", Relation(r.schema, r.array))], kept, (0, 0))
        assert _compiles_as_rebuilt(pool, second, [JOIN]) is context
        # A tenant preload the plans do not read moves the free bytes.
        catalog.preload("HOT", random_relation(30, 2, seed=5))
        third = catalog.lane()
        third.receive([("R", Relation(r.schema, r.array))], kept, (0, 0))
        moved = _compiles_as_rebuilt(pool, third, [JOIN])
        assert moved.bases["R"] is context.bases["R"]
        assert moved.memory_free != context.memory_free

    def test_a_rewrite_through_a_second_store_on_the_same_root(
        self, tmp_path
    ):
        pool, catalog = _pool(), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.attach_store(RelationStore(tmp_path))
        catalog.persist("R", r)
        catalog.store("S", s)
        before = _compiles_as_rebuilt(pool, catalog, [JOIN])
        other, _ = join_pair(33, 12, 6, seed=4)
        RelationStore(tmp_path).write("R", other)
        after = _compiles_as_rebuilt(pool, catalog, [JOIN])
        assert (before.bases["R"].rows, after.bases["R"].rows) == (20, 33)
        assert after.bases["R"].handle.digest != before.bases["R"].handle.digest

    def test_a_degraded_roster(self):
        pool, catalog = _pool(), Catalog()
        r, s = join_pair(20, 12, 6, seed=3)
        catalog.store("R", r)
        catalog.store("S", s)
        full = _compiles_as_rebuilt(pool, catalog, [JOIN])
        survivors = [d for d in pool.devices if d.name != "join0"]
        degraded = _compiles_as_rebuilt(
            pool, catalog, [JOIN], devices=survivors
        )
        assert degraded.fingerprint != full.fingerprint
        assert _compiles_as_rebuilt(pool, catalog, [JOIN]) is full


def test_four_threads_storing_and_compiling_at_once():
    """Writers swap ``R`` between two versions while compiles run: each
    compile's context is one version's whole, and the last compile is
    the rebuilt one."""
    pool, catalog = _pool(), Catalog()
    versions = [join_pair(n, 12, 6, seed=n)[0] for n in (20, 27)]
    catalog.store("R", versions[0])
    catalog.store("S", join_pair(20, 12, 6, seed=3)[1])
    records = {
        len(v): BaseRecord.of(v, ("a0",), False, 0) for v in versions
    }
    seen, errors = [], []
    start = threading.Barrier(4)

    def work(index: int) -> None:
        try:
            start.wait()
            for turn in range(40):
                if index % 2 == 0:
                    catalog.store("R", versions[(turn + index // 2) % 2])
                physical = pool.compile(catalog, [JOIN])
                context = catalog.planning_context(
                    base_reads([JOIN]), pool.devices,
                    (pool.memory_count, pool.memory_bytes),
                )
                record = context.bases["R"]
                seen.append(record.rows)
                assert record._replace(cylinder=0) == records[record.rows]
                assert physical.ops
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert set(seen) <= set(records)
    _compiles_as_rebuilt(pool, catalog, [JOIN])


class TestWarmHitsDeriveNothing:
    @pytest.fixture
    def derivations(self, monkeypatch) -> list:
        """One entry per ``BaseRecord.of`` / ``Relation.distinct_count``
        call."""
        calls = []
        of, distinct_count = BaseRecord.of.__func__, Relation.distinct_count

        def counted_of(cls, *args, **kwargs):
            calls.append("BaseRecord.of")
            return of(cls, *args, **kwargs)

        def counted_distinct(self, column):
            calls.append("distinct_count")
            return distinct_count(self, column)

        monkeypatch.setattr(BaseRecord, "of", classmethod(counted_of))
        monkeypatch.setattr(Relation, "distinct_count", counted_distinct)
        return calls

    def test_a_pool_compile_hit(self, derivations):
        pool = _pool()
        session = pool.session("acme")
        r, s = join_pair(20, 12, 6, seed=3)
        session.store("R", r)
        session.store("S", s)
        cold = pool.compile(session.catalog, [JOIN])
        assert derivations
        derivations.clear()
        for _ in range(3):
            assert pool.compile(session.catalog, [JOIN]) is cold
        assert derivations == []

    def test_a_sharded_lowering_hit(self, derivations):
        session = _pool().session("acme", shards=2)
        r, s = join_pair(40, 24, 12, seed=3)
        session.store("R", r, key="key")
        session.store("S", s, key="key")
        executor = session._sharded
        cold = executor.plan([JOIN])
        assert derivations
        derivations.clear()
        for _ in range(3):
            assert executor.plan([JOIN]) is cold
        assert derivations == []
