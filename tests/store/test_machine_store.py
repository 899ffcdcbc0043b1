"""Store-backed execution: planner pruning, differential correctness.

The contract under test: a machine whose disk is backed by the
columnar store must produce **bit-identical results** to a machine
holding the same relation in memory, while reading strictly fewer
chunks for selective predicates — on the lattice and bitplane engines
alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import ArrayCapacity
from repro.errors import PlanError, StoreError
from repro.machine import (
    MachineDisk,
    Base,
    Catalog,
    Difference,
    EnginePool,
    Intersect,
    Join,
    Project,
    Select,
    SystolicDatabaseMachine,
    Union,
)
from repro.obs import metrics
from repro.perf.cost import ScanCost
from repro.relational.domain import IntegerDomain
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.store import RelationStore
from repro.workloads import join_pair

_INT = IntegerDomain("int")

N_ROWS = 3000
CHUNK_ROWS = 250


def _sp_schema() -> Schema:
    return Schema.of(("s", _INT), ("p", _INT), ("qty", _INT))


def _sp_rows(n: int = N_ROWS) -> list[tuple[int, int, int]]:
    rng = np.random.default_rng(7)
    s = rng.integers(0, 50, n)
    p = rng.integers(0, 80, n)
    qty = np.arange(n)  # keeps full rows distinct
    return [tuple(map(int, row)) for row in np.stack([s, p, qty], axis=1)]


@pytest.fixture(scope="module")
def sp_rows():
    return _sp_rows()


@pytest.fixture()
def stored(tmp_path, sp_rows):
    store = RelationStore(tmp_path / "relations")
    store.write(
        "SP", Relation(_sp_schema(), sp_rows),
        chunk_rows=CHUNK_ROWS, index_columns=("s", "p"),
    )
    return store


def _machine(backend=None) -> SystolicDatabaseMachine:
    return SystolicDatabaseMachine(backend=backend)


#: the in-memory operand in both of its forms: built from Python
#: tuples, and built from the ``(n, arity)`` int64 matrix.
FORMS = {
    "tuples": lambda schema, rows: Relation(schema, rows),
    "array": lambda schema, rows: Relation(
        schema, np.array(rows, dtype=np.int64)
    ),
}


SELECT_PLANS = [
    ("eq", Select(Base("SP"), column="s", op="==", value=17)),
    ("lt", Select(Base("SP"), column="p", op="<", value=9)),
    ("ge", Select(Base("SP"), column="s", op=">=", value=44)),
]


class TestDifferential:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("backend", [None, "lattice", "bitplane"])
    @pytest.mark.parametrize(
        "plan", [p for _, p in SELECT_PLANS], ids=[k for k, _ in SELECT_PLANS]
    )
    def test_store_backed_select_matches_in_memory(
        self, stored, sp_rows, backend, plan, form
    ):
        reference = _machine(backend)
        reference.store("SP", FORMS[form](_sp_schema(), sp_rows))
        expected, _ = reference.run(plan)

        disk_backed = _machine(backend)
        disk_backed.attach_store(stored)
        actual, report = disk_backed.run(plan)

        assert actual == expected
        assert sorted(actual.tuples) == sorted(expected.tuples)
        assert report.makespan > 0

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("backend", ["lattice", "bitplane"])
    def test_store_backed_join_matches_in_memory(
        self, stored, sp_rows, backend, form
    ):
        supplier_rows = [(i, i % 5) for i in range(50)]
        s_schema = Schema.of(("s", _INT), ("city", _INT))
        plan = Project(
            Join(
                Select(Base("SP"), column="s", op="<", value=6),
                Base("S"),
                on=((0, 0),),
            ),
            (0, 1, 3),
        )

        reference = _machine(backend)
        reference.store("SP", FORMS[form](_sp_schema(), sp_rows))
        reference.store("S", FORMS[form](s_schema, supplier_rows))
        expected, _ = reference.run(plan)

        disk_backed = _machine(backend)
        disk_backed.attach_store(stored)
        disk_backed.store("S", FORMS[form](s_schema, supplier_rows))
        actual, _ = disk_backed.run(plan)

        assert actual == expected
        assert len(expected) > 0

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("backend", [None, "lattice", "bitplane"])
    def test_store_backed_set_operators_match_in_memory(
        self, tmp_path, sp_rows, backend, form
    ):
        """Columnar operands through the comparison array itself:
        intersection, difference, union and projection (dedup) of a
        store-backed relation with an in-memory one, small enough for
        the pulse oracle."""
        left, right = sp_rows[:40], sp_rows[25:60]
        store = RelationStore(tmp_path / "small")
        store.write("L", Relation(_sp_schema(), left), chunk_rows=16)
        plans = [
            Intersect(Base("L"), Base("R")),
            Difference(Base("L"), Base("R")),
            Union(Base("L"), Base("R")),
            Project(Base("L"), (0,)),
        ]

        reference = _machine(backend)
        reference.store("L", Relation(_sp_schema(), left))
        reference.store("R", Relation(_sp_schema(), right))
        disk_backed = _machine(backend)
        disk_backed.attach_store(store)
        disk_backed.store("R", FORMS[form](_sp_schema(), right))

        for plan in plans:
            expected, _ = reference.run(plan)
            actual, _ = disk_backed.run(plan)
            assert actual == expected, plan.describe()
            assert len(expected) > 0

    def test_selective_query_records_pruning(self, stored):
        machine = _machine()
        machine.attach_store(stored)
        metrics.enable()
        try:
            machine.run(SELECT_PLANS[0][1])
            assert metrics.counter("store.chunks_pruned") > 0
            assert metrics.counter("store.chunks_read") > 0
        finally:
            metrics.disable()
            metrics.reset()


class TestStaleStaging:
    def test_a_killed_writers_staging_directory_is_not_a_relation(
        self, stored
    ):
        """A writer of the previous layout killed after its manifest
        write and before its rename left ``.tmp-<name>-<random>/
        manifest.json`` behind; the store must not list it, and compiles
        must keep working."""
        staging = stored.root / ".tmp-R-k2x9q_7a"
        staging.mkdir()
        (staging / "manifest.json").write_text(
            (stored.root / "SP" / "manifest.json").read_text()
        )
        assert stored.names() == ["SP"]
        assert not stored.holds(".tmp-R-k2x9q_7a")
        assert [name for name, _ in stored.fingerprint()] == ["SP"]
        machine = _machine()
        machine.attach_store(stored)
        result, _ = machine.run(SELECT_PLANS[0][1])
        assert len(result) > 0


class TestDiskHandles:
    """Each store-backed access on the disk takes its handle from one
    ``RelationStore.find``: one ``stat`` of the manifest, no
    ``holds`` before it."""

    #: ``store_backed``, ``stored_handle`` and ``profile`` are what the
    #: planner learns of SP: its record, alone or in a catalog's
    #: planning snapshot.
    ACCESSES = {
        "store_backed": lambda disk: Catalog(disk=disk).planning_context(
            [("SP", ())]
        ),
        "stored_handle": lambda disk: disk.record("SP").handle,
        "profile": lambda disk: disk.record("SP", ("s",)),
        "relation": lambda disk: disk.relation("SP"),
        "read": lambda disk: disk.read("SP"),
        "read selection": lambda disk: disk.read("SP", ("s", "==", 17)),
    }

    @pytest.mark.parametrize("access", ACCESSES)
    def test_one_manifest_stat_per_access(self, stored, access, monkeypatch):
        import os

        disk = MachineDisk()
        disk.attach_store(stored)
        self.ACCESSES[access](disk)  # the handle is parsed and cached
        stats, holds = [], []
        stat = os.stat
        monkeypatch.setattr(
            os, "stat",
            lambda path, *a, **k: stats.append(os.fspath(path))
            or stat(path, *a, **k),
        )
        monkeypatch.setattr(
            RelationStore, "holds", lambda self, name: holds.append(name)
        )
        self.ACCESSES[access](disk)
        monkeypatch.undo()
        assert holds == []
        assert len(stats) == 1 and stats[0].endswith(
            os.path.join("SP", "manifest.json")
        )

    @pytest.mark.parametrize("access", ACCESSES)
    def test_a_corrupt_manifest_is_named(self, stored, access):
        disk = MachineDisk()
        disk.attach_store(stored)
        (stored.root / "SP" / "manifest.json").write_text("{torn")
        with pytest.raises(StoreError, match="corrupt manifest for 'SP'"):
            self.ACCESSES[access](disk)

    def test_a_corrupt_manifest_is_named_by_a_machine_run(self, stored):
        machine = _machine()
        machine.attach_store(stored)
        (stored.root / "SP" / "manifest.json").write_text("{torn")
        with pytest.raises(StoreError, match="corrupt manifest for 'SP'"):
            machine.run(SELECT_PLANS[0][1])

    def test_a_shadowed_or_missing_name_is_not_store_backed(
        self, stored, sp_rows
    ):
        disk = MachineDisk()
        disk.attach_store(stored)
        disk.store("SP", Relation(_sp_schema(), sp_rows[:3]))
        assert disk.record("SP").handle is None
        assert disk.record("NOPE") is None
        assert disk.record("SP").rows == 3


class TestPlanner:
    def test_fused_select_prunes_chunks(self, stored):
        machine = _machine()
        machine.attach_store(stored)
        plan = Select(Base("SP"), column="s", op="==", value=17)
        physical = machine.compile(plan)
        scans = [op.scan for op in physical.ops if op.scan is not None]
        assert len(scans) == 1
        scan = scans[0]
        assert isinstance(scan, ScanCost)
        assert 0 < scan.chunks_read < scan.chunks_total
        assert scan.chunks_pruned > 0
        assert scan.rows_scanned < N_ROWS
        assert "pruned" in physical.explain()

    def test_full_scan_reads_every_chunk(self, stored):
        machine = _machine()
        machine.attach_store(stored)
        physical = machine.compile(Base("SP"))
        scans = [op.scan for op in physical.ops if op.scan is not None]
        assert len(scans) == 1
        assert scans[0].chunks_read == scans[0].chunks_total
        assert scans[0].chunks_pruned == 0

    def test_pruned_scan_is_estimated_cheaper(self, stored):
        machine = _machine()
        machine.attach_store(stored)
        full = machine.compile(Base("SP"))
        pruned = machine.compile(
            Select(Base("SP"), column="s", op="==", value=17)
        )

        def scan_of(physical):
            (op,) = [o for o in physical.ops if o.scan is not None]
            return op.scan, op.est_end - op.est_start

        full_scan, full_seconds = scan_of(full)
        pruned_scan, pruned_seconds = scan_of(pruned)
        assert pruned_scan.nbytes < full_scan.nbytes
        assert pruned_scan.rows_scanned < full_scan.rows_scanned
        # Small scans can both sit on the disk model's latency floor,
        # so billed time is monotone but not necessarily strict.
        assert pruned_seconds <= full_seconds

    def test_in_memory_relation_shadows_the_store(self, stored, sp_rows):
        """A store()d relation wins over a stored one of the same name,
        and its scan carries no chunk accounting."""
        tiny = Relation(_sp_schema(), sp_rows[:10])
        machine = _machine()
        machine.attach_store(stored)
        machine.store("SP", tiny)
        result, _ = machine.run(Base("SP"))
        assert sorted(result.tuples) == sorted(tiny.tuples)
        physical = machine.compile(Base("SP"))
        assert all(op.scan is None for op in physical.ops)


class TestStoreBackedJoinSizing:
    """The store's manifest counts each column's values at the write, so
    a store-backed key join is sized — and priced — like the in-memory
    one: ``|A|·|B| / max(V_A, V_B)`` rows instead of ``max(|A|, |B|)``."""

    def test_a_store_backed_key_join_explains_like_the_in_memory_one(
        self, tmp_path
    ):
        ja, jb = join_pair(4096, 64, 64, universe=4160, seed=11)
        join = Join(Base("JA"), Base("JB"), on=(("key", "key"),))

        def machine():
            return SystolicDatabaseMachine(
                devices=(("join", 1),),
                capacity=ArrayCapacity(max_rows=1023, max_cols=8),
                memory_bytes=512 * 1024 * 1024, backend="lattice",
            )

        in_memory = machine()
        in_memory.store("JA", ja)
        in_memory.store("JB", jb)
        store = RelationStore(tmp_path)
        store.write("JA", ja)
        store.write("JB", jb)
        store_backed = machine()
        store_backed.attach_store(store)

        def join_row(physical) -> str:
            [row] = [
                line for line in physical.explain().splitlines()
                if line.endswith("join[key==key]")
            ]
            return row

        row = join_row(store_backed.compile(join))
        assert row == join_row(in_memory.compile(join))
        assert row.split()[1:6] == [
            "join0", "64", "32", "fixed", "1x1x1",
        ]
        assert row.split()[7:10] == ["1", "-", "1.671ms"]
        predicted = store_backed.compile(join).predicted_makespan
        result, report = store_backed.run(join)
        assert result == in_memory.run(join)[0]
        assert predicted == pytest.approx(report.makespan, abs=1e-12)
        assert report.makespan * 1e3 == pytest.approx(35.005, abs=5e-4)


class TestCatalog:
    def test_persist_round_trips_through_the_pool(self, tmp_path, sp_rows):
        pool = EnginePool()
        catalog = pool.catalog("acme")
        catalog.attach_store(RelationStore(tmp_path / "acme"))
        catalog.persist(
            "SP", Relation(_sp_schema(), sp_rows[:200]), chunk_rows=32
        )
        plan = Select(Base("SP"), column="s", op="==", value=17)
        results, report = pool.execute(catalog, plan)
        brute = sorted(t for t in sp_rows[:200] if t[0] == 17)
        assert sorted(results[0].tuples) == brute
        assert report.makespan > 0

    def test_persist_without_store_raises(self, sp_rows):
        catalog = EnginePool().catalog("acme")
        with pytest.raises(PlanError, match="no persistent store"):
            catalog.persist("SP", Relation(_sp_schema(), sp_rows[:5]))

    def test_fingerprint_changes_when_store_contents_change(
        self, tmp_path, sp_rows
    ):
        pool = EnginePool()
        catalog = pool.catalog("acme")
        store = RelationStore(tmp_path / "acme")
        catalog.attach_store(store)
        catalog.persist("SP", Relation(_sp_schema(), sp_rows[:50]))
        before = catalog.planning_context([("SP", ())]).fingerprint
        store.write("SP", Relation(_sp_schema(), sp_rows[:60]))
        after = catalog.planning_context([("SP", ())]).fingerprint
        assert before != after

    def test_plan_cache_invalidates_on_rewrite(self, tmp_path, sp_rows):
        """Rewriting a stored relation changes its chunking, so cached
        physical plans (which bake in chunk pruning) must not be
        reused across the rewrite."""
        machine = _machine()
        store = RelationStore(tmp_path / "relations")
        store.write(
            "SP", Relation(_sp_schema(), sp_rows), chunk_rows=CHUNK_ROWS,
            index_columns=("s", "p"),
        )
        machine.attach_store(store)
        plan = Select(Base("SP"), column="s", op="==", value=17)
        first = machine.compile(plan)
        # Rewrite with one giant chunk: nothing left to prune.
        store.write("SP", Relation(_sp_schema(), sp_rows),
                    chunk_rows=N_ROWS)
        # No re-attach: the new manifest digest alone changes the key.
        second = machine.compile(plan)
        (scan1,) = [o.scan for o in first.ops if o.scan is not None]
        (scan2,) = [o.scan for o in second.ops if o.scan is not None]
        assert scan1.chunks_total > 1
        assert scan2.chunks_total == 1


class TestScopedPlanCacheKey:
    """The pool keys a plan by what the planner can read *for that
    plan*: the relations it names (stored bytes included) and whatever
    is memory-resident — nothing else in the catalog."""

    PLAN = Select(Base("SP"), column="s", op="==", value=17)

    @staticmethod
    def _pool_with_store(root, rows):
        pool = EnginePool()
        catalog = pool.catalog("acme")
        catalog.attach_store(RelationStore(root))
        catalog.persist("SP", Relation(_sp_schema(), rows), chunk_rows=64)
        return pool, catalog

    @staticmethod
    def _misses_after_compile(pool, catalog, plan=PLAN) -> int:
        pool.compile(catalog, plan)
        return pool.plan_cache_info()["misses"]

    def test_rewritten_bytes_at_unchanged_cardinality_miss(
        self, tmp_path, sp_rows
    ):
        pool, catalog = self._pool_with_store(tmp_path / "acme", sp_rows[:300])
        assert self._misses_after_compile(pool, catalog) == 1
        assert self._misses_after_compile(pool, catalog) == 1  # a hit
        # Same row count, same schema, other rows: only the manifest
        # digest tells the two apart.
        catalog.persist(
            "SP", Relation(_sp_schema(), sp_rows[300:600]), chunk_rows=64
        )
        assert self._misses_after_compile(pool, catalog) == 2
        # ... and when the rewrite comes from outside this process's
        # store object: a second RelationStore on the same directory.
        RelationStore(tmp_path / "acme").write(
            "SP", Relation(_sp_schema(), sp_rows[600:900]), chunk_rows=64
        )
        assert self._misses_after_compile(pool, catalog) == 3
        assert self._misses_after_compile(pool, catalog) == 3
        results, _ = pool.execute(catalog, self.PLAN)
        assert sorted(results[0].tuples) == sorted(
            t for t in sp_rows[600:900] if t[0] == 17
        )

    def test_unreferenced_writes_keep_the_plan(self, tmp_path, sp_rows):
        pool, catalog = self._pool_with_store(tmp_path / "acme", sp_rows[:300])
        assert self._misses_after_compile(pool, catalog) == 1
        catalog.persist("OTHER", Relation(_sp_schema(), sp_rows[:10]))
        catalog.store("SMALL", Relation(_sp_schema(), sp_rows[:20]))
        assert self._misses_after_compile(pool, catalog) == 1
        assert pool.plan_cache_info()["hits"] == 1

    def test_any_preload_misses(self, tmp_path, sp_rows):
        """Residents occupy the memories every plan is placed around,
        so all of them are in every key."""
        pool, catalog = self._pool_with_store(tmp_path / "acme", sp_rows[:300])
        assert self._misses_after_compile(pool, catalog) == 1
        catalog.preload("UNRELATED", Relation(_sp_schema(), sp_rows[:5]))
        assert self._misses_after_compile(pool, catalog) == 2

    def test_missing_relation_leaves_no_stale_entry(self, tmp_path, sp_rows):
        pool, catalog = self._pool_with_store(tmp_path / "acme", sp_rows[:60])
        plan = Intersect(Base("SP"), Base("LATER"))
        for _ in range(2):
            with pytest.raises(PlanError, match="LATER"):
                pool.compile(catalog, plan)
        catalog.store("LATER", Relation(_sp_schema(), sp_rows[20:80]))
        results, _ = pool.execute(catalog, plan)
        assert sorted(results[0].tuples) == sorted(sp_rows[20:60])
        # The same for a name that appears in the store, not in memory.
        plan = Intersect(Base("SP"), Base("LATER2"))
        with pytest.raises(PlanError, match="LATER2"):
            pool.compile(catalog, plan)
        catalog.persist("LATER2", Relation(_sp_schema(), sp_rows[40:90]))
        results, _ = pool.execute(catalog, plan)
        assert sorted(results[0].tuples) == sorted(sp_rows[40:60])

    def test_hit_costs_one_stat_per_referenced_stored_relation(
        self, tmp_path, sp_rows, monkeypatch
    ):
        import os

        pool, catalog = self._pool_with_store(tmp_path / "acme", sp_rows[:300])
        for name in ("X1", "X2", "X3"):
            catalog.persist(name, Relation(_sp_schema(), sp_rows[:10]))
        pool.compile(catalog, self.PLAN)
        touched = []

        def noting(call):
            def noted(path, *args, **kwargs):
                touched.append(os.fspath(path))
                return call(path, *args, **kwargs)

            return noted

        monkeypatch.setattr(os, "stat", noting(os.stat))
        monkeypatch.setattr(os, "listdir", noting(os.listdir))
        pool.compile(catalog, self.PLAN)
        monkeypatch.undo()
        assert pool.plan_cache_info()["hits"] == 1
        assert len(touched) == 1 and touched[0].endswith(
            os.path.join("SP", "manifest.json")
        )
