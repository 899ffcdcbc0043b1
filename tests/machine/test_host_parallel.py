"""One host thread per query, one state policy, and the compile cache
on the Fig 9-1 machine.

``run_physical`` resolves device runs and disk reads in a compute
phase, one op after another on the calling thread, then replays the
timing bookkeeping — a transaction is a function of (catalog, plan),
whichever front end runs it.  ``compile`` memoizes physical plans
behind a fingerprint that covers plan structure (including subtree
sharing), arrivals, pipelining, the catalog's content fingerprint over
the relations the plans name, and the device roster.
"""

import threading

import pytest

from repro import obs
from repro.errors import PlanError
from repro.machine import (
    Base,
    Dedup,
    EnginePool,
    Intersect,
    Join,
    Project,
    SystolicDatabaseMachine,
)
from repro.machine.physical import plan_fingerprint
from repro.store import RelationStore
from repro.workloads import join_pair, overlapping_pair


def _store_relations(target) -> None:
    """The four relations of :func:`_transaction`, on ``target``'s disk."""
    a, b = overlapping_pair(12, 10, 5, arity=2, seed=30)
    ja, jb = join_pair(14, 12, 6, seed=31)
    target.store("A", a)
    target.store("B", b)
    target.store("JA", ja)
    target.store("JB", jb)


def fresh_machine(backend=None):
    """A machine holding the four relations of :func:`_transaction`."""
    m = SystolicDatabaseMachine(backend=backend)
    _store_relations(m)
    return m


@pytest.fixture
def machine():
    return fresh_machine()


def _transaction():
    """Three plans: two independent, one sharing a subtree with nothing."""
    join = Join(Base("JA"), Base("JB"), on=[("key", "key")])
    return [
        Intersect(Base("A"), Base("B")),
        Project(join, ["a0", "b0"]),
        Dedup(Base("A")),
    ]


class TestOneHostThread:
    """A query is computed on the thread that issued it: the overlap of
    independent operations is on the simulated timeline only."""

    @pytest.mark.parametrize("front_end", ["machine", "session", "4 shards"])
    def test_a_query_starts_no_thread(self, front_end, monkeypatch):
        if front_end == "machine":
            target = SystolicDatabaseMachine()
        else:
            target = EnginePool().session(
                "acme", shards=4 if front_end == "4 shards" else 1
            )
        _store_relations(target)
        physical = target.compile(_transaction())
        if front_end == "4 shards":
            physical = physical.physicals[0]
        # Several ops with no inputs among them: the work a wave
        # scheduler would have fanned out.
        assert sum(not op.inputs for op in physical.ops) >= 2
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(3):
            results, _ = target.run_many(_transaction())
            assert len(results) == 3
        assert started == []

    @pytest.mark.parametrize("shards", [1, 2])
    def test_session_still_accepts_parallel(self, shards):
        """``benchmarks/e2e/workloads/bulk_join.py`` opens its sessions
        with ``parallel=True``; the keyword is accepted and ignored."""
        session = EnginePool().session("t", shards=shards, parallel=True)
        a, b = overlapping_pair(12, 10, 5, arity=2, seed=30)
        session.store("A", a)
        session.store("B", b)
        result, _ = session.run(Intersect(Base("A"), Base("B")))
        assert len(result) == 5


class TestOneStatePolicy:
    """Machine == pool session == brand-new machine: a transaction is a
    function of (catalog, plan), whichever front end runs it and
    however many ran before it."""

    @staticmethod
    def _populate(target) -> None:
        """B on the disk, A and JA resident; JB comes from the store."""
        a, b = overlapping_pair(12, 10, 5, arity=2, seed=30)
        ja, _ = join_pair(14, 12, 6, seed=31)
        target.store("B", b)
        target.preload("A", a)
        target.preload("JA", ja)

    @staticmethod
    def _traced_run(target):
        with obs.tracing() as tracer:
            results, report = target.run_many(_transaction())
        (run_span,) = tracer.find("machine.run")
        return results, report.steps, run_span.structure()

    def test_front_ends_and_reruns_agree(self, tmp_path):
        store = RelationStore(tmp_path / "relations")
        store.write("JB", join_pair(14, 12, 6, seed=31)[1])
        machine = SystolicDatabaseMachine()
        session = EnginePool().session("acme")
        brand_new = SystolicDatabaseMachine()
        for target in (machine, session, brand_new):
            self._populate(target)
        machine.attach_store(store)
        brand_new.attach_store(store)
        session.catalog.attach_store(store)
        baseline = self._traced_run(brand_new)
        assert any(step.device == "disk" for step in baseline[1])
        for target in (machine, session):
            for _ in range(3):
                assert self._traced_run(target) == baseline


class TestPlanCache:
    def test_structural_hit_returns_same_plan(self, machine):
        first = machine.compile(_transaction())
        second = machine.compile(_transaction())
        assert second is first
        info = machine.plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_cached_plan_executes_repeatedly(self, machine):
        results = [
            machine.run_many(_transaction())[0] for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]
        assert machine.plan_cache_info()["hits"] == 2

    def test_different_shape_misses(self, machine):
        machine.compile(Intersect(Base("A"), Base("B")))
        machine.compile(Intersect(Base("B"), Base("A")))
        machine.compile(Dedup(Base("A")))
        assert machine.plan_cache_info()["misses"] == 3

    def test_pipeline_flag_and_arrivals_key(self, machine):
        plans = _transaction()
        machine.compile(plans)
        machine.compile(plans, pipeline=False)
        machine.compile(plans, arrivals=[0.0, 0.1, 0.2])
        assert machine.plan_cache_info()["misses"] == 3

    def test_store_invalidates(self, machine):
        machine.compile(_transaction())
        a, _ = overlapping_pair(6, 6, 3, arity=2, seed=99)
        machine.store("A", a)  # catalog changed: sizes differ
        machine.compile(_transaction())
        assert machine.plan_cache_info()["hits"] == 0
        assert machine.plan_cache_info()["misses"] == 2

    def test_preload_invalidates(self, machine):
        machine.compile(_transaction())
        extra, _ = overlapping_pair(4, 4, 2, arity=2, seed=7)
        machine.preload("EXTRA", extra)
        machine.compile(_transaction())
        assert machine.plan_cache_info()["misses"] == 2

    def test_lru_eviction(self):
        m = SystolicDatabaseMachine(plan_cache_size=1)
        a, b = overlapping_pair(6, 5, 3, arity=2, seed=1)
        m.store("A", a)
        m.store("B", b)
        m.compile(Intersect(Base("A"), Base("B")))
        m.compile(Dedup(Base("A")))  # evicts the intersect plan
        m.compile(Intersect(Base("A"), Base("B")))
        info = m.plan_cache_info()
        assert info["size"] == 1
        assert info["misses"] == 3 and info["hits"] == 0

    def test_zero_size_disables(self):
        m = SystolicDatabaseMachine(plan_cache_size=0)
        a, b = overlapping_pair(6, 5, 3, arity=2, seed=1)
        m.store("A", a)
        m.store("B", b)
        m.compile(Intersect(Base("A"), Base("B")))
        assert m.plan_cache_info()["size"] == 0

    def test_negative_size_rejected(self):
        with pytest.raises(PlanError, match="plan_cache_size"):
            SystolicDatabaseMachine(plan_cache_size=-1)


class TestPlanFingerprint:
    def test_sharing_is_part_of_the_key(self):
        shared = Base("A")
        with_sharing = Intersect(shared, shared)
        without = Intersect(Base("A"), Base("A"))
        assert plan_fingerprint([with_sharing]) != plan_fingerprint([without])
        assert plan_fingerprint([without]) == plan_fingerprint(
            [Intersect(Base("A"), Base("A"))]
        )

    def test_parameters_distinguish(self):
        j1 = Join(Base("JA"), Base("JB"), on=[("key", "key")])
        j2 = Join(Base("JA"), Base("JB"), on=[("a0", "b0")])
        assert plan_fingerprint([j1]) != plan_fingerprint([j2])

    def test_fingerprint_is_hashable(self):
        key = plan_fingerprint(_transaction())
        assert hash(key) is not None
