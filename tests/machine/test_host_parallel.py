"""Host-parallel execution and the compile cache on the Fig 9-1 machine.

``run_physical`` now resolves device runs and disk reads in a compute
phase that overlaps independent operations on host threads, then
replays the timing bookkeeping sequentially — so a parallel run must be
*bit-identical* to a serial one: same relations, same scheduled steps.
``compile`` memoizes physical plans behind a fingerprint that covers
plan structure (including subtree sharing), arrivals, pipelining, the
catalog version, and the device roster.
"""

import threading
import time

import pytest

from repro import obs
from repro.errors import PlanError
from repro.machine import (
    Base,
    Dedup,
    Divide,
    EnginePool,
    Intersect,
    Join,
    Project,
    SystolicDatabaseMachine,
)
from repro.machine.execution import resolve_parallel
from repro.machine.physical import plan_fingerprint
from repro.machine import scheduler
from repro.machine.scheduler import HostExecutor, host_stats
from repro.store import RelationStore
from repro.workloads import division_example, join_pair, overlapping_pair


def fresh_machine(backend=None):
    """A machine holding the four relations of :func:`_transaction`."""
    m = SystolicDatabaseMachine(backend=backend)
    a, b = overlapping_pair(12, 10, 5, arity=2, seed=30)
    ja, jb = join_pair(14, 12, 6, seed=31)
    m.store("A", a)
    m.store("B", b)
    m.store("JA", ja)
    m.store("JB", jb)
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


class TestHostExecutor:
    def test_diamond_serial_equals_parallel(self):
        thunks = {
            1: ((), lambda deps: 10),
            2: ((1,), lambda deps: deps[1] + 1),
            3: ((1,), lambda deps: deps[1] * 2),
            4: ((2, 3), lambda deps: deps[2] + deps[3]),
        }
        serial = HostExecutor(max_workers=1).run(dict(thunks))
        parallel = HostExecutor(max_workers=4).run(dict(thunks))
        assert serial == parallel == {1: 10, 2: 11, 3: 20, 4: 31}

    def test_seed_results_feed_thunks(self):
        thunks = {2: ((1,), lambda deps: deps[1] + 5)}
        out = HostExecutor(max_workers=2).run(thunks, seed={1: 7})
        assert out == {1: 7, 2: 12}

    def test_unknown_dependency_rejected(self):
        with pytest.raises(PlanError, match="unknown ops"):
            HostExecutor(max_workers=1).run({1: ((99,), lambda deps: 0)})

    def test_cycle_rejected(self):
        thunks = {
            1: ((2,), lambda deps: 0),
            2: ((1,), lambda deps: 0),
        }
        for workers in (1, 4):
            with pytest.raises(PlanError, match="cycle"):
                HostExecutor(max_workers=workers).run(dict(thunks))

    def test_bad_worker_count_rejected(self):
        with pytest.raises(PlanError, match="max_workers"):
            HostExecutor(max_workers=0)


def _within(seconds: float, fn):
    """``fn()`` on a thread of its own, failed — not waited for — when
    it outlives ``seconds``: a scheduler deadlock must fail a test, not
    hang the suite."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds}s: deadlock?"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestSharedWorkers:
    """One long-lived worker set: no thread per query, errors that
    leave nothing running, and counters that tell inline from hopped."""

    def test_repeated_queries_start_no_threads(self, monkeypatch):
        machine = fresh_machine(backend="lattice")
        host_workers = HostExecutor().max_workers
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = threading.active_count()
        first, _ = machine.run_many(_transaction())
        for _ in range(199):
            results, _ = machine.run_many(_transaction())
        assert results == first
        # Not one per call: at most the worker set itself, once.
        assert len(started) <= host_workers
        assert abs(threading.active_count() - before) <= host_workers

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_raising_thunk_propagates_and_leaves_no_sibling_running(
        self, workers
    ):
        running = set()
        lock = threading.Lock()

        class Boom(Exception):
            pass

        def slow(op_id):
            def thunk(deps):
                with lock:
                    running.add(op_id)
                time.sleep(0.05)
                with lock:
                    running.discard(op_id)
                return op_id

            return thunk

        def boom(deps):
            time.sleep(0.01)
            raise Boom("op 3 failed")

        thunks = {i: ((), slow(i)) for i in (1, 2, 4, 5)}
        thunks[3] = ((), boom)
        with pytest.raises(Boom, match="op 3 failed"):
            _within(10.0, lambda: HostExecutor(max_workers=workers).run(thunks))
        assert running == set()

    def test_a_wave_of_one_never_changes_thread(self):
        caller = threading.current_thread()
        seen = []

        def note(deps):
            seen.append(threading.current_thread())
            return len(seen)

        chain = {1: ((), note), 2: ((1,), note), 3: ((2,), note)}
        before = host_stats()
        HostExecutor(max_workers=4).run(chain)
        after = host_stats()
        assert seen == [caller] * 3
        assert after["tasks"] - before["tasks"] == 3
        assert after["inline_tasks"] - before["inline_tasks"] == 3

    def test_at_most_max_workers_thunks_in_flight(self):
        lock = threading.Lock()
        active = peak = 0

        def thunk(deps):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.01)
            with lock:
                active -= 1

        HostExecutor(max_workers=3).run({i: ((), thunk) for i in range(12)})
        assert 1 <= peak <= 3


@pytest.fixture
def two_workers(monkeypatch):
    """A fresh worker set of two threads, whatever this host's core
    count, so that four lanes really are more lanes than workers."""
    monkeypatch.setattr(scheduler, "_host_width", lambda: 2)
    workers = scheduler._HostWorkers()
    monkeypatch.setattr(scheduler, "_WORKERS", workers)
    yield
    if workers._pool is not None:
        workers._pool.shutdown(wait=False)


@pytest.mark.usefixtures("two_workers")
class TestNestedWaves:
    """Runs nest on the one worker set — a shard lane's thunk opens the
    waves of its own machine run — and must finish with lanes ≥ workers
    (with a width of four, three lanes queue for two threads and each
    running lane queues thunks of its own behind them), equal to the
    serial run.  CI repeats this class under ``timeout``."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thunks_that_run_their_own_waves(self, workers):
        def inner(lane):
            def thunk(deps):
                leaves = {
                    i: ((), lambda deps, i=i: (lane, i)) for i in range(4)
                }
                leaves[9] = ((0, 1, 2, 3), lambda deps: sorted(deps.values()))
                return HostExecutor(max_workers=workers).run(leaves)[9]

            return thunk

        lanes = {lane: ((), inner(lane)) for lane in range(4)}
        lanes[8] = ((0, 1, 2, 3), lambda deps: sum(map(len, deps.values())))
        serial = HostExecutor(max_workers=1).run(dict(lanes))
        nested = _within(
            30.0, lambda: HostExecutor(max_workers=workers).run(dict(lanes))
        )
        assert nested == serial and nested[8] == 16

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_four_shard_join_equals_the_serial_run(self, workers):
        ja, jb = join_pair(60, 50, 20, seed=31)
        plans = [
            Project(Join(Base("JA"), Base("JB"), on=[("key", "key")]),
                    ["a0", "b0"]),
            Join(Base("JA"), Base("JB"), on=[(1, 1)]),  # repartitions
        ]

        def traced(parallel):
            session = EnginePool(host_workers=workers).session(
                "acme", shards=4
            )
            session.store("JA", ja)
            session.store("JB", jb)
            with obs.tracing() as tracer:
                results, report = session.run_many(plans, parallel=parallel)
            (query,) = tracer.find("service.query")
            return results, report.steps, query.structure()

        serial = traced(False)
        assert _within(60.0, lambda: traced(True)) == serial


class TestParallelRunPhysical:
    def test_parallel_matches_serial_bit_for_bit(self):
        mp, ms = fresh_machine(), fresh_machine()
        parallel_results, parallel_report = mp.run_physical(
            mp.compile(_transaction()), parallel=True
        )
        serial_results, serial_report = ms.run_physical(
            ms.compile(_transaction()), parallel=False
        )
        assert parallel_results == serial_results
        assert parallel_report.steps == serial_report.steps

    def test_run_many_accepts_parallel_flag(self):
        mp, ms = fresh_machine(), fresh_machine()
        results_p, report_p = mp.run_many(_transaction(), parallel=True)
        results_s, report_s = ms.run_many(_transaction(), parallel=False)
        assert results_p == results_s
        assert report_p.steps == report_s.steps

    def test_environment_kill_switch(self, machine, monkeypatch):
        monkeypatch.setenv("REPRO_MACHINE_PARALLEL", "off")
        assert resolve_parallel(None) is False
        monkeypatch.setenv("REPRO_MACHINE_PARALLEL", "1")
        assert resolve_parallel(None) is True
        assert resolve_parallel(False) is False
        results, _ = machine.run_many(_transaction())
        assert len(results) == 3

    def test_pipelined_chain_with_parallel_compute(self):
        da, db, dc = division_example()

        def run(parallel):
            m = SystolicDatabaseMachine()
            m.store("DA", da)
            m.store("DB", db)
            return m.run_many(
                [Divide(Base("DA"), Base("DB"))], parallel=parallel
            )

        (result_p,), report_p = run(True)
        (result_s,), report_s = run(False)
        assert result_p == result_s == dc
        assert report_p.steps == report_s.steps


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

    def test_use_cache_false_bypasses(self, machine):
        machine.compile(_transaction(), use_cache=False)
        info = machine.plan_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0, "maxsize": 64}

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
