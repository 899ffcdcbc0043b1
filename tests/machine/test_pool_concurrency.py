"""Concurrent multi-tenant execution through the engine pool.

The pool's contract: any number of sessions may execute
simultaneously, and every query's results *and* replayed timeline are
bit-identical to running alone on a fresh single-tenant machine.  Plus
the serving semantics around it — cross-tenant plan-cache sharing and
admission backpressure.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.errors import AdmissionError, PlanError
from repro.machine import (
    Base,
    EnginePool,
    Intersect,
    Join,
    Project,
    SystolicDatabaseMachine,
)
from repro.machine.pool import AdmissionGate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads import join_pair, overlapping_pair


def _populate(store) -> None:
    a, b = overlapping_pair(12, 10, 5, arity=3, seed=30)
    ja, jb = join_pair(10, 8, 4, seed=31)
    store("R", ja)
    store("S", jb)
    store("A", a)
    store("B", b)


def _plans():
    return [
        Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1)),
        Intersect(Base("A"), Base("B")),
    ]


def _steps(report) -> list[tuple]:
    return [
        (s.label, s.device, s.start, s.end, s.output_key, s.output_memory)
        for s in report.steps
    ]


def _fresh_machine_baseline():
    """Results + traced ``machine.run`` structure on a fresh machine."""
    tracer = obs.start(obs.Tracer())
    try:
        machine = SystolicDatabaseMachine()
        _populate(machine.store)
        results, report = machine.run_many(_plans())
    finally:
        obs.stop()
    (run_span,) = tracer.find("machine.run")
    return results, report, run_span.structure()


class TestBitIdentity:
    def test_concurrent_sessions_match_fresh_machine(self):
        """≥4 simultaneous tenant sessions, each bit-identical (results,
        timeline, span tree) to running alone on a fresh machine."""
        base_results, base_report, base_structure = _fresh_machine_baseline()

        pool = EnginePool(max_concurrent=4)
        sessions = []
        for i in range(4):
            session = pool.session(f"tenant{i}")
            _populate(session.store)
            sessions.append(session)

        tracer = obs.start(obs.Tracer())
        barrier = threading.Barrier(4)
        outcomes: dict[str, tuple] = {}

        def run(session):
            barrier.wait()
            results, report = session.run_many(_plans())
            outcomes[session.tenant] = (results, report)

        try:
            threads = [
                threading.Thread(target=run, args=(s,)) for s in sessions
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            obs.stop()

        assert len(outcomes) == 4
        for results, report in outcomes.values():
            assert results == base_results
            assert report.makespan == base_report.makespan
            assert [
                (s.label, s.device, s.start, s.end, s.output_memory)
                for s in report.steps
            ] == [
                (s.label, s.device, s.start, s.end, s.output_memory)
                for s in base_report.steps
            ]

        # Every pooled run records exactly the baseline's span tree.
        run_spans = tracer.find("machine.run")
        assert len(run_spans) == 4
        for span in run_spans:
            assert span.structure() == base_structure

    @pytest.mark.parametrize("front_end", ["machine", "session"])
    def test_repeated_queries_stay_identical(self, front_end):
        """The Nth query equals the first — and a brand-new machine's —
        on either front end: fresh state per run, nothing accumulates."""
        target = (
            SystolicDatabaseMachine() if front_end == "machine"
            else EnginePool().session("acme")
        )
        _populate(target.store)
        base_results, base_report, _ = _fresh_machine_baseline()
        for _ in range(3):
            results, report = target.run_many(_plans())
            assert results == base_results
            assert _steps(report) == _steps(base_report)

    def test_memories_do_not_fill_up_over_300_runs(self):
        """Outputs of earlier runs used to stay in the memories until no
        module could absorb the next one (run 255 of this loop)."""
        machine = SystolicDatabaseMachine(backend="lattice")
        a, b = overlapping_pair(2000, 2000, 1000, arity=4, seed=1)
        machine.store("A", a)
        machine.store("B", b)
        plan = Intersect(Base("A"), Base("B"))
        # The devices are pure, so answer runs 2..300 from run 1's.
        device = next(
            d for d in machine.devices if d.kind == plan.device_kind
        )
        execute, runs = device.execute, {}

        def execute_once(node, inputs, **kwargs):
            if id(node) not in runs:
                runs[id(node)] = execute(node, inputs, **kwargs)
            return runs[id(node)]

        device.execute = execute_once

        def used_bytes() -> int:
            return sum(m.used_bytes for m in machine.memories)

        first, _ = machine.run(plan)
        after_first = used_bytes()
        for _ in range(299):
            result, _ = machine.run(plan)
        assert result == first
        assert used_bytes() == after_first > 0


class TestPlanCacheSharing:
    def test_cache_hits_across_tenants(self):
        """Tenants with identical catalog statistics share compiled
        plans: warm with one tenant, the rest hit."""
        pool = EnginePool(max_concurrent=4)
        warm = pool.session("warm")
        _populate(warm.store)
        warm.run_many(_plans())
        assert pool.plan_cache_info()["misses"] == 1

        for i in range(3):
            session = pool.session(f"cold{i}")
            _populate(session.store)
            session.run_many(_plans())

        info = pool.plan_cache_info()
        assert info["misses"] == 1  # nobody else compiled
        assert info["hits"] >= 3
        assert pool.tenant_stats() == {
            "warm": 1, "cold0": 1, "cold1": 1, "cold2": 1,
        }

    def test_catalog_mutation_invalidates_only_that_tenant(self):
        pool = EnginePool()
        a = pool.session("a")
        b = pool.session("b")
        _populate(a.store)
        _populate(b.store)
        a.run_many(_plans())
        b.run_many(_plans())
        assert pool.plan_cache_info()["misses"] == 1

        def misses_after(session) -> int:
            session.run_many(_plans())
            return pool.plan_cache_info()["misses"]

        # A relation the plans do not name is outside their cache key:
        # storing it evicts nothing, tenant a still hits.
        extra_a, _ = join_pair(6, 5, 3, seed=77)
        a.store("EXTRA", extra_a)
        assert misses_after(a) == 1

        # Replacing a relation the plans read — other cardinality, then
        # other schema — misses for tenant a each time; b still hits.
        smaller, _ = join_pair(6, 5, 3, seed=31)
        a.store("R", smaller)
        assert misses_after(a) == 2
        a.store("R", Relation(
            Schema.of(*(
                (f"renamed{i}", column.domain)
                for i, column in enumerate(smaller.schema)
            )),
            smaller.array,
        ))
        assert misses_after(a) == 3
        hits_before = pool.plan_cache_info()["hits"]
        assert misses_after(b) == 3
        assert pool.plan_cache_info()["hits"] == hits_before + 1


class TestAdmission:
    def test_backpressure_rejects_on_timeout(self):
        pool = EnginePool(max_concurrent=1)
        session = pool.session("acme")
        _populate(session.store)
        pool.gate.acquire()  # hold the only slot
        try:
            # The slot stays held past any timeout, so the query cannot
            # be admitted: 0.05 s only bounds how long the test waits.
            with pytest.raises(AdmissionError):
                session.run_many(_plans(), timeout=0.05)
        finally:
            pool.gate.release()
        # The slot is free again: the same query now succeeds.
        results, _ = session.run_many(_plans(), timeout=5.0)
        assert len(results) == 2

    def test_waiters_drain_in_priority_order(self):
        gate = AdmissionGate(limit=1)
        gate.acquire()
        admitted: list[str] = []
        started = threading.Barrier(3)

        def waiter(name: str, priority: int):
            started.wait()
            gate.acquire(priority=priority, timeout=10.0)
            admitted.append(name)
            gate.release()

        threads = [
            threading.Thread(target=waiter, args=("low", 5)),
            threading.Thread(target=waiter, args=("high", 0)),
        ]
        for t in threads:
            t.start()
        started.wait()  # both waiters are about to queue
        # Let them actually enqueue before opening the gate.  The gate
        # signals no arrival (its condition is notified on release
        # only), so this polls the queue depth: 5 ms is the poll
        # period, and 5 s a deadline no healthy run comes near.
        import time

        deadline = time.monotonic() + 5.0
        while gate.stats()["waiting"] < 2:
            if time.monotonic() > deadline:
                raise AssertionError("waiters never queued")
            time.sleep(0.005)
        gate.release()
        for t in threads:
            t.join()
        assert admitted == ["high", "low"]

    def test_gate_rejects_bad_limit(self):
        with pytest.raises(PlanError):
            AdmissionGate(limit=0)

    def test_gate_stats_shape(self):
        gate = AdmissionGate(limit=2)
        assert gate.stats() == {"limit": 2, "active": 0, "waiting": 0}
        gate.acquire()
        assert gate.stats()["active"] == 1
        gate.release()
        assert gate.stats()["active"] == 0
