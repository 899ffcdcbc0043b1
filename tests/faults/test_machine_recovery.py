"""Recovery through the machine, pool and shard lanes: bit-identity,
quarantine, graceful degradation, and deadlines."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import DeadlineError, DeviceFaultError
from repro.faults import parse_faults
from repro.machine import Base, EnginePool, Join, SystolicDatabaseMachine
from repro.machine.plan import (
    DEVICE_COMPARISON,
    DEVICE_DIVISION,
    DEVICE_JOIN,
)
from repro.obs import metrics
from repro.workloads import join_pair

#: A roster with a spare join array — quarantine can degrade onto it.
REDUNDANT = (
    (DEVICE_COMPARISON, 1), (DEVICE_JOIN, 2), (DEVICE_DIVISION, 1),
)


def _machine(faults=None, devices=None):
    kwargs = {"faults": faults}
    if devices is not None:
        kwargs["devices"] = devices
    machine = SystolicDatabaseMachine(**kwargs)
    a, b = join_pair(30, 24, 8, seed=13)
    machine.store("A", a)
    machine.store("B", b)
    return machine


def _plans():
    return [Join(Base("A"), Base("B"), on=((0, 0),))]


#: The three callers of ``repro.faults.recovery.replan_on_quarantine``.
FRONT_ENDS = ("machine", "pool", "shards2")


def _front_end(kind, faults=None, devices=None):
    """A loaded machine, pool session or 2-shard session; all three
    answer ``run_many``."""
    if kind == "machine":
        return _machine(faults=faults, devices=devices)
    kwargs = {} if devices is None else {"devices": devices}
    session = EnginePool(faults=faults, **kwargs).session(
        "acme", shards=2 if kind == "shards2" else 1
    )
    a, b = join_pair(30, 24, 8, seed=13)
    session.store("A", a)
    session.store("B", b)
    return session


def _counted_run(target):
    """Results of one run plus the counters it moved.  Shard lanes run
    one after the other, so the 2-shard counts do not depend on which
    lane reaches the dead device first."""
    metrics.reset()
    metrics.enable()
    try:
        results, _ = target.run_many(_plans())
        return results, {
            name: metrics.counter(name)
            for name in (
                "faults.replans", "faults.redispatches",
                "machine.compile.calls",
            )
        }
    finally:
        metrics.disable()
        metrics.reset()


def _traced_run(machine):
    tracer = obs.start(obs.Tracer())
    try:
        results, report = machine.run_many(_plans())
    finally:
        obs.stop()
    steps = [
        (s.label, s.device, s.start, s.end) for s in report.steps
    ]
    return results, steps, [root.structure() for root in tracer.roots]


class TestTransientRecovery:
    def test_device_and_disk_faults_recover_bit_identically(self):
        clean = _traced_run(_machine())
        faults = parse_faults("device:join0:2,disk:A:1", seed=5)
        faulted = _traced_run(_machine(faults=faults))
        assert faulted[0] == clean[0]       # results
        assert faulted[1] == clean[1]       # timeline steps
        assert faulted[2] == clean[2]       # span structures
        assert faults.injected == 3
        assert faults.retries == 3
        assert faults.quarantined() == []

    def test_block_fault_recovers(self):
        clean = _traced_run(_machine())
        faults = parse_faults("block:join0:0:1", seed=5)
        faulted = _traced_run(_machine(faults=faults))
        assert faulted == clean
        assert faults.injected == 1


class TestQuarantineAndReplan:
    @pytest.mark.parametrize("kind", FRONT_ENDS)
    def test_killed_device_degrades_onto_the_spare(self, kind):
        clean_results, _, _ = _traced_run(
            _front_end(kind, devices=REDUNDANT)
        )
        faults = parse_faults("device:join0:kill", seed=5)
        results, counted = _counted_run(
            _front_end(kind, faults=faults, devices=REDUNDANT)
        )
        assert results == clean_results
        assert faults.quarantined() == ["join0"]
        assert faults.injected > 0
        assert counted["faults.replans"] == 1
        assert counted["faults.redispatches"] >= 1

    @pytest.mark.parametrize("kind", FRONT_ENDS)
    def test_the_interrupted_attempt_stays_in_the_trace(self, kind):
        """On every front end alike: the attempt the quarantine ended —
        the ops it had placed, then the op on the dead device, which
        never reached ``device.execute`` — and after it the attempt
        that completed, equal to a fault-free run on the survivors."""
        faults = parse_faults("device:join0:kill", seed=5)
        target = _front_end(kind, faults=faults, devices=REDUNDANT)
        tracer = obs.start(obs.Tracer())
        try:
            target.run_many(_plans())
        finally:
            obs.stop()
        runs = tracer.find("machine.run")
        interrupted = [r for r in runs if "error" in r.volatile]
        completed = [r for r in runs if "error" not in r.volatile]
        (attempt,) = interrupted
        assert attempt is runs[0]
        assert attempt.volatile == {"error": "DeviceFaultError"}
        assert "makespan_ms" not in attempt.attrs
        *placed, dead = attempt.children
        assert placed and all("sim_end" in op.attrs for op in placed)
        assert (dead.name, dead.attrs["device"]) == ("machine.op", "join0")
        assert dead.volatile == {"error": "DeviceFaultError"}
        assert dead.children == [] and "sim_end" not in dead.attrs
        for sp in tracer.walk():
            if sp.name == "device.execute":
                assert sp.attrs["device"] != "join0"
        # The error is host-schedule state: structure() does not see it.
        assert "error" not in dict(attempt.structure()[1])

        # join0 is quarantined for good, so a second run of the same
        # target *is* the fault-free run on the surviving roster.
        injected = faults.injected
        survivors = obs.start(obs.Tracer())
        try:
            target.run_many(_plans())
        finally:
            obs.stop()
        assert faults.injected == injected
        assert not any("error" in sp.volatile for sp in survivors.walk())
        assert [r.structure() for r in completed] == [
            r.structure() for r in survivors.find("machine.run")
        ]

    def test_interrupted_attempts_count_the_ops_they_placed(self):
        """An interrupted attempt's kernel work always counted
        (``engine.runs``); so now do the ops it put on its timeline."""
        counts = {}
        for spec in (None, "device:join0:kill"):
            faults = parse_faults(spec, seed=5) if spec else None
            target = _front_end("pool", faults=faults, devices=REDUNDANT)
            metrics.reset()
            metrics.enable()
            try:
                target.run_many(_plans())
                counts[spec] = metrics.counter("machine.ops.executed")
            finally:
                metrics.disable()
                metrics.reset()
        # Two loads placed before join0 died, then the whole plan again.
        assert counts == {None: 3, "device:join0:kill": 5}

    def test_machine_and_pool_compile_equally_often(self):
        # One full-roster compile and one degraded compile each: the
        # machine's replan is counted (and cached) like any compile,
        # and the pool compiles nothing just to count redispatches.
        calls = {}
        for kind in ("machine", "pool"):
            faults = parse_faults("device:join0:kill", seed=5)
            target = _front_end(kind, faults=faults, devices=REDUNDANT)
            _, counted = _counted_run(target)
            calls[kind] = counted["machine.compile.calls"]
            assert target.plan_cache_info()["size"] == 2
        assert calls == {"machine": 2, "pool": 2}

    @pytest.mark.parametrize("kind", FRONT_ENDS)
    def test_killing_the_only_capable_device_fails_permanently(self, kind):
        # The CPU only runs selections: with a single join array dead,
        # no healthy roster can compile the plan (docs/ROBUSTNESS.md).
        faults = parse_faults("device:join0:kill", seed=5)
        target = _front_end(kind, faults=faults)
        with pytest.raises(DeviceFaultError, match="join0") as caught:
            target.run_many(_plans())
        assert caught.value.quarantined
        assert faults.quarantined() == ["join0"]


class TestPoolRecovery:
    def _pool(self, faults=None, **kwargs):
        pool = EnginePool(faults=faults, **kwargs)
        catalog = pool.catalog("acme")
        a, b = join_pair(30, 24, 8, seed=13)
        catalog.store("A", a)
        catalog.store("B", b)
        return pool, catalog

    def test_pool_recovers_transient_faults(self):
        pool, catalog = self._pool()
        (expected,), _ = pool.execute(catalog, _plans()[0])
        faults = parse_faults("device:join0:1,disk:B:1", seed=2)
        chaos_pool, chaos_catalog = self._pool(faults=faults)
        (result,), _ = chaos_pool.execute(chaos_catalog, _plans()[0])
        assert result == expected
        assert faults.injected == 2
        assert chaos_pool.stats()["faults"]["retries"] == 2

    def test_pool_replans_around_a_killed_device(self):
        pool, catalog = self._pool(devices=REDUNDANT)
        (expected,), _ = pool.execute(catalog, _plans()[0])
        faults = parse_faults("device:join0:kill", seed=2)
        chaos_pool, chaos_catalog = self._pool(
            faults=faults, devices=REDUNDANT
        )
        (result,), _ = chaos_pool.execute(chaos_catalog, _plans()[0])
        assert result == expected
        assert faults.quarantined() == ["join0"]
        # The degraded pool keeps serving: a second query replans
        # straight onto the healthy roster.
        (again,), _ = chaos_pool.execute(chaos_catalog, _plans()[0])
        assert again == expected


class TestDeadline:
    def test_hung_query_is_cancelled_and_the_slot_freed(self):
        faults = parse_faults("slow:join0:30", seed=0)
        pool = EnginePool(faults=faults, query_deadline=0.3)
        catalog = pool.catalog("acme")
        a, b = join_pair(30, 24, 8, seed=13)
        catalog.store("A", a)
        catalog.store("B", b)
        with pytest.raises(DeadlineError, match="deadline"):
            pool.execute(catalog, _plans()[0])
        # The admission slot came back: an immediate acquire succeeds.
        # A zero timeout never waits: it asks whether the slot is free
        # now, which holds on any host once execute has returned.
        pool.gate.acquire(timeout=0.0)
        pool.gate.release()
        assert pool.stats()["query_deadline"] == 0.3

    def test_generous_deadline_leaves_queries_untouched(self):
        pool = EnginePool(query_deadline=30.0)
        catalog = pool.catalog("acme")
        a, b = join_pair(30, 24, 8, seed=13)
        catalog.store("A", a)
        catalog.store("B", b)
        (result,), _ = pool.execute(catalog, _plans()[0])
        reference = EnginePool()
        ref_catalog = reference.catalog("acme")
        ref_catalog.store("A", a)
        ref_catalog.store("B", b)
        (expected,), _ = reference.execute(ref_catalog, _plans()[0])
        assert result == expected

    def test_deadline_env_var_configures_the_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_DEADLINE", "2.5")
        assert EnginePool().query_deadline == 2.5
        monkeypatch.delenv("REPRO_QUERY_DEADLINE")
        assert EnginePool().query_deadline is None
