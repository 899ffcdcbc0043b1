"""The metrics registry and the stable metric-name contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AdmissionError, DeadlineError, ReproError
from repro.faults import parse_faults
from repro.lang import optimize, parse
from repro.machine import Base, EnginePool, Join
from repro.machine.plan import (
    DEVICE_COMPARISON,
    DEVICE_DIVISION,
    DEVICE_JOIN,
)
from repro.obs import COUNTER, GAUGE, HISTOGRAM, METRICS, MetricsRegistry, metrics
from repro.obs.metrics import BUCKETS_PER_OCTAVE, HistogramSummary
from repro.serve import ServiceClient
from repro.workloads import join_pair
from tests.serve.test_serve import _ServerHarness

from .conftest import build_machine, join_project_plan


class TestRegistry:
    def test_disabled_records_nothing(self):
        registry = MetricsRegistry()
        registry.inc("machine.disk.reads")
        registry.set_gauge("machine.plan_cache.size", 3)
        registry.observe("engine.run.pulses", 1.0)
        assert registry.collected_names() == set()

    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry().enable()
        registry.inc("machine.disk.reads")
        registry.inc("machine.disk.reads", 2)
        registry.set_gauge("machine.plan_cache.size", 3)
        registry.set_gauge("machine.plan_cache.size", 1)
        registry.observe("engine.run.pulses", 10.0)
        registry.observe("engine.run.pulses", 30.0)
        assert registry.counter("machine.disk.reads") == 3
        assert registry.gauge("machine.plan_cache.size") == 1
        summary = registry.histogram("engine.run.pulses")
        assert summary.count == 2
        assert summary.total == 40.0
        assert summary.minimum == 10.0
        assert summary.maximum == 30.0
        assert summary.mean == 20.0

    def test_undeclared_name_raises(self):
        registry = MetricsRegistry().enable()
        with pytest.raises(ReproError, match="not declared"):
            registry.inc("machine.rogue.counter")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry().enable()
        with pytest.raises(ReproError, match="declared as a"):
            registry.inc("engine.run.pulses")  # declared as a histogram

    def test_reset_keeps_the_switch(self):
        registry = MetricsRegistry().enable()
        registry.inc("machine.disk.reads")
        registry.reset()
        assert registry.enabled
        assert registry.collected_names() == set()

    def test_snapshot_and_render(self):
        registry = MetricsRegistry().enable()
        registry.inc("machine.disk.reads", 4)
        registry.observe("engine.run.pulses", 7.0)
        snap = registry.snapshot()
        assert snap["machine.disk.reads"] == {"kind": COUNTER, "value": 4}
        assert snap["engine.run.pulses"]["kind"] == HISTOGRAM
        assert snap["engine.run.pulses"]["p99"] == 7.0
        table = registry.render()
        assert "machine.disk.reads" in table
        assert "counter" in table
        assert "p50=7 p90=7 p99=7" in table


class TestHistogramQuantiles:
    def test_each_quantile_lies_within_one_bucket(self):
        ratio = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE)
        rng = np.random.default_rng(5)
        for sigma in (0.25, 1.0, 3.0):
            samples = rng.lognormal(mean=-3.0, sigma=sigma, size=4000)
            summary = HistogramSummary()
            for value in samples:
                summary.observe(float(value))
            reported = summary.as_dict()
            for key, q in HistogramSummary.QUANTILES.items():
                exact = float(np.quantile(samples, q))
                assert exact / ratio <= reported[key] <= exact * ratio, (
                    sigma, key, reported[key], exact,
                )

    def test_non_positive_values_share_a_bucket(self):
        summary = HistogramSummary()
        for value in (-2.0, 0.0, 0.0, 5.0):
            summary.observe(value)
        assert summary.buckets[None] == 3
        assert summary.quantile(0.0) == summary.quantile(0.5) == 0.0
        assert summary.quantile(1.0) == 5.0  # clamped to the maximum
        negative = HistogramSummary()
        negative.observe(-3.0)
        assert negative.quantile(0.5) == -3.0  # clamped to the range

    def test_a_repeated_value_observes_as_its_single_observations(self):
        rng = np.random.default_rng(6)
        values = rng.lognormal(size=50).tolist() + [0.0, 3.0]
        counts = rng.integers(1, 20, size=len(values)).tolist()
        weighted, single = HistogramSummary(), HistogramSummary()
        for value, count in zip(values, counts):
            weighted.observe(value, count=count)
            for _ in range(count):
                single.observe(value)
        assert weighted.buckets == single.buckets
        assert weighted.total == pytest.approx(single.total)
        assert {**weighted.as_dict(), "total": None} == {
            **single.as_dict(), "total": None,
        }


class TestDeclaredNames:
    def test_every_declared_kind_is_valid(self):
        for name, (kind, description) in METRICS.items():
            assert kind in (COUNTER, GAUGE, HISTOGRAM), name
            assert description, name

    def test_names_are_layer_prefixed(self):
        prefixes = (
            "machine.", "device.", "engine.", "lang.", "serve.", "service.",
            "shard.", "store.", "faults.",
        )
        for name in METRICS:
            assert name.startswith(prefixes), name

    def test_workload_touches_every_declared_name(self, tmp_path):
        """The name table is *exact*: one representative workload
        records every declared metric, and (by the registry's
        undeclared-name check) nothing else.  Renaming or adding a
        metric without updating ``repro.obs.names`` fails here."""
        metrics.enable()
        plan_text = "project(join(R, S, #0 == #0), #0, #1)"
        plan = optimize(parse(plan_text))

        machine = build_machine()
        machine.run(plan)                     # compile miss + full run
        machine.run(join_project_plan())      # equal plan: cache hit

        lattice = build_machine(backend="lattice")
        lattice.run(join_project_plan())      # engine.lattice.chunks

        bitplane = build_machine(backend="bitplane")
        bitplane.run(join_project_plan())     # engine.bitplane_planes

        # The serving layer: one pooled query records the service.*
        # counters/histogram, and a zero-timeout acquire against a full
        # gate records the rejection counter.
        pool = EnginePool(max_concurrent=1)
        session = pool.session("acme")
        a, b = join_pair(40, 30, 8, seed=31)
        session.store("R", a)
        session.store("S", b)
        session.run(join_project_plan())
        pool.gate.acquire()                   # hold the only slot
        try:
            with pytest.raises(AdmissionError):
                # Zero: a non-blocking try on a slot held above.
                pool.gate.acquire(timeout=0.0)
        finally:
            pool.gate.release()

        # The TCP front end: the same query text twice is a statement-
        # cache miss, then a hit.
        with _ServerHarness(pool=pool) as harness:
            with ServiceClient(*harness.address, tenant="acme") as db:
                for _ in range(2):
                    db.query(plan_text)

        # The shard layer: one 2-shard transaction with a
        # co-partitioned equi-join (local), an equi-join on a non-key
        # column (re-partition exchange), and a θ-join (broadcast
        # exchange), merged at the end — the four shard.* metrics.
        cluster = pool.session("acme", shards=2)
        cluster.store("R", a)
        cluster.store("S", b)
        cluster.run_many([
            join_project_plan(),
            Join(Base("R"), Base("S"), on=((1, 1),)),
            Join(Base("R"), Base("S"), on=((1, 1),), ops=("<=",)),
        ])

        # The fault/recovery layer: a transient device fault retried
        # in place plus a dropped exchange re-sent (injected, retries,
        # backoff_seconds, exchange_resends), a killed device
        # quarantined and replanned around (quarantines, replans,
        # redispatches), and a hung query cancelled at its deadline
        # (deadline_cancels) — the eight faults.* metrics.
        chaos = parse_faults("device:join0:1,exchange:*:1", seed=1)
        chaos_pool = EnginePool(faults=chaos)
        chaos_session = chaos_pool.session("acme", shards=2)
        chaos_session.store("R", a)
        chaos_session.store("S", b)
        chaos_session.run_many([Join(Base("R"), Base("S"), on=((1, 1),))])

        kill = parse_faults("device:join0:kill", seed=1)
        kill_pool = EnginePool(
            devices=(
                (DEVICE_COMPARISON, 1), (DEVICE_JOIN, 2),
                (DEVICE_DIVISION, 1),
            ),
            faults=kill,
        )
        kill_catalog = kill_pool.catalog("acme")
        kill_catalog.store("R", a)
        kill_catalog.store("S", b)
        kill_pool.execute(kill_catalog, join_project_plan())

        hung = EnginePool(
            faults=parse_faults("slow:join0:5", seed=1),
            query_deadline=0.2,
        )
        hung_catalog = hung.catalog("acme")
        hung_catalog.store("R", a)
        hung_catalog.store("S", b)
        with pytest.raises(DeadlineError):
            hung.execute(hung_catalog, join_project_plan())

        # The storage layer: a pruned read over a persisted relation
        # records the four store.* counters (probe, chunks read/pruned,
        # bytes) — col 0 runs 0..39 so an equality probe on a Morton-
        # clustered 8-row chunking must skip chunks.
        from repro.relational.domain import IntegerDomain
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema
        from repro.store import RelationStore

        dom = IntegerDomain("int")
        schema = Schema.of(("k", dom), ("v", dom))
        stored = Relation(schema, [(i, i * 3 % 7) for i in range(40)])
        store = RelationStore(tmp_path / "relations")
        store.write("K", stored, chunk_rows=8)
        scan = store.open("K").read(("k", "==", 11))
        assert scan.chunks_pruned > 0

        collected = metrics.collected_names()
        missing = set(METRICS) - collected
        assert not missing, f"declared but never recorded: {sorted(missing)}"
        assert collected == set(METRICS)

    def test_plan_cache_metrics_follow_cache_behaviour(self):
        metrics.enable()
        machine = build_machine()
        machine.run(join_project_plan())
        assert metrics.counter("machine.plan_cache.misses") == 1
        assert metrics.counter("machine.plan_cache.hits") == 0
        machine.run(join_project_plan())
        assert metrics.counter("machine.plan_cache.hits") == 1
        assert metrics.gauge("machine.plan_cache.size") == 1
