"""Exchange stages share the first stage's disk sweep (§8).

Each stage of a sharded query is a machine run of its own.  A base
relation a later stage loads, lying on the cylinder of one of the first
stage's loads on every shard, is offered to that stage
(``ShardedPlan.prefetch``); a shard reads it in the stage's sweep and
hands it on as a memory-resident relation where the sweep lands whole in
a memory.  Elsewhere the timeline is the one every stage reading its own
relations gives.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.arrays import ArrayCapacity
from repro.faults import parse_faults
from repro.machine import Base, EnginePool, Join, Select
from repro.machine.catalog import Catalog
from repro.machine.disk import MachineDisk
from repro.perf.disk import DiskModel
from repro.relational import algebra
from repro.shard import ShardedExecutor
from repro.shard.catalog import ShardedCatalog
from repro.workloads import join_pair

REV = DiskModel().revolution_seconds

#: (rows of JA, rows of JB, JB's partition key, join columns): the
#: planner broadcasts JB; re-partitions JB alone (JA is hash-partitioned
#: on the join key already); or re-partitions both, in two stages.
SHAPES = {
    "broadcast": (200, 10, "key", ("a0", "b0")),
    "one_side": (60, 60, "b0", ("key", "key")),
    "two_side": (60, 60, "key", ("a0", "b0")),
}


def _cluster(shards=2, memory_bytes=4 * 1024 * 1024, faults=None, **disk):
    """A sharded executor; ``disk`` (``MachineDisk`` keywords), when
    given, builds every shard's disk."""
    pool = EnginePool(memory_bytes=memory_bytes, faults=faults)
    catalog = ShardedCatalog("t", shards=shards)
    if disk:
        catalog.shards = [
            Catalog(tenant=shard.tenant, disk=MachineDisk(**disk))
            for shard in catalog.shards
        ]
    return ShardedExecutor(pool, catalog)


def _stored(executor, shape):
    rows_a, rows_b, key_b, on = SHAPES[shape]
    a, b = join_pair(rows_a, rows_b, min(rows_a, rows_b, 20), seed=3)
    executor.catalog.store("JA", a, key="key")
    executor.catalog.store("JB", b, key=key_b)
    return Join(Base("JA"), Base("JB"), on=(on,)), algebra.join(a, b, [on])


def _steps(report):
    return [
        (s.label, s.device, round(s.start * 1e3, 6), round(s.end * 1e3, 6))
        for s in report.steps
    ]


class TestPrefetchedResultsEqualOneMachine:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("shape, exchanges, prefetch", [
        ("broadcast", ["broadcast"], ("JA",)),
        ("one_side", ["repartition"], ("JA",)),
        # Stage 0 reads stage 1's base in its sweep.
        ("two_side", ["repartition", "repartition"], ("JB",)),
    ])
    def test_each_exchange_shape(self, shape, exchanges, prefetch, shards):
        executor = _cluster(shards)
        plan, expected = _stored(executor, shape)
        sharded = executor.plan(plan)
        assert [step.kind for step in sharded.exchanges] == exchanges
        assert sharded.prefetch == prefetch
        assert f"prefetch in stage 0: {prefetch[0]}" in sharded.explain()
        (result,), report = executor.execute([plan])
        assert result == expected
        # Every relation is read in the first revolution.
        disk = [s for s in report.steps if s.device == "disk"]
        assert len(disk) == 2 * shards
        assert {(s.start, s.end) for s in disk} == {(0.0, REV)}
        # Σ stage makespans + exchange time, the join last.
        joins = [s for s in report.steps if s.device.startswith("join")]
        assert report.makespan == pytest.approx(
            REV + report.exchange_seconds
            + max(s.end - s.start for s in joins), rel=1e-12
        )


def _bulk_join(shards):
    a, b = join_pair(4096, 64, 64, universe=4160, seed=11)
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    pool = EnginePool(devices=(("join", 1, capacity),), capacity=capacity,
                      memory_bytes=512 * 1024 * 1024, backend="lattice")
    session = pool.session(f"s{shards}", shards=shards)
    session.store("JA", a, key="key")
    session.store("JB", b, key="key")
    plan = Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))
    return session, plan, algebra.join(a, b, [("a0", "b0")])


class TestBulkJoinShape:
    def test_one_revolution_then_the_exchange_then_the_join(self):
        session, plan, expected = _bulk_join(2)
        (result,), report = session.run_many([plan])
        assert result == expected
        (exchange,) = [s for s in report.steps if s.device == "interconnect"]
        joins = [s for s in report.steps if s.device == "join0"]
        assert exchange.start == REV
        assert all(s.start == exchange.end for s in joins)
        assert report.makespan == REV + exchange.duration + max(
            s.duration for s in joins
        )
        # 34.182 ms when the join stage read JA in a second revolution.
        assert report.makespan * 1e3 == pytest.approx(17.515, abs=1e-3)

    def test_sharded_compilation_explains_every_lane(self):
        session, plan, _ = _bulk_join(2)
        compiled = session.compile(plan)
        text = compiled.explain()
        assert text.startswith(compiled.plan.explain())
        assert "prefetch in stage 0: JA" in text
        for shard in (0, 1):
            assert f"shard {shard}, stage for broadcast -> __shard_x0:" in text
            assert f"shard {shard}, final stage:" in text
        # The prefetch rides stage 0's sweep on both lanes.
        assert text.count("disk sweep on cylinder 0: ops 0, 1") == 2
        assert len(compiled.stages) == 1
        assert [p.sweeps[0].op_ids for p in compiled.stages[0]] == [
            (0, 1), (0, 1)
        ]
        (_,), report = session.run_many([plan])
        assert compiled.predicted_makespan == pytest.approx(
            report.makespan, rel=1e-9
        )


class TestTimelineKeptWithoutAWholeSweep:
    """Where the prefetch would cost a revolution of its own, nothing is
    prefetched: these step lists are the ones each stage reading its own
    relations gives."""

    def test_relations_on_different_cylinders(self):
        # JA and JB fill more than one 900-byte cylinder on each shard.
        executor = _cluster(model=DiskModel(cylinder_bytes=900))
        _, _, key_b, on = SHAPES["one_side"]
        a, b = join_pair(96, 96, 20, seed=3)
        executor.catalog.store("JA", a, key="key")
        executor.catalog.store("JB", b, key=key_b)
        plan = Join(Base("JA"), Base("JB"), on=(on,))
        for shard in executor.catalog.shards:
            assert shard.disk.cylinder("JA") != shard.disk.cylinder("JB")
        assert executor.plan(plan).prefetch == ()
        (result,), report = executor.execute([plan])
        assert result == algebra.join(a, b, [on])
        assert _steps(report) == [
            ("shard0:load JB", "disk", 0.0, 16.666667),
            ("shard1:load JB", "disk", 0.0, 16.666667),
            ("exchange:repartition:__shard_x0", "interconnect",
             16.666667, 16.676267),
            ("shard0:load JA", "disk", 16.676267, 33.342933),
            ("shard0:join[key==key]", "join0", 33.342933, 33.391233),
            ("shard1:load JA", "disk", 16.676267, 33.342933),
            ("shard1:join[key==key]", "join0", 33.342933, 33.394733),
        ]

    def test_a_sweep_no_memory_can_take(self):
        # Each 600-byte memory takes a shard's JA or JB, not both.
        executor = _cluster(memory_bytes=600)
        plan, expected = _stored(executor, "one_side")
        # Offered on the cylinder rule; each shard's first-stage plan
        # would read it in a revolution of its own, so none reads it.
        assert executor.plan(plan).prefetch == ("JA",)
        compiled = executor.compile(plan)
        assert [len(p.outputs) for p in compiled.stages[0]] == [1, 1]
        assert all(p.sweeps == [] for p in compiled.stages[0])
        (result,), report = executor.execute([plan])
        assert result == expected
        assert _steps(report) == [
            ("shard0:load JB", "disk", 0.0, 16.666667),
            ("shard1:load JB", "disk", 0.0, 16.666667),
            ("exchange:repartition:__shard_x0", "interconnect",
             16.666667, 16.672667),
            ("shard0:load JA", "disk", 16.672667, 33.339333),
            ("shard0:join[key==key]", "join0", 33.339333, 33.366983),
            ("shard1:load JA", "disk", 16.672667, 33.339333),
            ("shard1:join[key==key]", "join0", 33.339333, 33.373983),
        ]


class TestLogicPerTrack:
    """A relation a later stage reads through a selection the disk
    applies on-track stays where it is: held whole in memory, it would
    lose that free filter."""

    @pytest.mark.parametrize("logic_per_track, prefetch", [
        (False, ("JA",)), (True, ()),
    ])
    def test_an_on_track_selection_keeps_its_read(
        self, logic_per_track, prefetch
    ):
        executor = _cluster(logic_per_track=logic_per_track)
        rows_a, rows_b, _, on = SHAPES["broadcast"]
        a, b = join_pair(rows_a, rows_b, 10, seed=3)
        executor.catalog.store("JA", a, key="key")
        executor.catalog.store("JB", b, key="key")
        plan = Join(Select(Base("JA"), "a0", "<", 5), Base("JB"), on=(on,))
        sharded = executor.plan(plan)
        assert [step.kind for step in sharded.exchanges] == ["broadcast"]
        assert sharded.prefetch == prefetch
        (result,), report = executor.execute([plan])
        assert result == algebra.join(algebra.select(a, "a0", "<", 5), b, [on])
        (exchange,) = [s for s in report.steps if s.device == "interconnect"]
        reads = [s for s in report.steps if s.device == "disk"]
        if logic_per_track:
            # The final stage reads JA with the selection applied.
            after = [s.label for s in reads if s.start >= exchange.end]
            assert after == ["shard0:load select[a0<5]",
                             "shard1:load select[a0<5]"]
        else:
            assert all(s.end <= exchange.start for s in reads)


def _traced(shape, spec=None):
    faults = parse_faults(spec, seed=11) if spec else None
    executor = _cluster(faults=faults)
    plan, _ = _stored(executor, shape)
    tracer = obs.start(obs.Tracer())
    try:
        results, report = executor.execute([plan])
    finally:
        obs.stop()
    return (
        results, _steps(report), [root.structure() for root in tracer.roots],
        faults,
    )


class TestRecoveryAndObservability:
    @pytest.mark.parametrize("shape", ["broadcast", "two_side"])
    def test_a_crashed_prefetching_stage_recovers_bit_identically(self, shape):
        clean = _traced(shape)
        crashed = _traced(shape, spec="shard:0:1")
        assert crashed[:3] == clean[:3]
        injected = crashed[3].snapshot()["injected"]
        assert injected["shard"] >= 2  # stage 0 and the final stage

    def test_stage_and_exchange_spans_carry_the_prefetch(self):
        _, _, (root,), _ = _traced("two_side")

        def spans(tree, name):
            found = [tree] if tree[0] == name else []
            for child in tree[2]:
                found.extend(spans(child, name))
            return found

        stages = [dict(attrs) for _, attrs, _ in spans(root, "shard.stage")]
        assert [s.get("prefetch") for s in stages] == ["JB", "", None]
        # Each shard compiles each stage once, inside its shard.run.
        runs = spans(root, "shard.run")
        assert len(runs) == 2 * 3
        assert [len(spans(run, "machine.compile")) for run in runs] == [1] * 6
        assert len(spans(root, "machine.compile")) == 6
        exchanges = [
            dict(attrs) for _, attrs, _ in spans(root, "shard.exchange")
        ]
        assert [(e["kind"], e["relation"]) for e in exchanges] == [
            ("repartition", "__shard_x0"), ("repartition", "__shard_x1"),
        ]
        assert [e["rows"] for e in exchanges] == [60, 60]

    def test_store_time_partition_is_a_span(self):
        tracer = obs.start(obs.Tracer())
        try:
            executor = _cluster(shards=3)
            _stored(executor, "one_side")
        finally:
            obs.stop()
        assert [root.structure() for root in tracer.roots] == [
            ("shard.partition", (("relation", "JA"), ("rows", 60),
                                 ("shards", 3)), ()),
            ("shard.partition", (("relation", "JB"), ("rows", 60),
                                 ("shards", 3)), ()),
        ]
