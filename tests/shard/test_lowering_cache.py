"""A sharded transaction is lowered once per (plan, shard snapshot).

``ShardedExecutor.plan`` keeps each ``ShardedPlan`` in the pool's plan
cache under the transaction's plan fingerprint and the fingerprint of
the ``ShardedSnapshot`` it was lowered from — every shard's planning
context and the placements of the relations it names.  A warm query
lowers nothing; anything lowering reads that changes lowers again.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import FrozenInstanceError, astuple

import pytest

from repro import obs
from repro.arrays import ArrayCapacity
from repro.machine import Base, EnginePool, Join
from repro.machine.physical import base_reads
from repro.relational import Domain, Relation, Schema, algebra
from repro.shard import ShardedCatalog, ShardedExecutor, ShardPlanner
from repro.workloads import join_pair

NONKEY_JOIN = Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))


@pytest.fixture
def lowerings(monkeypatch) -> list:
    """One entry per ``ShardPlanner.lower`` call, however it is reached."""
    calls = []
    lower = ShardPlanner.lower

    def counted(self, plans, snapshot):
        calls.append(snapshot)
        return lower(self, plans, snapshot)

    monkeypatch.setattr(ShardPlanner, "lower", counted)
    return calls


def _pair(plan_cache_size: int = 64, **pool_options):
    """A 2-shard session holding ``bulk_join``'s pair, scaled down."""
    ja, jb = join_pair(256, 32, 16, universe=288, seed=11)
    session = EnginePool(
        plan_cache_size=plan_cache_size, **pool_options
    ).session("acme", shards=2)
    session.store("JA", ja, key="key")
    session.store("JB", jb, key="key")
    return session, algebra.join(ja, jb, [("a0", "b0")])


def _observed(session, plans) -> tuple:
    """One run's results, makespan, timeline and span structures."""
    with obs.tracing() as tracer:
        results, report = session.run_many(plans)
    return (
        [(r.schema.names, r.tuples) for r in results],
        report.makespan,
        [astuple(step) for step in report.steps],
        [root.structure() for root in tracer.roots],
    )


class TestWarmQueries:
    def test_five_warm_runs_lower_nothing_and_observe_the_cold_run(
        self, lowerings
    ):
        session, expected = _pair()
        cold = _observed(session, [NONKEY_JOIN])
        [(names, rows)] = cold[0]
        assert (names, set(rows)) == (
            expected.schema.names, set(expected.tuples)
        )
        for _ in range(5):
            assert _observed(session, [NONKEY_JOIN]) == cold
        assert len(lowerings) == 1

    def test_an_equal_plan_of_other_objects_hits(self, lowerings):
        session, _ = _pair()
        session.run_many([NONKEY_JOIN])
        session.run_many([Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))])
        assert len(lowerings) == 1

    def test_a_warm_plan_is_the_cached_object_and_frozen(self, lowerings):
        session, _ = _pair()
        executor = session._sharded
        sharded = executor.plan([NONKEY_JOIN])
        assert executor.plan([NONKEY_JOIN]) is sharded
        assert isinstance(sharded.exchanges, tuple)
        with pytest.raises(FrozenInstanceError):
            sharded.exchanges = ()
        with pytest.raises(FrozenInstanceError):
            sharded.exchanges[0].name = "__shard_x9"


class TestWhatLowersAgain:
    def test_a_write_to_a_named_relation(self, lowerings):
        session, _ = _pair()
        session.run_many([NONKEY_JOIN])
        ja, _ = join_pair(300, 32, 16, universe=332, seed=12)
        session.store("JA", ja, key="key")
        session.run_many([NONKEY_JOIN])
        assert len(lowerings) == 2

    def test_a_write_to_an_unrelated_relation_still_hits(self, lowerings):
        session, _ = _pair()
        session.run_many([NONKEY_JOIN])
        other, _ = join_pair(40, 8, 4, seed=5)
        session.store("OTHER", other)
        session.store("OTHER", other, key="a0")
        session.run_many([NONKEY_JOIN])
        assert len(lowerings) == 1

    def test_a_plan_that_differs_in_one_column(self, lowerings):
        session, _ = _pair()
        session.run_many([NONKEY_JOIN])
        session.run_many([Join(Base("JA"), Base("JB"), on=(("a1", "b0"),))])
        assert len(lowerings) == 2

    def test_a_re_store_under_another_key_changes_only_the_placement(
        self, lowerings
    ):
        """``R``'s two columns are equal, so re-storing it partitioned
        by ``v`` instead of ``k`` leaves every shard's piece — and its
        planning context — as it was; only the placement moves, and with
        it whether the join on ``k`` needs an exchange."""
        domain = Domain("lowering-cache", values=range(40))
        schema = Schema.of(("k", domain), ("v", domain))
        r = Relation(schema, [(i, i) for i in range(20)])
        s = Relation(schema, [(i % 10, i) for i in range(30)])
        plan = Join(Base("R"), Base("S"), on=(("k", "k"),))
        reads = base_reads([plan])
        catalog = ShardedCatalog(shards=2)
        executor = ShardedExecutor(EnginePool(), catalog)
        catalog.store("R", r, key="k")
        catalog.store("S", s, key="k")
        before = catalog.snapshot(reads)
        assert executor.plan(plan).exchanges == ()

        catalog.store("R", r, key="v")
        after = catalog.snapshot(reads)
        assert [c.fingerprint for c in after.contexts] == [
            c.fingerprint for c in before.contexts
        ]
        assert after.placements["R"].key == 1
        assert executor.plan(plan).exchanges != ()
        assert len(lowerings) == 2
        [result], _ = executor.execute(plan)
        assert result == algebra.join(r, s, [("k", "k")])

    def test_a_pool_with_another_roster(self, lowerings):
        """Two pools sharing one plan cache and one sharded catalog: the
        roster is in every shard context, so each lowers its own."""
        capacity = ArrayCapacity(max_rows=63, max_cols=8)
        wide = ArrayCapacity(max_rows=127, max_cols=8)
        small = EnginePool(devices=(("join", 1, capacity),))
        large = EnginePool(devices=(("join", 1, wide),))
        large.plan_cache = small.plan_cache
        catalog = ShardedCatalog(shards=2)
        ja, jb = join_pair(256, 32, 16, universe=288, seed=11)
        catalog.store("JA", ja, key="key")
        catalog.store("JB", jb, key="key")
        executors = [
            ShardedExecutor(pool, catalog) for pool in (small, large)
        ]
        for executor in executors * 2:
            executor.plan(NONKEY_JOIN)
        assert len(lowerings) == 2


class TestTheOneCache:
    def test_a_cache_of_size_0_lowers_every_query(self, lowerings):
        session, _ = _pair(plan_cache_size=0)
        for _ in range(3):
            session.run_many([NONKEY_JOIN])
        assert len(lowerings) == 3
        assert session.plan_cache_info()["size"] == 0

    def test_compile_and_execute_share_the_entry(self, lowerings):
        session, _ = _pair()
        predicted = session.compile(NONKEY_JOIN).predicted_makespan
        session.run_many([NONKEY_JOIN])
        assert session.compile(NONKEY_JOIN).predicted_makespan == predicted
        assert len(lowerings) == 1
        uncached, _ = _pair(plan_cache_size=0)
        assert uncached.compile(NONKEY_JOIN).predicted_makespan == predicted

    def test_concurrent_cold_queries_lower_once(self, lowerings, monkeypatch):
        """Single-flight: of the threads that miss one key together, one
        lowers and the rest wait for its entry.  More threads than this
        host's cores, the lowering slowed and the switch interval
        shortened, so the misses overlap."""
        lower = ShardPlanner.lower

        def slow(self, plans, snapshot):
            time.sleep(0.05)
            return lower(self, plans, snapshot)

        monkeypatch.setattr(ShardPlanner, "lower", slow)
        session, expected = _pair()
        workers = 4
        start = threading.Barrier(workers)
        answers = [None] * workers

        def query(index: int) -> None:
            start.wait()
            [answers[index]], _ = session.run_many([NONKEY_JOIN])

        threads = [
            threading.Thread(target=query, args=(index,))
            for index in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)  # loose: four small joins take under 1 s
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(lowerings) == 1
        assert all(answer == expected for answer in answers)
