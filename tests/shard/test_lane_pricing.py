"""The shard planner prices an exchange strategy as the lanes run it.

Sizes come from one planning snapshot per shard; the join each strategy
leaves on its largest lane is priced by the physical planner's own
``price_array_op`` (every device, every variant, the memory streams), so
the strategy picked is priced by what its lanes pay.
"""

from __future__ import annotations

from repro.arrays import ArrayCapacity
from repro.machine import Base, EnginePool, Join
from repro.machine.operators import infer_schema
from repro.machine.physical import base_reads
from repro.relational import Domain, Relation, Schema, algebra
from repro.shard import (
    BROADCAST,
    REPARTITION,
    ShardedCatalog,
    ShardPlanner,
)
from repro.shard.executor import ShardedExecutor
from repro.systolic.engine import LatticeEngine
from repro.workloads import join_pair

NONKEY_JOIN = Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))


def _bulk_join_pool() -> EnginePool:
    """The ``bulk_join`` device shape: one 1023×8 lattice join device."""
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    return EnginePool(
        devices=(("join", 1, capacity),),
        capacity=capacity,
        memory_bytes=512 * 1024 * 1024,
        backend=LatticeEngine(chunk_bytes=128 * 1024 * 1024),
    )


class TestLanePricing:
    def test_a_4096_by_512_non_key_join_broadcasts_the_small_side(self):
        """Priced counter-only at ⌈n/shards⌉ a side, the join
        re-partitioned both sides (18.047 ms simulated); priced as its
        lanes run it, it broadcasts JB, and the lanes finish sooner."""
        ja, jb = join_pair(4096, 512, 64, universe=4608, seed=11)
        pool = _bulk_join_pool()
        catalog = ShardedCatalog(shards=2)
        catalog.store("JA", ja, key="key")
        catalog.store("JB", jb, key="key")
        executor = ShardedExecutor(pool, catalog)

        sharded = executor.plan([NONKEY_JOIN])
        [step] = sharded.exchanges
        assert (step.kind, step.plan) == (BROADCAST, Base("JB"))
        [(join, strategy, priced)] = sharded.priced_joins
        assert (join, strategy) == (NONKEY_JOIN, "broadcast_right")

        [result], report = executor.execute([NONKEY_JOIN])
        assert report.makespan * 1e3 <= 17.845 + 1e-9
        expected = algebra.join(ja, jb, [("a0", "b0")])
        assert len(expected) == 440
        assert result == expected

        # Each lane's final stage, as the run compiled it: the broadcast
        # JB and the prefetched piece of JA resident.
        lanes = executor._lanes()
        for lane in lanes:
            lane.preload(step.name, jb)
            for root in sharded.stage_roots(0)[1:]:
                lane.preload(root.name, lane.relation(root.name))
        predicted = {}
        for lane, shard_report in zip(lanes, report.shard_reports):
            physical = pool.compile(lane, sharded.roots)
            [op] = [op for op in physical.ops if op.kind == "array"]
            assert op.variant == priced.variant
            [ran] = [s for s in shard_report.steps if s.block_runs]
            assert ran.block_runs == op.cost.block_runs
            predicted[len(lane.relation("JA"))] = op.est_seconds
        # The non-key counts are exact across the shards, so the price
        # of the lane holding the larger piece of JA is that lane's own
        # compiled prediction: 1.076 ms (the row law's output stream
        # priced it at 1.395 ms).
        assert priced.seconds == predicted[max(predicted)]
        assert round(priced.seconds * 1e3, 3) == 1.076

    def test_without_a_join_device_the_exchange_alone_decides(self):
        """No device of the join's kind prices the join at nothing, so
        the cheapest movement wins: broadcasting the 64-row side moves
        fewer bytes than re-partitioning both."""
        ja, jb = join_pair(64, 512, 16, universe=576, seed=3)
        catalog = ShardedCatalog(shards=2)
        catalog.store("JA", ja, key="key")
        catalog.store("JB", jb, key="key")
        sharded = ShardPlanner().lower(
            [NONKEY_JOIN], catalog.snapshot(base_reads([NONKEY_JOIN]))
        )
        assert sharded.priced_joins == ()
        [step] = sharded.exchanges
        assert (step.kind, step.plan) == (BROADCAST, Base("JA"))


_DOMAIN = Domain("lane-pricing", values=range(40))
_SCHEMA = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))
_SCHEMA_U = Schema.of(("x", _DOMAIN), ("y", _DOMAIN))


def _rtu(session_or_catalog) -> tuple[Relation, Relation, Relation]:
    r = Relation(_SCHEMA, [(i % 10, i % 6) for i in range(30)])
    t = Relation(_SCHEMA, [(i % 10, i % 4) for i in range(20)])
    # 40 rows of U: priced at the inner join's exact size (100 rows), a
    # smaller U would be broadcast rather than the inner join's result
    # re-partitioned.
    u = Relation(_SCHEMA_U, [(i % 7, i % 10) for i in range(40)])
    session_or_catalog.store("R", r, key="k")
    session_or_catalog.store("T", t, key="k")
    session_or_catalog.store("U", u, key="x")
    return r, t, u


class TestShardSnapshots:
    def test_logical_rows_sum_the_pieces_and_count_a_copy_once(self):
        catalog = ShardedCatalog(shards=3)
        r, _, _ = _rtu(catalog)
        catalog.store("D", r, replicate=True)
        planner = ShardPlanner()
        plans = [Base("R"), Base("D")]
        planner.lower(plans, catalog.snapshot(base_reads(plans)))
        assert planner._rows(Base("R")) == len(r) == 30
        assert planner._rows(Base("D")) == 30
        assert planner._largest_lane(Base("R"))[0] == max(
            len(shard.relation("R")) for shard in catalog.shards
        )

    def test_a_distinct_count_is_used_only_where_it_is_exact(self):
        catalog = ShardedCatalog(shards=2)
        r, t, _ = _rtu(catalog)
        catalog.store("D", t, replicate=True)
        planner = ShardPlanner()
        plans = [
            Join(Base("R"), Base("T"), on=(("k", "k"),)),
            Join(Base("R"), Base("D"), on=(("v", "v"),)),
        ]
        planner.lower(plans, catalog.snapshot(base_reads(plans)))
        # The partition key: equal values co-locate, so the pieces'
        # counts add up to the relation's.
        assert planner._distinct("R", "k") == r.distinct_count("k") == 10
        # A replicated relation: one copy's count.
        assert planner._distinct("D", "v") == t.distinct_count("v")
        # Any other column of a partitioned relation: its values repeat
        # across the pieces, so the snapshot counts their union.
        assert planner._distinct("R", "v") == r.distinct_count("v") == 6
        assert {
            shard.relation("R").distinct_count("v")
            for shard in catalog.shards
        } != {6}
        # A column no join of the plans matches: nobody counted it.
        assert planner._distinct("T", "v") is None


class TestChainedExchanges:
    def test_compile_reads_each_exchanges_schema_from_its_step(self):
        """The outer join re-partitions the inner join's exchanged
        result: compiling it needs the schema of a relation that exists
        only as an exchange, which the step now carries."""
        session = EnginePool().session("chain", shards=2)
        r, t, u = _rtu(session)
        plan = Join(
            Join(Base("R"), Base("T"), on=(("v", "v"),)), Base("U"),
            on=(("k", "y"),),
        )
        compiled = session.compile(plan)
        schemas = {"R": r.schema, "T": t.schema, "U": u.schema}
        for step in compiled.plan.exchanges:
            assert step.schema == infer_schema(step.plan, schemas)
            schemas[step.name] = step.schema
        assert [step.kind for step in compiled.plan.exchanges] == [
            REPARTITION
        ] * 4
        [result], _ = session.run_many([plan])
        expected = algebra.join(
            algebra.join(r, t, [("v", "v")]), u, [("k", "y")]
        )
        assert result == expected
        assert len(result) == 400
