"""A tenant's thin handle on the engine pool.

The session is the top layer of the split architecture: it binds one
tenant's :class:`~repro.machine.catalog.Catalog` to the shared
:class:`~repro.machine.pool.EnginePool` and re-exposes the familiar
machine verbs — ``store``/``preload``/``compile``/``run``/``run_many``
— so code written against :class:`SystolicDatabaseMachine` ports by
changing one constructor call.  Sessions hold no execution state of
their own; any number may be open per tenant, from any threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.machine.catalog import Catalog
from repro.machine.physical import PhysicalPlan
from repro.machine.plan import PlanNode
from repro.machine.scheduler import ExecutionReport
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef

if TYPE_CHECKING:  # repro.shard imports this package
    from repro.shard.executor import ShardedCompilation

__all__ = ["Session"]


class Session:
    """One tenant's view of the pool: a catalog plus query defaults.

    ``priority`` (lower wins) is the default applied to every query
    issued through this session; it can be overridden per call.

    ``shards > 1`` opens the session against a *cluster* of simulated
    machines instead of one: relations are partitioned (or replicated)
    across per-shard catalogs and queries run through the
    :class:`~repro.shard.executor.ShardedExecutor`, with results and
    per-shard traces bit-identical to the single machine.
    ``shards=1`` (the default) is the pool's own unsharded path.
    """

    def __init__(
        self,
        pool,
        catalog: Catalog,
        priority: int = 0,
        shards: int = 1,
        shard_strategy: str = "hash",
    ) -> None:
        self.pool = pool
        self.catalog = catalog
        self.priority = priority
        self.shards = shards
        self.shard_strategy = shard_strategy
        self._sharded = None
        if shards > 1:
            from repro.shard.executor import ShardedExecutor

            self._sharded = ShardedExecutor(
                pool,
                pool.sharded_catalog(catalog.tenant, shards, shard_strategy),
            )

    @property
    def tenant(self) -> str:
        return self.catalog.tenant

    @property
    def sharded_catalog(self):
        """The per-shard catalog map, or ``None`` when unsharded."""
        return self._sharded.catalog if self._sharded else None

    # -- catalog -----------------------------------------------------------

    def store(
        self,
        name: str,
        relation: Relation,
        key: Optional[ColumnRef] = None,
        replicate: bool = False,
    ) -> None:
        """Place a base relation on this tenant's disk(s).

        Sharded sessions split the relation by ``key`` (default:
        column 0) or replicate it onto every shard; the single-machine
        path has one disk, where neither means anything.
        """
        if self._sharded:
            self._sharded.catalog.store(
                name, relation, key=key, replicate=replicate
            )
        else:
            self.catalog.store(name, relation)

    def preload(
        self,
        name: str,
        relation: Relation,
        key: Optional[ColumnRef] = None,
        replicate: bool = False,
    ) -> None:
        """Mark a relation memory-resident for this tenant's queries."""
        if self._sharded:
            self._sharded.catalog.preload(
                name, relation, key=key, replicate=replicate
            )
        else:
            self.catalog.preload(name, relation)

    # -- queries -----------------------------------------------------------

    def compile(
        self,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
    ) -> PhysicalPlan | ShardedCompilation:
        """Lower logical plans against this tenant's catalog.

        Sharded sessions return a
        :class:`~repro.shard.executor.ShardedCompilation` (per-shard
        physical plans plus the staged makespan prediction) instead of
        one :class:`PhysicalPlan`.
        """
        if self._sharded:
            return self._sharded.compile(plans, arrivals, pipeline=pipeline)
        return self.pool.compile(
            self.catalog, plans, arrivals, pipeline=pipeline
        )

    def run(
        self,
        plan: PlanNode,
        pipeline: bool = True,
        priority: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> tuple[Relation, ExecutionReport]:
        """Execute one plan; returns (result, timed report)."""
        results, report = self.run_many(
            [plan], pipeline=pipeline, priority=priority, timeout=timeout
        )
        return results[0], report

    def run_many(
        self,
        plans: Sequence[PlanNode],
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
        priority: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> tuple[list[Relation], ExecutionReport]:
        """Execute a transaction of several plans on one shared timeline.

        Admission, compilation (through the shared cross-tenant plan
        cache), and execution all happen inside the pool; the query
        runs against a fresh per-query machine state, so results and
        timeline are bit-identical to running alone.
        """
        options = dict(
            pipeline=pipeline,
            priority=self.priority if priority is None else priority,
            timeout=timeout,
        )
        if self._sharded:
            return self._sharded.execute(plans, arrivals, **options)
        return self.pool.execute(self.catalog, plans, arrivals, **options)

    def plan_cache_info(self) -> dict[str, int]:
        """The pool's shared plan-cache counters."""
        return self.pool.plan_cache_info()

    def __repr__(self) -> str:
        sharding = f", shards={self.shards}" if self.shards > 1 else ""
        return (
            f"Session(tenant={self.tenant!r}, "
            f"priority={self.priority}{sharding})"
        )
