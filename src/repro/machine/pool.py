"""The multi-tenant engine pool: shared devices, gated concurrency.

§9 closes with "a set of transactions" flowing through one machine; at
serving scale that set comes from many *tenants* at once.  The
:class:`EnginePool` is the shared middle layer of the split
architecture (catalog / session / pool):

* one **device complement** — the systolic arrays and CPU are pure
  (``execute`` is a function of the plan node and input relations), so
  every concurrent query runs on the same instances;
* one **plan cache** — keyed by plan structure *and* the fingerprint
  of the planning snapshot, never by tenant name, so tenants with
  statistically identical catalogs share compiled physical plans;
* one **admission gate** — at most ``max_concurrent`` queries execute
  at a time; excess queries wait (highest priority first) and are
  refused with :class:`~repro.errors.AdmissionError` once their
  timeout lapses, §9's answer to an overloaded crossbar translated to
  the serving layer: shed load, don't queue without bound.

Determinism is non-negotiable: an admitted query executes against a
**fresh** :class:`~repro.machine.execution.MachineState` (its own
memories, crossbar, and device roster timeline), so its results *and*
its timeline are bit-identical to running alone on a fresh
machine — no matter how many neighbours run beside it.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, Optional, Sequence

from repro import obs
from repro.arrays.decomposition import ArrayCapacity
from repro.config import env_float
from repro.errors import AdmissionError, PlanError
from repro.faults.recovery import (
    CancelToken,
    replan_on_quarantine,
    run_with_deadline,
)
from repro.obs import metrics
from repro.machine.catalog import Catalog
from repro.machine.execution import PlanExecutor, build_devices, check_memories
from repro.machine.physical import (
    PhysicalPlan,
    PhysicalPlanner,
    plan_keys,
)
from repro.machine.plan import PlanNode
from repro.machine.scheduler import ExecutionReport
from repro.perf.technology import PAPER_CONSERVATIVE, TechnologyModel
from repro.relational.relation import Relation

__all__ = ["AdmissionGate", "EnginePool", "PlanCache", "compile_plans"]


class PlanCache:
    """A thread-safe LRU of compiled plans.

    Entries live under :func:`compile_plans`' one key, or, for a sharded
    transaction's lowering, under
    :meth:`~repro.shard.executor.ShardedExecutor.plan`'s.  Neither holds
    anything tenant-specific, so in a pool a hit can come from *another*
    tenant's earlier compile.  Emits ``machine.plan_cache.*`` metrics.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 0:
            raise PlanError(f"plan cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.RLock()  # get_or_build holds it across get
        self._entries: OrderedDict[tuple, PhysicalPlan] = OrderedDict()
        self._hits = 0
        self._misses = 0
        #: key -> event set once the build in flight for it has ended.
        self._in_flight: dict[tuple, threading.Event] = {}

    def get(self, key: tuple) -> Optional[PhysicalPlan]:
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                metrics.inc("machine.plan_cache.hits")
                metrics.set_gauge(
                    "machine.plan_cache.size", len(self._entries)
                )
                return cached
            self._misses += 1
            metrics.inc("machine.plan_cache.misses")
            return None

    def put(self, key: tuple, plan: PhysicalPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            metrics.set_gauge("machine.plan_cache.size", len(self._entries))

    def get_or_build(
        self, key: tuple, build: Callable[[], PhysicalPlan]
    ) -> tuple[PhysicalPlan, bool]:
        """The plan under ``key`` and whether it came from the cache.

        Single-flight: of the threads that miss one key together, one
        runs ``build`` and the rest wait for its entry (a hit).  A
        ``build`` that raises stores nothing and wakes its waiters, the
        first of which builds for itself.  A cache of size 0 builds every
        time and counts nothing.
        """
        if self.maxsize == 0:
            return build(), False
        while True:
            with self._lock:
                done = self._in_flight.get(key) if self._in_flight else None
                if done is None:
                    cached = self.get(key)
                    if cached is not None:
                        return cached, True
                    done = self._in_flight[key] = threading.Event()
                    break
            done.wait()
        try:
            plan = build()
            self.put(key, plan)
            return plan, False
        finally:
            with self._lock:
                del self._in_flight[key]
            done.set()

    def info(self) -> dict[str, int]:
        """Hit/miss counters and occupancy, same shape as the machine's."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


def compile_plans(
    cache: PlanCache,
    catalog: Catalog,
    devices: Sequence,
    element_bits: int,
    memories: tuple[int, int],
    plans: Sequence[PlanNode] | PlanNode,
    arrivals: Optional[Sequence[float]],
    pipeline: bool,
    **span_attrs,
) -> PhysicalPlan:
    """Lower logical plans through the plan cache — the one compile.

    The machine's compile, its recovery compile, the pool's and every
    shard lane's are this call over a different ``catalog`` /
    ``devices``; ``memories`` is the machine's ``(modules, bytes each)``.
    The planner plans from one frozen snapshot,
    ``catalog.planning_context(base_reads(plans), devices, memories,
    element_bits)``, and the one cache key is ``(plan_fingerprint(plans),
    arrivals, pipeline, context.fingerprint)``: a plan is reused only
    for a snapshot equal to the one it was planned from, so a write to
    a relation the plans do not name evicts nothing and a degraded
    roster's plan never answers for the full one.  Concurrent misses
    of one key run the planner once; a cache of size 0 always plans.
    """
    if isinstance(plans, PlanNode):
        plans = [plans]
    metrics.inc("machine.compile.calls")

    with obs.span(
        "machine.compile", plans=len(plans), pipeline=bool(pipeline),
        **span_attrs,
    ) as sp:
        fingerprint, reads = plan_keys(plans)
        context = catalog.planning_context(
            reads, devices, memories, element_bits
        )

        def build() -> PhysicalPlan:
            return PhysicalPlanner(context).compile(
                plans, arrivals, pipeline=pipeline
            )

        if cache.maxsize > 0:
            # A hit skips the planner spans a miss records, and which
            # of two racing compiles hits is the host's business.
            sp.mark_children_volatile()
        physical, cached = cache.get_or_build(
            (
                fingerprint,
                tuple(arrivals) if arrivals is not None else None,
                bool(pipeline),
                context.fingerprint,
            ),
            build,
        )
        sp.set(ops=len(physical.ops))
        sp.set_volatile(cached=cached)
        return physical


class AdmissionGate:
    """Bounds concurrent executions; waiters drain highest-priority first.

    ``acquire`` blocks until a slot frees (lower ``priority`` numbers
    win; ties drain in arrival order) or the timeout lapses, at which
    point it raises :class:`AdmissionError` — backpressure instead of
    an unbounded queue.
    """

    def __init__(self, limit: int, timeout: Optional[float] = None) -> None:
        if limit < 1:
            raise PlanError(f"admission limit must be >= 1, got {limit}")
        self.limit = limit
        self.timeout = timeout
        self._cv = threading.Condition()
        self._active = 0
        self._waiting: list[tuple[int, int]] = []  # heap of (priority, seq)
        self._seq = itertools.count()

    def acquire(
        self, priority: int = 0, timeout: Optional[float] = None
    ) -> None:
        """Claim a slot, waiting behind higher-priority arrivals."""
        if timeout is None:
            timeout = self.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        ticket = (priority, next(self._seq))
        with self._cv:
            heapq.heappush(self._waiting, ticket)
            metrics.set_gauge("service.queue.depth", len(self._waiting))
            try:
                while (
                    self._active >= self.limit
                    or self._waiting[0] != ticket
                ):
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            metrics.inc("service.rejections")
                            raise AdmissionError(
                                f"no pool slot within {timeout:.3f}s "
                                f"({self._active}/{self.limit} active, "
                                f"{len(self._waiting)} waiting)"
                            )
                    self._cv.wait(remaining)
                heapq.heappop(self._waiting)
                self._active += 1
                metrics.inc("service.admissions")
                if self._active < self.limit and self._waiting:
                    self._cv.notify_all()  # next head may also fit
            finally:
                if ticket in self._waiting:  # timed out: withdraw
                    self._waiting.remove(ticket)
                    heapq.heapify(self._waiting)
                    self._cv.notify_all()
                metrics.set_gauge("service.queue.depth", len(self._waiting))

    def release(self) -> None:
        """Return a slot and wake the best waiter."""
        with self._cv:
            self._active -= 1
            self._cv.notify_all()

    def stats(self) -> dict[str, int]:
        with self._cv:
            return {
                "limit": self.limit,
                "active": self._active,
                "waiting": len(self._waiting),
            }


class EnginePool:
    """Shared execution resources serving many tenants' sessions.

    The pool owns what §9's machine room owns — the device complement,
    the compile pipeline and its cache, the admission gate — while
    every admitted query gets private simulated state.  Open a
    :class:`~repro.machine.session.Session` per tenant (or several) and
    issue queries through it; the pool admits, compiles, executes, and
    accounts for them.
    """

    def __init__(
        self,
        memories: int = 4,
        devices: Sequence[tuple] = None,
        capacity: ArrayCapacity = ArrayCapacity(max_rows=63, max_cols=8),
        technology: TechnologyModel = PAPER_CONSERVATIVE,
        memory_bytes: int = 4 * 1024 * 1024,
        element_bits: int = 32,
        backend=None,
        plan_cache_size: int = 64,
        max_concurrent: int = 4,
        admission_timeout: Optional[float] = 30.0,
        faults=None,
        query_deadline: Optional[float] = None,
    ) -> None:
        from repro.machine.system import DEFAULT_DEVICES  # avoid cycle

        check_memories(memories)
        self.memory_count = memories
        self.memory_bytes = memory_bytes
        self.element_bits = element_bits
        self.devices = build_devices(
            devices if devices is not None else DEFAULT_DEVICES,
            capacity, technology, backend,
        )
        #: Active :class:`~repro.faults.plan.FaultPlan` (None = no faults).
        self.faults = faults
        #: Per-query wall-clock budget; a query that outlives it is
        #: cancelled with :class:`~repro.errors.DeadlineError` and its
        #: slot freed.  Defaults to ``REPRO_QUERY_DEADLINE`` (unset =
        #: no deadline).
        self.query_deadline = (
            query_deadline
            if query_deadline is not None
            else env_float("REPRO_QUERY_DEADLINE", None, minimum=0.0)
        )
        self.plan_cache = PlanCache(plan_cache_size)
        self.gate = AdmissionGate(max_concurrent, admission_timeout)
        self._lock = threading.Lock()
        self._catalogs: dict[str, Catalog] = {}
        self._sharded_catalogs: dict[tuple, "ShardedCatalog"] = {}
        self._tenant_queries: dict[str, int] = {}

    # -- tenancy -----------------------------------------------------------

    def catalog(self, tenant: str = "default") -> Catalog:
        """The (lazily created) catalog for a tenant."""
        with self._lock:
            cat = self._catalogs.get(tenant)
            if cat is None:
                cat = Catalog(tenant=tenant, element_bits=self.element_bits)
                self._catalogs[tenant] = cat
            return cat

    def sharded_catalog(
        self,
        tenant: str,
        shards: int,
        strategy: str = "hash",
    ) -> "ShardedCatalog":
        """The tenant's sharded catalog for one (shards, strategy) layout.

        Lazily created and shared, like :meth:`catalog`: two sessions
        opened with the same shard layout see the same placements.
        """
        from repro.shard.catalog import ShardedCatalog

        key = (tenant, shards, strategy)
        with self._lock:
            cat = self._sharded_catalogs.get(key)
            if cat is None:
                cat = ShardedCatalog(
                    tenant=tenant, shards=shards, strategy=strategy,
                    element_bits=self.element_bits,
                )
                self._sharded_catalogs[key] = cat
            return cat

    def session(
        self,
        tenant: str = "default",
        priority: int = 0,
        parallel: Optional[bool] = None,
        shards: int = 1,
        shard_strategy: str = "hash",
    ) -> "Session":
        """Open a session bound to a tenant's catalog.

        ``shards > 1`` opens it against the tenant's sharded catalog
        instead; see :class:`~repro.machine.session.Session`.
        ``parallel`` is accepted and ignored: a query runs on one host
        thread, and ``benchmarks/e2e`` still passes the keyword.
        """
        from repro.machine.session import Session

        return Session(
            self, self.catalog(tenant), priority=priority,
            shards=shards, shard_strategy=shard_strategy,
        )

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._catalogs)

    # -- compilation -------------------------------------------------------

    def compile(
        self,
        catalog: Catalog,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
        devices: Optional[Sequence] = None,
    ) -> PhysicalPlan:
        """Lower logical plans against a tenant's catalog.

        :func:`compile_plans` over the pool's shared cache: two tenants
        whose catalogs agree on the relations the plans name share
        entries — the cross-tenant reuse the serving layer is for.
        ``devices`` plans against a reduced roster (the recovery path
        after a quarantine).
        """
        return compile_plans(
            self.plan_cache,
            catalog,
            self.devices if devices is None else list(devices),
            self.element_bits,
            (self.memory_count, self.memory_bytes),
            plans, arrivals, pipeline,
            tenant=catalog.tenant,
        )

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        catalog: Catalog,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> tuple[list[Relation], ExecutionReport]:
        """Admit, compile, and run one query for a tenant.

        Blocks at the admission gate when ``max_concurrent`` queries
        are already executing; raises
        :class:`~repro.errors.AdmissionError` if no slot frees within
        the timeout.  A device the query quarantines is replanned
        around — graceful degradation to fewer (slower) devices rather
        than failure.
        """
        if isinstance(plans, PlanNode):
            plans = [plans]

        def run(cancel: Optional[CancelToken]):
            def attempt(roster, plan):
                with obs.span(
                    "service.query", tenant=catalog.tenant,
                    plans=len(plans), priority=priority,
                ) as sp:
                    results, report = self._run_fresh(
                        catalog, plan(), roster, cancel, catalog.tenant
                    )
                    sp.set(makespan_ms=report.makespan * 1e3)
                return results, report

            return replan_on_quarantine(
                self.devices, self.faults,
                lambda roster: self.compile(
                    catalog, plans, arrivals, pipeline=pipeline,
                    devices=roster,
                ),
                attempt,
            )

        return self._admitted(catalog.tenant, priority, timeout, run)

    def _admitted(
        self,
        tenant: str,
        priority: int,
        timeout: Optional[float],
        run: Callable[[Optional[CancelToken]], tuple],
    ) -> tuple:
        """One query's passage through the pool: gate → deadline →
        accounting, around ``run(cancel)``.  Sharded queries take it
        too, so a query is one slot and one count however many shards
        it fans out to."""
        self.gate.acquire(priority=priority, timeout=timeout)
        started = time.perf_counter()
        cancel = CancelToken() if self.query_deadline is not None else None
        try:
            outcome = run_with_deadline(
                lambda: run(cancel),
                self.query_deadline,
                cancel=cancel,
                label=f"query[{tenant}]",
            )
        finally:
            # Freed even when the deadline fires: the cancelled worker
            # holds only a fresh private MachineState, so releasing the
            # slot before it unwinds cannot corrupt shared resources.
            self.gate.release()
        self.record_query(tenant, time.perf_counter() - started)
        return outcome

    def _run_fresh(
        self,
        catalog: Catalog,
        physical: PhysicalPlan,
        roster: Optional[list],
        cancel: Optional[CancelToken],
        fault_scope: str,
    ) -> tuple[list[Relation], ExecutionReport]:
        """Execute a compiled plan on a fresh machine over ``roster``."""
        return PlanExecutor(
            catalog,
            self.devices if roster is None else roster,
            self.memory_count, self.memory_bytes, self.element_bits,
            faults=self.faults,
            cancel=cancel,
            fault_scope=fault_scope,
        ).run_physical(physical)

    # -- accounting --------------------------------------------------------

    def record_query(self, tenant: str, seconds: float) -> None:
        """Account one completed query against a tenant.

        Called by :meth:`_admitted` only — the one passage both the
        pool's own execute path and the shard layer take — so a sharded
        query counts once (not once per shard) in the service metrics
        and ``tenant_stats``.
        """
        metrics.inc("service.queries")
        metrics.inc("service.tenant.queries")
        metrics.observe("service.query.seconds", seconds)
        with self._lock:
            self._tenant_queries[tenant] = (
                self._tenant_queries.get(tenant, 0) + 1
            )

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss counters and occupancy of the shared plan cache."""
        return self.plan_cache.info()

    def tenant_stats(self) -> dict[str, int]:
        """Completed query count per tenant."""
        with self._lock:
            return dict(self._tenant_queries)

    def stats(self) -> dict:
        """One snapshot of the pool for ``repro serve`` status replies."""
        return {
            "tenants": self.tenants(),
            "tenant_queries": self.tenant_stats(),
            "plan_cache": self.plan_cache_info(),
            "admission": self.gate.stats(),
            "query_deadline": self.query_deadline,
            "faults": (
                self.faults.snapshot() if self.faults is not None else None
            ),
        }

    def __repr__(self) -> str:
        kinds = ", ".join(d.name for d in self.devices)
        return (
            f"EnginePool({self.memory_count} memories/query; {kinds}; "
            f"max_concurrent={self.gate.limit})"
        )
