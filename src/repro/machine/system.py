"""The integrated systolic database machine of Fig 9-1.

Memories on one side of a crossbar switch, systolic devices (plus the
host CPU) on the other, with a disk feeding the memories: "Initially,
the relevant relations are read from disks into memories.  Then the
crossbar switch is configured so that the relevant memories are
connected to the systolic array that will perform the first operation
... The output of the array is pipelined back into another memory.
This is repeated for each relational operation in the transaction.  Due
to the crossbar structure, several operations may be run concurrently."

:class:`SystolicDatabaseMachine` executes query plans exactly that way
and returns a timed :class:`~repro.machine.scheduler.ExecutionReport`.

The machine is the *single-tenant front end* over the same primitives
the multi-tenant :class:`~repro.machine.pool.EnginePool` serves with: a
:class:`~repro.machine.catalog.Catalog` (what ``store`` / ``preload`` /
``attach_store`` write), :func:`~repro.machine.pool.compile_plans`, and
:func:`~repro.machine.execution.fresh_state` — every run executes on a
fresh simulated state built from the catalog, so a query is a function
of (catalog, plan) and re-running it reproduces run 1.  §9's "results
... reside in memory" between transactions is what ``preload`` says
explicitly.  Use the machine for scripts and experiments; use
``EnginePool.session()`` to serve concurrent tenants over shared
devices.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.arrays.decomposition import ArrayCapacity
from repro.errors import PlanError
from repro.faults.recovery import replan_on_quarantine
from repro.machine.catalog import Catalog
from repro.machine.crossbar import CrossbarSwitch
from repro.machine.disk import MachineDisk
from repro.machine.execution import (
    MachineState,
    PlanExecutor,
    build_devices,
    check_memories,
    fresh_state,
    place_resident,
)
from repro.machine.memory import MemoryModule
from repro.machine.physical import PhysicalPlan
from repro.machine.plan import (
    DEVICE_COMPARISON,
    DEVICE_DIVISION,
    DEVICE_JOIN,
    PlanNode,
)
from repro.machine.pool import PlanCache, compile_plans
from repro.machine.scheduler import ExecutionReport
from repro.perf.technology import PAPER_CONSERVATIVE, TechnologyModel
from repro.relational.relation import Relation

__all__ = ["SystolicDatabaseMachine"]

#: One device of each systolic kind — the literal Fig 9-1 configuration
#: ("Intersect", "Join", plus the division array of §7).
DEFAULT_DEVICES = (
    (DEVICE_COMPARISON, 1),
    (DEVICE_JOIN, 1),
    (DEVICE_DIVISION, 1),
)


class SystolicDatabaseMachine:
    """Fig 9-1: disk + memories + crossbar + systolic devices + CPU."""

    def __init__(
        self,
        memories: int = 4,
        devices: Sequence[tuple[str, int]] = DEFAULT_DEVICES,
        capacity: ArrayCapacity = ArrayCapacity(max_rows=63, max_cols=8),
        technology: TechnologyModel = PAPER_CONSERVATIVE,
        disk: Optional[MachineDisk] = None,
        memory_bytes: int = 4 * 1024 * 1024,
        element_bits: int = 32,
        backend=None,
        plan_cache_size: int = 64,
        faults=None,
    ) -> None:
        check_memories(memories)
        if plan_cache_size < 0:
            raise PlanError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        self.element_bits = element_bits
        #: what ``store`` / ``preload`` / ``attach_store`` write, and
        #: what :meth:`compile` fingerprints for the plan-cache key.
        self.catalog = Catalog(disk=disk, element_bits=element_bits)
        self.devices = build_devices(devices, capacity, technology, backend)
        #: Active :class:`~repro.faults.plan.FaultPlan` (None = no faults).
        self.faults = faults
        self._memories = (memories, memory_bytes)
        self._plan_cache = PlanCache(plan_cache_size)
        #: what :attr:`memories` / :attr:`crossbar` show before any run
        #: (and after a preload): the catalog's fresh state.
        self._initial = self._fresh_state()
        #: the most recent run; its state is built only when shown.
        self._last_run: Optional[PlanExecutor] = None

    def _fresh_state(self) -> MachineState:
        return fresh_state(
            self.catalog, self.devices, *self._memories, self.element_bits
        )

    # -- views ---------------------------------------------------------------

    @property
    def disk(self) -> MachineDisk:
        return self.catalog.disk

    @property
    def _shown(self) -> MachineState:
        """The state the most recent run left behind (before any run,
        the catalog's fresh state).  Never executed on again."""
        if self._last_run is None:
            return self._initial
        return self._last_run.state

    @property
    def memories(self) -> list[MemoryModule]:
        return self._shown.memories

    @property
    def crossbar(self) -> CrossbarSwitch:
        return self._shown.crossbar

    @property
    def _resident(self) -> dict[str, tuple[str, Relation, float, str]]:
        return self._shown.resident

    # -- catalog -------------------------------------------------------------

    def store(self, name: str, relation: Relation) -> None:
        """Place a base relation on the machine's disk."""
        self.catalog.store(name, relation)

    def attach_store(self, store) -> None:
        """Back the machine's disk with a persistent relation store.

        Every relation held by the :class:`~repro.store.RelationStore`
        becomes queryable by name; selections over them prune chunks
        through the store's zone maps during the disk read.  Cached
        plans over a relation the store now answers for recompile
        against the store-backed sizes.
        """
        self.catalog.attach_store(store)

    def preload(self, name: str, relation: Relation) -> None:
        """Place a relation directly in a memory module, ready at time 0.

        §9's memories hold results between operations and transactions
        ("the final results are eventually returned to the disk ...
        from the memory in which they reside"); a preloaded relation
        models exactly that — a prior transaction's output still
        resident, needing no disk read.  Every run starts with the
        preloads placed, in preload order.
        """
        # Place it first: a duplicate name or a relation no module can
        # hold is refused here, before the catalog changes.
        state = self._fresh_state()
        place_resident(state, name, relation)
        self.catalog.preload(name, relation)
        self._initial, self._last_run = state, None

    # -- compilation ------------------------------------------------------------

    def compile(
        self,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
    ) -> PhysicalPlan:
        """Lower logical plans into a :class:`PhysicalPlan` for this machine.

        Pure — nothing is loaded, stored, or timed on the machine
        itself, so a plan can be compiled, inspected (``explain()``),
        and then handed to :meth:`run_physical`.  With
        ``pipeline=False`` no chains are fused and execution is
        store-and-forward, §9's simplest reading.

        This is :func:`~repro.machine.pool.compile_plans` over the
        machine's catalog and full roster — the call the pool and every
        shard lane make — LRU-cached under its one key: plan structure
        (sharing included), arrivals, pipeline flag, and the planning
        snapshot of the base relations the plans name and the roster.
        A :meth:`store` of a relation the plans do not name evicts
        nothing; ``plan_cache_size=0`` turns the cache off.
        """
        return compile_plans(
            self._plan_cache, self.catalog, self.devices, self.element_bits,
            self._memories, plans, arrivals, pipeline,
        )

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss counters and occupancy of the compile cache."""
        return self._plan_cache.info()

    # -- execution -------------------------------------------------------------

    def run(
        self, plan: PlanNode, pipeline: bool = True
    ) -> tuple[Relation, ExecutionReport]:
        """Execute one plan; returns (result, timed report)."""
        results, report = self.run_many([plan], pipeline=pipeline)
        return results[0], report

    def run_many(
        self,
        plans: Sequence[PlanNode],
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
    ) -> tuple[list[Relation], ExecutionReport]:
        """Execute a transaction of several plans on one shared timeline.

        Plans are independent unless they share sub-plan objects, in
        which case the shared node is computed once.  ``arrivals`` are
        optional per-plan release times (seconds): nothing belonging to
        a plan starts before its arrival — §9's "set of transactions"
        submitted over time.

        Each logical plan is lowered through :meth:`compile` first;
        producer→consumer systolic stages fuse into pipelined chains
        unless ``pipeline=False``.  Independent operations overlap on
        the simulated timeline; the host computes them one at a time.

        With a :class:`~repro.faults.plan.FaultPlan` attached, transient
        device/disk faults are retried in place; a device that exhausts
        its retry budget is quarantined and the transaction replanned
        against the surviving roster (graceful degradation); like every
        attempt, the replan executes on a fresh state.
        """

        def compile_on(roster: Optional[list]) -> PhysicalPlan:
            # Full-roster compiles stay on the public method, where
            # callers that wrap ``compile`` (the e2e tracer) see them.
            if roster is None:
                return self.compile(plans, arrivals, pipeline=pipeline)
            return compile_plans(
                self._plan_cache, self.catalog, roster, self.element_bits,
                self._memories, plans, arrivals, pipeline,
            )

        return replan_on_quarantine(
            self.devices, self.faults, compile_on,
            lambda roster, plan: self.run_physical(plan()),
        )

    def run_physical(
        self, physical: PhysicalPlan
    ) -> tuple[list[Relation], ExecutionReport]:
        """Execute an already-compiled physical plan.

        Returns one result per original plan (``physical.outputs``
        order) and the executed timeline.  The report is the ground
        truth; ``physical.predicted_makespan`` is the planner's
        port-blind forecast of the same schedule.  The plan runs on a
        fresh machine built from the catalog — see
        :class:`~repro.machine.execution.PlanExecutor` for the
        one-pass (resolve, then place, op by op) execution model.
        """
        self._last_run = PlanExecutor(
            self.catalog, self.devices, *self._memories, self.element_bits,
            faults=self.faults,
        )
        return self._last_run.run_physical(physical)

    def __repr__(self) -> str:
        kinds = ", ".join(d.name for d in self.devices)
        return (
            f"SystolicDatabaseMachine({self._memories[0]} memories; {kinds})"
        )
