"""The execution core shared by every front-end of the Fig 9-1 machine.

:class:`SystolicDatabaseMachine` (one caller), the
:class:`~repro.machine.pool.EnginePool` (many concurrent sessions) and
every shard lane execute physical plans the same way; this module holds
that shared machinery so the front-ends cannot drift:

* :class:`MachineState` — the *simulated-resource* state one execution
  mutates: memory modules, crossbar port windows, resident relations,
  device and disk occupancy, and the key counter.  Nobody keeps one
  between transactions: every run starts from the state
  :func:`fresh_state` builds from its catalog (preloads are §9's
  "results ... reside in memory" between transactions), which is what
  makes a query a function of (catalog, plan) — run N equals run 1,
  and a pooled or sharded run is bit-identical to running alone on a
  new machine.
* :class:`PlanExecutor` — one pass over the plan on the calling
  thread: each op's data result is resolved, and then placed on the
  simulated clock (timing and memory bookkeeping), inside that op's
  own ``machine.op`` span.  The simulated clock is where §9's
  "several operations may be run concurrently" happens.  Because every
  run starts fresh, a placement is a function of the plan and of what
  was resolved so far; the plan's
  :class:`~repro.machine.scheduler.PlacementMemo` replays the ones an
  earlier run recorded.
* :func:`build_devices`, :func:`place_resident`,
  :func:`check_memories` — the construction helpers the front-ends
  share.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from repro import obs
from repro.arrays.decomposition import ArrayCapacity
from repro.errors import (
    CapacityError,
    DeviceFaultError,
    DiskFaultError,
    PlanError,
)
from repro.faults.recovery import DEFAULT_RETRY_POLICY, guarded_call
from repro.obs import metrics
from repro.machine.catalog import Catalog
from repro.machine.crossbar import CrossbarSwitch
from repro.machine.device import CpuDevice, DeviceRun, SystolicDevice
from repro.machine.disk import MachineDisk
from repro.machine.memory import MemoryModule, emptiest, relation_bytes
from repro.machine.physical import (
    OP_ARRAY,
    OP_LOAD,
    OP_RESIDENT,
    PhysicalOp,
    PhysicalPlan,
    PhysicalPlanner,
    actual_cost,
)
from repro.machine.pipelining import StageCost
from repro.machine.plan import PlanNode
from repro.machine.scheduler import (
    DeviceRoster,
    ExecutionReport,
    Placement,
    ScheduledStep,
)
from repro.perf.disk import disk_sweep
from repro.perf.technology import TechnologyModel
from repro.relational.relation import Relation

__all__ = [
    "MachineState",
    "PlanExecutor",
    "build_devices",
    "check_memories",
    "fresh_state",
    "place_resident",
]

#: The crossbar port (and step device) of the machine's disk.
DISK = "disk"


def build_devices(
    specs: Sequence[tuple],
    capacity: ArrayCapacity,
    technology: TechnologyModel,
    backend=None,
) -> list[SystolicDevice | CpuDevice]:
    """The device complement for a roster: systolic arrays plus the CPU.

    Each spec is ``(kind, count)``, ``(kind, count, ArrayCapacity)``,
    or ``(kind, count, ArrayCapacity, element_bits)`` — the third
    element gives one roster heterogeneous array sizes, which is what
    makes cost-aware device choice interesting; the fourth builds §8
    **bit-level** comparison arrays (``max_cols`` bit comparators,
    ``element_bits`` bits per word element), which the planner prices
    against the word devices.
    """
    devices: list[SystolicDevice | CpuDevice] = []
    kind_index: dict[str, itertools.count] = {}
    for spec in specs:
        kind, count = spec[0], spec[1]
        device_capacity = spec[2] if len(spec) > 2 else capacity
        element_bits = spec[3] if len(spec) > 3 else None
        indices = kind_index.setdefault(kind, itertools.count())
        for _ in range(count):
            devices.append(
                SystolicDevice(
                    f"{kind}{next(indices)}", kind,
                    capacity=device_capacity, technology=technology,
                    backend=backend, element_bits=element_bits,
                )
            )
    devices.append(CpuDevice("cpu"))
    return devices


class MachineState:
    """The mutable simulated-resource state one execution works against.

    Starts empty — ``memories`` modules of ``memory_bytes`` each, an
    idle crossbar around a disk and a device roster, no key issued;
    :func:`fresh_state` is the one place that builds it.
    """

    def __init__(
        self,
        element_bits: int,
        disk: MachineDisk,
        devices: list[SystolicDevice | CpuDevice],
        memories: int,
        memory_bytes: int,
    ) -> None:
        self.element_bits = element_bits
        self.disk = disk
        self.devices = devices
        self.memories = [
            MemoryModule(f"mem{m}", capacity_bytes=memory_bytes)
            for m in range(memories)
        ]
        self._memory_named = {m.name: m for m in self.memories}
        self.crossbar = CrossbarSwitch(
            list(self._memory_named), [d.name for d in devices] + [DISK]
        )
        #: relations already resident in memories (ready at time 0):
        #: name -> (key, relation, ready, memory name)
        self.resident: dict[str, tuple[str, Relation, float, str]] = {}
        #: when each device is next free, and when the disk is.
        self.roster = DeviceRoster(devices)
        self.disk_free = 0.0
        #: result keys issued so far.
        self.keys = 0

    def memory(self, name: str) -> MemoryModule:
        """The memory module of that name."""
        return self._memory_named[name]

    def key_for(self, node: PlanNode, offset: int = 0) -> str:
        """The result key the ``offset``-th next step issues."""
        return f"n{self.keys + offset}:{node.describe()}"

    def apply(
        self, placement: Placement, relations: Sequence[Relation]
    ) -> None:
        """Make a placement's effects: its stored results (``relations``
        are the run's, one per step), its crossbar links, the device or
        disk each step holds until its end, and one key per step."""
        for index in placement.stored:
            step = placement.steps[index]
            self.memory(step.output_memory).store(
                step.output_key, relations[index], step.nbytes_out
            )
        for link in placement.links:
            self.crossbar.establish(*link)
        for step in placement.steps:
            if step.device == DISK:
                self.disk_free = step.end
            else:
                self.roster.occupy(step.device, step.end)
        self.keys += len(placement.steps)


def place_resident(state: MachineState, name: str, relation: Relation) -> None:
    """Place a relation in a memory module, ready at time 0.

    §9's memories hold results between operations and transactions
    ("the final results are eventually returned to the disk ... from
    the memory in which they reside"); a resident relation models
    exactly that — a prior transaction's output still in memory,
    needing no disk read.  Residents spread across modules (emptiest
    first) so their ports don't become a single serialization point.
    """
    if name in state.resident:
        raise PlanError(f"relation {name!r} is already resident")
    nbytes = relation_bytes(relation, state.element_bits)
    index = emptiest([m.free_bytes for m in state.memories], nbytes)
    if index is None:
        raise CapacityError(
            f"no memory module can absorb {nbytes} bytes for {name!r}"
        )
    memory = state.memories[index]
    key = f"resident:{name}"
    memory.store(key, relation, nbytes)
    state.resident[name] = (key, relation, 0.0, memory.name)


def check_memories(memories: int) -> None:
    """Refuse a machine of fewer than two memory modules."""
    if memories < 2:
        raise CapacityError(
            "the machine needs at least two memories (§9: output is "
            "pipelined back into *another* memory)"
        )


def fresh_state(
    catalog: Catalog,
    devices: list[SystolicDevice | CpuDevice],
    memories: int,
    memory_bytes: int,
    element_bits: int,
) -> MachineState:
    """The private simulated machine one transaction runs on.

    Fresh memories, crossbar and key counter around the catalog's disk,
    with the catalog's preloads placed in preload order (emptiest
    module first).  The machine, the pool and every shard lane start
    their runs from this state, so which front end ran a query cannot
    change its timeline; only the (pure) devices are shared between
    runs.  ``devices`` is the full complement or, when recovering from
    a quarantine, the survivors.
    """
    return _state_with(
        catalog.disk, catalog.preloaded(), devices, memories, memory_bytes,
        element_bits,
    )


def _state_with(
    disk: MachineDisk,
    preloaded: Iterable[tuple[str, Relation]],
    devices: list[SystolicDevice | CpuDevice],
    memories: int,
    memory_bytes: int,
    element_bits: int,
) -> MachineState:
    state = MachineState(element_bits, disk, devices, memories, memory_bytes)
    for name, relation in preloaded:
        place_resident(state, name, relation)
    return state


class PlanExecutor:
    """Executes compiled physical plans on a fresh machine.

    One pass over the plan, in plan (topological) order.  Inside its
    own ``machine.op`` span each op is first *resolved* — its disk read
    or device run, a pure function of its inputs — and then *placed* on
    the simulated clock (port windows, memory placement, the timed
    report), so a span's host interval holds the work it names.  The
    timeline depends on the plan and the data alone; the overlap of
    independent operations exists on that simulated clock, not on the
    host's.

    The machine — ``memories`` modules of ``memory_bytes`` around the
    catalog's disk, with its preloads placed — is :func:`fresh_state`'s.
    Placing reads only that state, the plan and what each op resolved
    to, so it is memoized on the plan (:meth:`run_physical`) and the
    state is built only when a placement has to be computed, or when
    :attr:`state` is read.
    """

    def __init__(
        self,
        catalog: Catalog,
        devices: list[SystolicDevice | CpuDevice],
        memories: int,
        memory_bytes: int,
        element_bits: int,
        faults=None,
        cancel=None,
        fault_scope: str = "",
    ) -> None:
        self.disk = catalog.disk
        self.devices = devices
        self.element_bits = element_bits
        self._memories = (memories, memory_bytes)
        #: the preloads this run places, fixed at construction.
        self._preloaded = dict(catalog.preloaded())
        self._device_named = {d.name: d for d in devices}
        #: Active :class:`~repro.faults.plan.FaultPlan` (None = no faults).
        self.faults = faults
        #: :class:`~repro.faults.recovery.CancelToken` polled at dispatch
        #: boundaries (None = not cancellable).
        self.cancel = cancel
        #: Distinguishes fault sites across shards/queries sharing a plan.
        self.fault_scope = fault_scope
        self._state: Optional[MachineState] = None
        #: replayed placements (with the run's relations) not yet
        #: applied to a state, because none was built.
        self._replayed: list[tuple[Placement, tuple[Relation, ...]]] = []
        self._memo = None
        self._node = None
        self._resident_at = None

    @property
    def state(self) -> MachineState:
        """The machine state as placing this run's ops left it.

        Built on first read: the fresh state, with the placements
        replayed so far applied in order — what running the models
        would have left.
        """
        if self._state is None:
            state = _state_with(
                self.disk, self._preloaded.items(), self.devices,
                *self._memories, self.element_bits,
            )
            for placement, relations in self._replayed:
                state.apply(placement, relations)
            self._replayed.clear()
            self._state = state
        return self._state

    def run_physical(
        self, physical: PhysicalPlan
    ) -> tuple[list[Relation], ExecutionReport]:
        """Execute an already-compiled physical plan.

        Returns one result per original plan (``physical.outputs``
        order) and the executed timeline.  The report is the ground
        truth; ``physical.predicted_makespan`` is the planner's
        port-blind forecast of the same schedule.

        Each op's placement is looked up in ``physical.placements``
        under the resident layout and what this run resolved so far:
        a load by its ``(bytes, read seconds)``, a disk sweep by its
        loads' keys, a device op by its ``(bytes out, pulses, block
        runs, seconds)``, a chain by its members' keys with their fill
        seconds.  On a hit the recorded
        steps are reported as they are; from the first miss on, the
        memory, crossbar and roster models place the ops and the new
        branch is recorded.  Spans, metrics and the report are the
        same either way.
        """
        self._memo = physical.placements
        self._node = self._memo.root(self._layout(), self._resident_layout)
        #: name -> (key, ready, memory name) of each preload, as the
        #: memo recorded it (None when the memo is full).
        self._resident_at = (
            self._node.value if self._node is not None else None
        )
        with obs.span("machine.run", ops=len(physical.ops)) as run_span:
            report = ExecutionReport()
            #: op id -> (result key, relation, ready time, memory name)
            produced: dict[int, tuple[str, Relation, float, str]] = {}
            for op in physical.ops:
                if op.kind == OP_RESIDENT:
                    with self._op_span(op):
                        produced[op.op_id] = self._resident(op.node.name)
                    continue
                if op.kind == OP_LOAD:
                    # A sweep is read and placed at its first load.
                    if op.op_id not in produced:
                        self._run_loads(
                            physical.swept_with(op), produced, report
                        )
                    continue
                chain = physical.chain_of(op)
                if chain is None or len(chain) == 1:
                    self._run_singleton(op, produced, report)
                elif chain.op_ids[-1] == op.op_id:
                    # Chains execute as a unit once the machine reaches
                    # the last member: by then every external input of
                    # every stage has been produced (topological order).
                    self._run_chain(
                        [physical[i] for i in chain.op_ids], produced, report
                    )
            results = [produced[op_id][1] for op_id in physical.outputs]
            run_span.set(makespan_ms=report.makespan * 1e3)
        return results, report

    # -- the placement memo -----------------------------------------------------

    def _layout(self) -> tuple:
        """The memo's root key: the memories, and the preloads (with
        their sizes) in the order they are placed."""
        return (*self._memories, tuple(
            (name, relation_bytes(relation, self.element_bits))
            for name, relation in self._preloaded.items()
        ))

    def _resident_layout(self) -> dict[str, tuple[str, float, str]]:
        """Where the fresh state holds each preload: name -> (key,
        ready, memory name)."""
        return {
            name: (key, ready, memory)
            for name, (key, _, ready, memory) in self.state.resident.items()
        }

    def _resident(self, name: str) -> tuple[str, Relation, float, str]:
        """A preload as the plan's resident op produces it: (key,
        relation, ready time, memory name)."""
        if self._resident_at is None:
            return self.state.resident[name]
        key, ready, memory = self._resident_at[name]
        return key, self._preloaded[name], ready, memory

    def _placed(
        self,
        key: Hashable,
        relations: tuple[Relation, ...],
        model: Callable[[MachineState], Placement],
    ) -> Placement:
        """The placement of the op(s) resolved under ``key``: replayed
        from the memo, or made by ``model`` on the state (which applies
        it) and recorded."""
        node = self._node
        if node is not None:
            hit = node.children.get(key)
            if hit is not None:
                self._node = hit
                if self._state is None:
                    self._replayed.append((hit.value, relations))
                else:
                    self._state.apply(hit.value, relations)
                return hit.value
        placement = model(self.state)
        if node is not None:
            self._node = self._memo.record(node.children, key, placement)
        return placement

    def _run_key(self, run: DeviceRun) -> tuple:
        """What placing a device op reads of its run."""
        return (
            relation_bytes(run.relation, self.element_bits),
            run.pulses, run.block_runs, run.seconds,
        )

    def _emit(
        self,
        members: Sequence[PhysicalOp],
        spans: Sequence[Any],
        placement: Placement,
        relations: Sequence[Relation],
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
    ) -> None:
        """Put placed ops on the timeline: each one's report step, what
        it produced and where, the simulated half of its ``machine.op``
        span, and the two per-op metrics."""
        for op, sp, step, relation in zip(
            members, spans, placement.steps, relations
        ):
            report.steps.append(step)
            produced[op.op_id] = (
                step.output_key, relation, step.end, step.output_memory
            )
            if op.kind != OP_LOAD:
                sp.set(pulses=step.pulses, blocks=step.block_runs)
            sp.set(
                rows_out=len(relation), nbytes_out=step.nbytes_out,
                memory=step.output_memory,
                sim_start=step.start, sim_end=step.end,
            )
            metrics.inc("machine.ops.executed")
            metrics.observe("machine.op.sim_seconds", step.duration)

    # -- fault-aware dispatch --------------------------------------------------

    def _device(self, name: str) -> SystolicDevice | CpuDevice:
        """The roster's device of that name."""
        try:
            return self._device_named[name]
        except KeyError:
            raise PlanError(f"unknown device {name!r}") from None

    def _guarded_read(self, op: PhysicalOp):
        """One disk read, retried through the fault plan's injections;
        a chunk the plan damages fails it outright (a re-read would
        meet the same chunk)."""
        name, scope = op.base_name, self.fault_scope
        return guarded_call(
            lambda: self.disk.read(name, selection=op.selection),
            lambda: self.faults.disk_fault(name, scope=scope)
            or self.faults.store_fault(name, self.disk.handle, scope=scope),
            site=f"disk:{self.fault_scope}:{op.op_id}",
            faults=self.faults,
            cancel=self.cancel,
            retryable=(DiskFaultError,),
            slow="disk",
        )

    def _guarded_execute(self, op: PhysicalOp, inputs: list) -> DeviceRun:
        """One device execute, retried on the *same* planned device.

        A transient fault heals under retry, so the recovered run made
        exactly the dispatches the plan prescribed — results, timeline,
        and spans all bit-identical to fault-free.  A device whose
        budget exhausts is quarantined and the error re-raised as
        *permanent* (``quarantined=True``): the pool's replan loop then
        degrades gracefully onto the surviving roster.
        """
        device = self._device(op.device)
        # An array op's block runs take the grid the plan recorded.
        grid = {"variant": op.variant} if op.kind == OP_ARRAY else {}
        try:
            return guarded_call(
                lambda: device.execute(op.node, inputs, **grid),
                lambda: self.faults.device_fault(
                    device.name, f"op{op.op_id}:{op.label}",
                    scope=self.fault_scope, blocks=op.block_runs or None,
                ),
                site=f"device:{self.fault_scope}:{op.op_id}",
                faults=self.faults,
                cancel=self.cancel,
                retryable=(DeviceFaultError,),
                slow=device.name,
            )
        except DeviceFaultError as exc:  # only a fault plan injects one
            self.faults.quarantine(device.name)
            raise DeviceFaultError(
                f"device {device.name!r} exhausted its retry budget of "
                f"{DEFAULT_RETRY_POLICY.attempts} on {op.label!r} and was "
                f"quarantined",
                device=device.name,
                quarantined=True,
            ) from exc

    # -- resolve, then place -----------------------------------------------------

    @staticmethod
    def _op_span(op: PhysicalOp):
        """The ``machine.op`` span an op is resolved and placed under."""
        return obs.span(
            "machine.op", op=op.label,
            device="resident" if op.kind == OP_RESIDENT else op.device,
            kind=op.kind,
        )

    def _run_loads(
        self,
        loads: list[PhysicalOp],
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
    ) -> None:
        """The disk reads of one sweep (selections possibly fused
        on-track), or one load alone.

        Each load is read under its own ``machine.op`` span, so disk
        faults stay per relation; then the sweep is placed
        (:meth:`_place_loads`) inside the last load's span, as a lone
        load is placed inside its own.
        """
        spans, resolved = [], []
        for op in loads[:-1]:
            with self._op_span(op) as sp:
                resolved.append(self._read_load(op))
            spans.append(sp)
        with self._op_span(loads[-1]) as sp:
            spans.append(sp)
            resolved.append(self._read_load(loads[-1]))
            relations, nbytes, seconds = map(list, zip(*resolved))
            key = tuple(zip(nbytes, seconds))
            placement = self._placed(
                key[0] if len(loads) == 1 else key, tuple(relations),
                lambda state: self._place_loads(
                    state, loads, relations, nbytes, seconds
                ),
            )
            if placement.fused:
                metrics.inc("machine.disk.sweeps")
            self._emit(loads, spans, placement, relations, produced, report)

    def _read_load(self, op: PhysicalOp) -> tuple[Relation, int, float]:
        """A load resolved: (relation, bytes, read seconds)."""
        relation, read_seconds = self._guarded_read(op)
        return (
            relation, relation_bytes(relation, self.element_bits),
            read_seconds,
        )

    def _run_singleton(
        self,
        op: PhysicalOp,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
    ) -> None:
        """One store-and-forward operation on its assigned device."""
        with self._op_span(op) as sp:
            run = self._guarded_execute(
                op, [produced[i][1] for i in op.inputs]
            )
            placement = self._placed(
                self._run_key(run), (run.relation,),
                lambda state: self._place_singleton(
                    state, op, run, produced
                ),
            )
            self._emit(
                [op], [sp], placement, (run.relation,), produced, report
            )

    def _run_chain(
        self,
        members: list[PhysicalOp],
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
    ) -> None:
        """Execute a fused chain under the Σ fill + max stream law (§9).

        Stage *k* starts once the k−1 upstream fills have elapsed and
        holds its device until its last result emerges; intermediate
        results stream device→switch→device, so the consumer takes no
        extra port on the producer's output memory.

        Every member is resolved first, under its own ``machine.op`` —
        its inputs are its producers' relations whether or not the
        chain fuses — and the resolved sizes decide: the chain is
        placed fused where :meth:`_fit_chain` says, or, when it fits
        nowhere, its members are placed store-and-forward on the spans
        they already have.  Nothing is computed twice.
        """
        with obs.span(
            "machine.chain", stages=len(members),
            chain=" | ".join(m.label for m in members),
        ) as chain_span:
            runs: dict[int, DeviceRun] = {}
            spans = []
            for member in members:
                with self._op_span(member) as sp:
                    runs[member.op_id] = self._guarded_execute(
                        member, self._chain_inputs(member, runs, produced)
                    )
                spans.append(sp)
            relations = tuple(runs[m.op_id].relation for m in members)
            fills = [
                self._fill_seconds(member, runs, produced)
                for member in members
            ]
            placement = self._placed(
                tuple(
                    self._run_key(runs[m.op_id]) + (fill,)
                    for m, fill in zip(members, fills)
                ),
                relations,
                lambda state: self._place_chain(
                    state, members, runs, fills, produced
                ),
            )
            chain_span.set(fused=placement.fused)
            if placement.fused:
                metrics.inc("machine.chains.executed")
            self._emit(members, spans, placement, relations, produced, report)
            if placement.fused:
                chain_span.set(
                    sim_start=placement.steps[0].start,
                    sim_end=placement.steps[-1].end,
                )

    @staticmethod
    def _chain_inputs(
        member: PhysicalOp,
        runs: dict[int, DeviceRun],
        produced: dict[int, tuple[str, Relation, float, str]],
    ) -> list[Relation]:
        """A chain member's input relations: an upstream member's
        result, or what an op outside the chain produced."""
        return [
            runs[i].relation if i in runs else produced[i][1]
            for i in member.inputs
        ]

    def _fill_seconds(
        self,
        member: PhysicalOp,
        runs: dict[int, DeviceRun],
        produced: dict[int, tuple[str, Relation, float, str]],
    ) -> float:
        """A resolved chain stage's latency to its first result, from
        its actual inputs."""
        device = self._device(member.device)
        cost = actual_cost(
            member.node, self._chain_inputs(member, runs, produced),
            device.capacity.max_rows, device.capacity.max_cols,
            element_bits=getattr(device, "element_bits", None),
            variant=member.variant,
        )
        return device.technology.pulses_to_seconds(cost.fill_pulses)

    # -- the placement models ---------------------------------------------------

    @staticmethod
    def _choose_memory(
        state: MachineState,
        nbytes: int,
        avoid: set[str],
        ready: float,
        duration: float,
    ) -> tuple[MemoryModule, float]:
        """A memory with space and the earliest free port window."""
        best: Optional[tuple[float, int, MemoryModule]] = None
        for index, memory in enumerate(state.memories):
            if memory.name in avoid or memory.free_bytes < nbytes:
                continue
            start = state.crossbar.earliest_window(
                memory.name, ready, duration
            )
            candidate = (start, index, memory)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        if best is None:
            raise CapacityError(
                f"no memory module can absorb {nbytes} bytes "
                f"(avoiding {sorted(avoid)})"
            )
        return best[2], best[0]

    @staticmethod
    def _paced_seconds(
        state: MachineState,
        seconds: float,
        sources: Iterable[tuple[str, str]],
        nbytes_out: int,
    ) -> float:
        """Stand-alone seconds of a resolved operation.

        An operation runs at the pace of its slowest stream: its own
        ``seconds``, any input being read out of its memory
        (``sources``: ``(key, memory name)`` pairs), or the result
        being written back (§6.2's warning — a degenerate join's output
        can dwarf its inputs — shows up here as output-streaming time).
        """
        streams = [
            state.memory(memory_name).transfer_seconds(
                state.memory(memory_name).size_of(key)
            )
            for key, memory_name in sources
        ]
        streams.append(state.memories[0].transfer_seconds(nbytes_out))
        return max([seconds] + streams)

    def _place_loads(
        self,
        state: MachineState,
        loads: list[PhysicalOp],
        relations: list[Relation],
        nbytes: list[int],
        seconds: list[float],
    ) -> Placement:
        """A sweep's reads (or one load's) into the memory whose port
        frees first among those with room for all of them, over one
        disk link.  When no memory can take the whole sweep, its loads
        are placed one after another, each read alone.  ``fused`` says
        which (None for one load)."""
        ready, end = disk_sweep(state.disk_free, loads[0].release, seconds)
        try:
            memory, ready = self._choose_memory(
                state, sum(nbytes), avoid=set(), ready=ready,
                duration=end - ready,
            )
        except CapacityError:
            if len(loads) == 1:
                raise
            # Each single placement applies itself, as a chain's
            # store-and-forward fallback does.
            parts = [
                self._place_loads(
                    state, loads[k:k + 1], relations[k:k + 1],
                    nbytes[k:k + 1], seconds[k:k + 1],
                )
                for k in range(len(loads))
            ]
            return Placement(
                steps=tuple(part.steps[0] for part in parts),
                stored=tuple(range(len(parts))),
                links=tuple(part.links[0] for part in parts),
                fused=False,
            )
        start, end = disk_sweep(state.disk_free, ready, seconds)
        steps = []
        for k, op in enumerate(loads):
            node = op.fused_select if op.fused_select is not None else op.node
            steps.append(ScheduledStep(
                label=op.label, device=DISK, start=start, end=end,
                output_key=state.key_for(node, offset=k),
                output_memory=memory.name, nbytes_out=nbytes[k],
                swept=k > 0,
            ))
        placement = Placement(
            steps=tuple(steps),
            stored=tuple(range(len(steps))),
            links=((memory.name, DISK, start, end),),
            fused=True if len(loads) > 1 else None,
        )
        state.apply(placement, relations)
        return placement

    def _place_singleton(
        self,
        state: MachineState,
        op: PhysicalOp,
        run: DeviceRun,
        produced: dict[int, tuple[str, Relation, float, str]],
    ) -> Placement:
        """Place a resolved op store-and-forward: inputs out of their
        memories, the result into another."""
        input_keys = []
        input_memories = []
        ready = op.release
        for input_id in op.inputs:
            key, _, child_ready, memory_name = produced[input_id]
            input_keys.append(key)
            input_memories.append(memory_name)
            ready = max(ready, child_ready)
        ports = set(input_memories)

        device_ready = max(ready, state.roster.free_at(op.device))
        nbytes_out = relation_bytes(run.relation, state.element_bits)

        duration = self._paced_seconds(
            state, run.seconds, zip(input_keys, input_memories), nbytes_out
        )

        # Find a start time at which every input port is free for the
        # whole window, the device is free, and an output memory exists.
        start = device_ready
        for _ in range(64):  # converges in a couple of rounds in practice
            adjusted = start
            for memory_name in ports:
                adjusted = max(
                    adjusted,
                    state.crossbar.earliest_window(
                        memory_name, adjusted, duration
                    ),
                )
            out_memory, out_start = self._choose_memory(
                state, nbytes_out, avoid=ports, ready=adjusted,
                duration=duration,
            )
            adjusted = max(adjusted, out_start)
            if adjusted == start:
                break
            start = adjusted
        end = start + duration

        links = [(memory_name, op.device, start, end) for memory_name in ports]
        if out_memory.name not in ports:
            links.append((out_memory.name, op.device, start, end))
        placement = Placement(
            steps=(ScheduledStep(
                label=op.label, device=op.device, start=start, end=end,
                output_key=state.key_for(op.node),
                output_memory=out_memory.name,
                input_keys=tuple(input_keys),
                pulses=run.pulses, block_runs=run.block_runs,
                nbytes_out=nbytes_out,
            ),),
            stored=(0,),
            links=tuple(links),
        )
        state.apply(placement, (run.relation,))
        return placement

    def _place_chain(
        self,
        state: MachineState,
        members: list[PhysicalOp],
        runs: dict[int, DeviceRun],
        fills: list[float],
        produced: dict[int, tuple[str, Relation, float, str]],
    ) -> Placement:
        """Place a resolved chain: fused where :meth:`_fit_chain` fits
        it, else member by member, store-and-forward."""
        fit = self._fit_chain(state, members, runs, fills, produced)
        if fit is None:
            steps, links = [], []
            for member in members:
                run = runs[member.op_id]
                part = self._place_singleton(state, member, run, produced)
                (step,) = part.steps
                # The next member reads this one's output from memory.
                produced[member.op_id] = (
                    step.output_key, run.relation, step.end,
                    step.output_memory,
                )
                steps.append(step)
                links.extend(part.links)
            return Placement(
                steps=tuple(steps), stored=tuple(range(len(steps))),
                links=tuple(links), fused=False,
            )

        # Claim ports, occupy devices, store the tail's output.
        out_memory, windows = fit
        steps, links = [], []
        keys: dict[int, str] = {}
        for k, member in enumerate(members):
            start, end, external, nbytes_out = windows[k]
            run = runs[member.op_id]
            keys[member.op_id] = state.key_for(member.node, offset=k)
            links.extend(
                (memory_name, member.device, start, end)
                for memory_name in external
            )
            if k + 1 == len(members):
                memory_label = out_memory.name
                if out_memory.name not in external:
                    links.append((out_memory.name, member.device, start, end))
            else:
                # Streamed straight into the next stage's array.
                memory_label = f"->{members[k + 1].device}"
            steps.append(ScheduledStep(
                label=member.label, device=member.device,
                start=start, end=end,
                output_key=keys[member.op_id], output_memory=memory_label,
                input_keys=tuple(
                    keys[i] if i in keys else produced[i][0]
                    for i in member.inputs
                ),
                pulses=run.pulses, block_runs=run.block_runs,
                nbytes_out=nbytes_out,
            ))
        placement = Placement(
            steps=tuple(steps), stored=(len(steps) - 1,),
            links=tuple(links), fused=True,
        )
        state.apply(placement, [runs[m.op_id].relation for m in members])
        return placement

    def _fit_chain(
        self,
        state: MachineState,
        members: list[PhysicalOp],
        runs: dict[int, DeviceRun],
        fills: list[float],
        produced: dict[int, tuple[str, Relation, float, str]],
    ) -> Optional[tuple[MemoryModule, list[tuple]]]:
        """Where a resolved chain runs fused, if this machine can fuse it.

        Returns the memory taking the tail's output and, per member,
        ``(start, end, external input memories, output bytes)`` — or
        ``None``, and the chain runs store-and-forward instead.
        """
        stages, ports, out_bytes = [], [], []
        device_of_port: dict[str, str] = {}
        for member, fill in zip(members, fills):
            external = [
                (produced[i][0], produced[i][3])  # (key, memory name)
                for i in member.inputs if i not in runs
            ]
            # All stage windows overlap, so a memory port can serve only
            # one stage device for the chain's whole span.  If two stages
            # need externals out of the same memory, the ports cannot be
            # disentangled.
            for _, memory_name in external:
                claimed = device_of_port.setdefault(memory_name, member.device)
                if claimed != member.device:
                    return None
            ports.append({memory_name for _, memory_name in external})

            # The stage's stand-alone duration → (fill, stream) split,
            # from its result and its actual fill latency.
            run = runs[member.op_id]
            nbytes_out = relation_bytes(run.relation, state.element_bits)
            total = self._paced_seconds(state, run.seconds, external, nbytes_out)
            fill = min(fill, total)
            stages.append(StageCost(
                name=member.label, fill=fill, stream=total - fill
            ))
            out_bytes.append(nbytes_out)

        # Stage k's window relative to the chain start: the prefix form
        # of the pipeline law — the last stage ends at Σ fill + max
        # stream, analyze_chain's pipelined makespan.
        offsets = PhysicalPlanner._stage_offsets(stages)

        # Each stage needs its own inputs (and release) only by the time
        # *it* starts — chain_start + lo_k — so an input arriving late to
        # a downstream stage does not hold the upstream stages back.
        start = 0.0
        for member, (lo, _) in zip(members, offsets):
            start = max(start, member.release - lo,
                        state.roster.free_at(member.device) - lo)
            for input_id in member.inputs:
                if input_id not in runs:
                    start = max(start, produced[input_id][2] - lo)

        # Fixed point over the chain start: every stage's external input
        # ports must be free over its window, plus one memory for the
        # tail's output.  Intermediate results never touch a memory —
        # they stream device→switch→device (§9), which is the point of
        # fusing — so the chain needs |externals| + 1 ports in total.
        all_external = set().union(*ports)
        tail_lo, tail_hi = offsets[-1]
        try:
            for _ in range(64):
                adjusted = start
                for (lo, hi), external in zip(offsets, ports):
                    for memory_name in external:
                        adjusted = max(
                            adjusted,
                            state.crossbar.earliest_window(
                                memory_name, adjusted + lo, hi - lo
                            ) - lo,
                        )
                out_memory, out_start = self._choose_memory(
                    state, out_bytes[-1], avoid=all_external,
                    ready=adjusted + tail_lo, duration=tail_hi - tail_lo,
                )
                adjusted = max(adjusted, out_start - tail_lo)
                if adjusted == start:
                    break
                start = adjusted
        except CapacityError:
            # Not enough distinct memory ports (or room) for the fused
            # chain on this machine.
            return None
        return out_memory, [
            (start + lo, start + hi, external, nbytes_out)
            for (lo, hi), external, nbytes_out in zip(offsets, ports, out_bytes)
        ]
