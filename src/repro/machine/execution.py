"""The execution core shared by every front-end of the Fig 9-1 machine.

:class:`SystolicDatabaseMachine` (one caller), the
:class:`~repro.machine.pool.EnginePool` (many concurrent sessions) and
every shard lane execute physical plans the same way; this module holds
that shared machinery so the front-ends cannot drift:

* :class:`MachineState` — the *simulated-resource* state one execution
  mutates: memory modules, crossbar port windows, resident relations,
  and the key counter.  Nobody keeps one between transactions: every
  run gets the state :func:`fresh_state` builds from its catalog
  (preloads are §9's "results ... reside in memory" between
  transactions), which is what makes a query a function of (catalog,
  plan) — run N equals run 1, and a pooled or sharded run is
  bit-identical to running alone on a new machine.
* :class:`PlanExecutor` — the two-phase executor: a *compute phase*
  resolving every op's data result, one op after another on the
  calling thread, then a *replay phase* doing all the timing and
  memory bookkeeping on the simulated clock — which is where §9's
  "several operations may be run concurrently" happens.
* :func:`build_devices`, :func:`place_resident`,
  :func:`roster_fingerprint`, :func:`check_memories` — the
  construction helpers the front-ends share.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional, Sequence

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
from repro.machine.device import CpuDevice, SystolicDevice
from repro.machine.disk import MachineDisk
from repro.machine.memory import MemoryModule, relation_bytes
from repro.machine.physical import (
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
    ScheduledStep,
)
from repro.perf.technology import TechnologyModel
from repro.relational.relation import Relation

__all__ = [
    "MachineState",
    "PlanExecutor",
    "build_devices",
    "check_memories",
    "fresh_state",
    "place_resident",
    "roster_fingerprint",
]


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


def roster_fingerprint(
    devices: Iterable[SystolicDevice | CpuDevice],
) -> tuple:
    """A hashable identity of a device complement, for plan-cache keys."""
    return tuple(
        (
            device.name,
            device.kind,
            getattr(getattr(device, "capacity", None), "max_rows", None),
            getattr(getattr(device, "capacity", None), "max_cols", None),
            getattr(device, "element_bits", None),
        )
        for device in devices
    )


class MachineState:
    """The mutable simulated-resource state one execution works against.

    Starts empty — ``memories`` modules of ``memory_bytes`` each and an
    idle crossbar around a disk and a device roster; :func:`fresh_state`
    is the one place that builds it.
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
        self.crossbar = CrossbarSwitch(
            [m.name for m in self.memories],
            [d.name for d in devices] + ["disk"],
        )
        #: relations already resident in memories (ready at time 0):
        #: name -> (key, relation, ready, memory name)
        self.resident: dict[str, tuple[str, Relation, float, str]] = {}
        self.step_counter = itertools.count()


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
    candidates = [m for m in state.memories if m.free_bytes >= nbytes]
    if not candidates:
        raise CapacityError(
            f"no memory module can absorb {nbytes} bytes for {name!r}"
        )
    memory = min(candidates, key=lambda m: (m.used_bytes, m.name))
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
    module first).  The machine, the pool and every shard lane build
    their per-run state here, so which front end ran a query cannot
    change its timeline; only the (pure) devices are shared between
    runs.  ``devices`` is the full complement or, when recovering from
    a quarantine, the survivors.
    """
    state = MachineState(
        element_bits, catalog.disk, devices, memories, memory_bytes
    )
    for name, relation in catalog.preloaded():
        place_resident(state, name, relation)
    return state


class PlanExecutor:
    """Executes compiled physical plans against a :class:`MachineState`.

    Execution happens in two phases.  The **compute phase** resolves
    every op's data result — disk reads and device runs, which are pure
    functions of their inputs — in plan order on the calling thread.
    The **replay phase** then walks the plan again doing all the
    *simulated* bookkeeping (port windows, memory placement, the timed
    report), so the timeline depends on the plan and the data alone;
    the overlap of independent operations exists on that simulated
    clock, not on the host's.
    """

    def __init__(
        self,
        state: MachineState,
        faults=None,
        cancel=None,
        fault_scope: str = "",
    ) -> None:
        self.state = state
        #: Active :class:`~repro.faults.plan.FaultPlan` (None = no faults).
        self.faults = faults
        #: :class:`~repro.faults.recovery.CancelToken` polled at dispatch
        #: boundaries (None = not cancellable).
        self.cancel = cancel
        #: Distinguishes fault sites across shards/queries sharing a plan.
        self.fault_scope = fault_scope

    def run_physical(
        self, physical: PhysicalPlan
    ) -> tuple[list[Relation], ExecutionReport]:
        """Execute an already-compiled physical plan.

        Returns one result per original plan (``physical.outputs``
        order) and the executed timeline.  The report is the ground
        truth; ``physical.predicted_makespan`` is the planner's
        port-blind forecast of the same schedule.
        """
        state = self.state
        with obs.span("machine.run", ops=len(physical.ops)) as run_span:
            with obs.span("machine.compute_phase"):
                runs, task_spans = self._compute_phase(physical)
            report = ExecutionReport()
            roster = DeviceRoster(state.devices)
            disk_free = 0.0
            #: op id -> (result key, relation, ready time, memory name)
            produced: dict[int, tuple[str, Relation, float, str]] = {}
            with obs.span("machine.replay"):
                for op in physical.ops:
                    if op.op_id in produced:
                        continue
                    if op.kind == OP_RESIDENT:
                        with obs.span(
                            "machine.op", op=op.label, device="resident",
                            kind=op.kind,
                        ):
                            produced[op.op_id] = state.resident[op.node.name]
                        continue
                    if op.kind == OP_LOAD:
                        disk_free = self._run_load(
                            op, produced, report, disk_free,
                            runs[op.op_id], task_spans.get(op.op_id),
                        )
                        continue
                    chain = physical.chain_of(op)
                    if chain is not None and len(chain) > 1:
                        members = [physical[i] for i in chain.op_ids]
                        if members[-1].op_id != op.op_id:
                            # Chains execute as a unit once the machine
                            # reaches the last member: by then every
                            # external input of every stage has been
                            # produced (topological order).
                            continue
                        self._run_chain(
                            members, produced, report, roster, runs,
                            task_spans,
                        )
                    else:
                        self._run_singleton(
                            op, produced, report, roster, runs, task_spans
                        )
            results = [produced[op_id][1] for op_id in physical.outputs]
            run_span.set(makespan_ms=report.makespan * 1e3)
        return results, report

    # -- compute phase ---------------------------------------------------------

    def _compute_phase(
        self, physical: PhysicalPlan
    ) -> tuple[dict[int, Any], dict[int, Any]]:
        """Resolve every op's data result, in plan (topological) order.

        Returns ``({op_id: result}, {op_id: span})`` where a load's
        result is the ``(relation, read_seconds)`` pair from
        :meth:`MachineDisk.read`, a compute op's is its
        :class:`~repro.machine.device.DeviceRun`, and a resident's is
        the relation itself.  Chain members are computed here exactly
        like singletons — a member's inputs are its producers'
        relations either way — so the replay phase can fall back from a
        fused chain to store-and-forward without recomputing anything.

        Each op resolves under a **detached** ``host.task`` span
        (returned in the second dict); the replay phase grafts those
        subtrees under its per-op spans, so a span tree holds only the
        attempts that replay committed and reads in replay order.
        """

        def relation_of(value: Any) -> Relation:
            if isinstance(value, Relation):
                return value  # resident
            if isinstance(value, tuple):
                return value[0]  # disk load: (relation, seconds)
            return value.relation  # DeviceRun

        runs: dict[int, Any] = {}
        task_spans: dict[int, Any] = {}
        for op in physical.ops:
            if op.kind == OP_RESIDENT:
                runs[op.op_id] = self.state.resident[op.node.name][1]
                continue
            with obs.detached("host.task", op=op.label) as sp:
                if op.kind == OP_LOAD:
                    runs[op.op_id] = self._guarded_read(op)
                else:
                    runs[op.op_id] = self._guarded_execute(
                        op, self._device(op.device),
                        [relation_of(runs[i]) for i in op.inputs],
                    )
            task_spans[op.op_id] = sp
        return runs, task_spans

    # -- fault-aware dispatch --------------------------------------------------

    def _guarded_read(self, op: PhysicalOp):
        """One disk read, retried through the fault plan's injections."""
        return guarded_call(
            lambda: self.state.disk.read(
                op.base_name, selection=op.selection
            ),
            lambda: self.faults.disk_fault(
                op.base_name, scope=self.fault_scope
            ),
            site=f"disk:{self.fault_scope}:{op.op_id}",
            faults=self.faults,
            cancel=self.cancel,
            retryable=(DiskFaultError,),
            slow="disk",
        )

    def _guarded_execute(self, op: PhysicalOp, device, inputs: list):
        """One device execute, retried on the *same* planned device.

        A transient fault heals under retry, so the recovered run made
        exactly the dispatches the plan prescribed — results, timeline,
        and spans all bit-identical to fault-free.  A device whose
        budget exhausts is quarantined and the error re-raised as
        *permanent* (``quarantined=True``): the pool's replan loop then
        degrades gracefully onto the surviving roster.
        """
        try:
            return guarded_call(
                lambda: device.execute(op.node, inputs),
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

    # -- internals ------------------------------------------------------------

    def _new_key(self, node: PlanNode) -> str:
        return f"n{next(self.state.step_counter)}:{node.describe()}"

    def _device(self, name: str) -> SystolicDevice | CpuDevice:
        for device in self.state.devices:
            if device.name == name:
                return device
        raise PlanError(f"unknown device {name!r}")

    def _choose_memory(
        self, nbytes: int, avoid: set[str], ready: float, duration: float
    ) -> tuple[MemoryModule, float]:
        """A memory with space and the earliest free port window."""
        best: Optional[tuple[float, int, MemoryModule]] = None
        for index, memory in enumerate(self.state.memories):
            if memory.name in avoid or memory.free_bytes < nbytes:
                continue
            start = self.state.crossbar.earliest_window(
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

    def _run_load(
        self,
        op: PhysicalOp,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        disk_free: float,
        loaded: tuple[Relation, float],
        task_span: Any = None,
    ) -> float:
        """One serial disk read (selection possibly fused on-track)."""
        state = self.state
        with obs.span(
            "machine.op", op=op.label, device="disk", kind=op.kind,
        ) as sp:
            obs.adopt(task_span)
            released = max(disk_free, op.release)
            relation, read_seconds = loaded
            nbytes = relation_bytes(relation, state.element_bits)
            memory, start = self._choose_memory(
                nbytes, avoid=set(), ready=released, duration=read_seconds
            )
            end = start + read_seconds
            key = self._new_key(
                op.fused_select if op.fused_select is not None else op.node
            )
            memory.store(key, relation, nbytes)
            state.crossbar.establish(memory.name, "disk", start, end)
            report.steps.append(ScheduledStep(
                label=op.label,
                device="disk",
                start=start, end=end,
                output_key=key, output_memory=memory.name,
                nbytes_out=nbytes,
            ))
            produced[op.op_id] = (key, relation, end, memory.name)
            sp.set(
                rows_out=len(relation), nbytes_out=nbytes,
                memory=memory.name, sim_start=start, sim_end=end,
            )
        metrics.inc("machine.ops.executed")
        metrics.observe("machine.op.sim_seconds", end - start)
        return end

    def _run_singleton(
        self,
        op: PhysicalOp,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        roster: DeviceRoster,
        runs: dict[int, Any],
        task_spans: Optional[dict[int, Any]] = None,
    ) -> None:
        """One store-and-forward operation on its assigned device."""
        with obs.span(
            "machine.op", op=op.label, device=op.device, kind=op.kind,
        ) as sp:
            if task_spans is not None:
                obs.adopt(task_spans.get(op.op_id))
            start, end = self._commit_singleton(
                op, produced, report, roster, runs, sp
            )
        metrics.inc("machine.ops.executed")
        metrics.observe("machine.op.sim_seconds", end - start)

    def _commit_singleton(
        self,
        op: PhysicalOp,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        roster: DeviceRoster,
        runs: dict[int, Any],
        sp: Any,
    ) -> tuple[float, float]:
        state = self.state
        input_keys = []
        input_memories = []
        ready = op.release
        for input_id in op.inputs:
            key, _, child_ready, memory_name = produced[input_id]
            input_keys.append(key)
            input_memories.append(memory_name)
            ready = max(ready, child_ready)

        device = self._device(op.device)
        device_ready = max(ready, roster.free_at(device.name))
        run = runs[op.op_id]
        nbytes_out = relation_bytes(run.relation, state.element_bits)

        # An operation runs at the pace of its slowest stream: any input
        # being read out of its memory, or the result being written back
        # (§6.2's warning — a degenerate join's output can dwarf its
        # inputs — shows up here as output-streaming time).
        stream_seconds = [
            memory.transfer_seconds(memory.size_of(key))
            for key, memory in (
                (k, self._memory(m)) for k, m in zip(input_keys, input_memories)
            )
        ]
        if state.memories:
            stream_seconds.append(
                state.memories[0].transfer_seconds(nbytes_out)
            )
        duration = max([run.seconds] + stream_seconds)

        # Find a start time at which every input port is free for the
        # whole window, the device is free, and an output memory exists.
        start = device_ready
        for _ in range(64):  # converges in a couple of rounds in practice
            adjusted = start
            for memory_name in set(input_memories):
                adjusted = max(
                    adjusted,
                    state.crossbar.earliest_window(
                        memory_name, adjusted, duration
                    ),
                )
            out_memory, out_start = self._choose_memory(
                nbytes_out,
                avoid=set(input_memories),
                ready=adjusted,
                duration=duration,
            )
            adjusted = max(adjusted, out_start)
            if adjusted == start:
                break
            start = adjusted
        end = start + duration

        key = self._new_key(op.node)
        out_memory.store(key, run.relation, nbytes_out)
        for memory_name in set(input_memories):
            state.crossbar.establish(memory_name, device.name, start, end)
        if out_memory.name not in set(input_memories):
            state.crossbar.establish(out_memory.name, device.name, start, end)
        roster.occupy(device.name, end)
        report.steps.append(ScheduledStep(
            label=op.label,
            device=device.name,
            start=start, end=end,
            output_key=key, output_memory=out_memory.name,
            input_keys=tuple(input_keys),
            pulses=run.pulses, block_runs=run.block_runs,
            nbytes_out=nbytes_out,
        ))
        produced[op.op_id] = (key, run.relation, end, out_memory.name)
        sp.set(
            pulses=run.pulses, blocks=run.block_runs,
            rows_out=len(run.relation), nbytes_out=nbytes_out,
            memory=out_memory.name, sim_start=start, sim_end=end,
        )
        return start, end

    def _run_chain(
        self,
        members: list[PhysicalOp],
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        roster: DeviceRoster,
        precomputed: dict[int, Any],
        task_spans: Optional[dict[int, Any]] = None,
    ) -> None:
        """Execute a fused chain under the Σ fill + max stream law (§9).

        Stage *k* starts once the k−1 upstream fills have elapsed and
        holds its device until its last result emerges; intermediate
        results stream device→switch→device, so the consumer takes no
        extra port on the producer's output memory.
        """
        state = self.state
        internal = {m.op_id for m in members}

        # All stage windows overlap, so a memory port can serve only one
        # stage device for the chain's whole span.  If two stages need
        # externals out of the same memory, the ports cannot be
        # disentangled — fall back to store-and-forward for this chain.
        device_of_port: dict[str, str] = {}
        for member in members:
            for input_id in member.inputs:
                if input_id in internal:
                    continue
                memory_name = produced[input_id][3]
                claimed = device_of_port.setdefault(memory_name, member.device)
                if claimed != member.device:
                    for fallback in members:
                        self._run_singleton(
                            fallback, produced, report, roster, precomputed,
                            task_spans,
                        )
                    return

        # Gather every stage's (precomputed) result and its actual fill
        # latency.
        runs = []
        fills = []
        externals: list[list[tuple[str, str]]] = []  # (key, memory) pairs
        chain_local: dict[int, Relation] = {}
        for member in members:
            inputs = []
            external = []
            for input_id in member.inputs:
                if input_id in internal:
                    inputs.append(chain_local[input_id])
                else:
                    key, relation, _, memory_name = produced[input_id]
                    inputs.append(relation)
                    external.append((key, memory_name))
            device = self._device(member.device)
            run = precomputed[member.op_id]
            chain_local[member.op_id] = run.relation
            cost = actual_cost(
                member.node, inputs,
                device.capacity.max_rows, device.capacity.max_cols,
                element_bits=getattr(device, "element_bits", None),
            )
            fills.append(device.technology.pulses_to_seconds(cost.fill_pulses))
            runs.append(run)
            externals.append(external)

        # Per-stage stand-alone duration → (fill, stream) split.
        stages = []
        out_bytes = []
        for member, run, external, fill in zip(members, runs, externals, fills):
            nbytes_out = relation_bytes(run.relation, state.element_bits)
            out_bytes.append(nbytes_out)
            streams = [
                self._memory(memory_name).transfer_seconds(
                    self._memory(memory_name).size_of(key)
                )
                for key, memory_name in external
            ]
            if state.memories:
                streams.append(state.memories[0].transfer_seconds(nbytes_out))
            total = max([run.seconds] + streams)
            fill = min(fill, total)
            stages.append(StageCost(
                name=member.label, fill=fill, stream=total - fill
            ))

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
                        roster.free_at(member.device) - lo)
            for input_id in member.inputs:
                if input_id not in internal:
                    start = max(start, produced[input_id][2] - lo)

        # Fixed point over the chain start: every stage's external input
        # ports must be free over its window, plus one memory for the
        # tail's output.  Intermediate results never touch a memory —
        # they stream device→switch→device (§9), which is the point of
        # fusing — so the chain needs |externals| + 1 ports in total.
        all_external = {
            memory for external in externals for _, memory in external
        }
        tail_index = len(members) - 1
        tail_lo, tail_hi = offsets[tail_index]
        out_memory: Optional[MemoryModule] = None
        try:
            for _ in range(64):
                adjusted = start
                for (lo, hi), external in zip(offsets, externals):
                    duration = hi - lo
                    for memory_name in {memory for _, memory in external}:
                        adjusted = max(
                            adjusted,
                            state.crossbar.earliest_window(
                                memory_name, adjusted + lo, duration
                            ) - lo,
                        )
                out_memory, out_start = self._choose_memory(
                    out_bytes[tail_index], avoid=all_external,
                    ready=adjusted + tail_lo, duration=tail_hi - tail_lo,
                )
                adjusted = max(adjusted, out_start - tail_lo)
                if adjusted == start:
                    break
                start = adjusted
        except CapacityError:
            # Not enough distinct memory ports for the fused chain on
            # this machine — run its stages store-and-forward instead.
            for fallback in members:
                self._run_singleton(
                    fallback, produced, report, roster, precomputed,
                    task_spans,
                )
            return

        # Commit: claim ports, occupy devices, store the tail's output.
        metrics.inc("machine.chains.executed")
        with obs.span(
            "machine.chain", stages=len(members),
            chain=" | ".join(m.label for m in members),
        ) as chain_span:
            key_of: dict[int, str] = {}
            for k, (member, run, (lo, hi), external) in enumerate(
                zip(members, runs, offsets, externals)
            ):
                stage_start, stage_end = start + lo, start + hi
                with obs.span(
                    "machine.op", op=member.label, device=member.device,
                    kind=member.kind,
                ) as sp:
                    if task_spans is not None:
                        obs.adopt(task_spans.get(member.op_id))
                    key = self._new_key(member.node)
                    key_of[member.op_id] = key
                    external_memories = {memory for _, memory in external}
                    for memory_name in external_memories:
                        state.crossbar.establish(
                            memory_name, member.device, stage_start, stage_end
                        )
                    if k == tail_index:
                        memory_label = out_memory.name
                        out_memory.store(key, run.relation, out_bytes[k])
                        if out_memory.name not in external_memories:
                            state.crossbar.establish(
                                out_memory.name, member.device,
                                stage_start, stage_end,
                            )
                    else:
                        # Streamed straight into the next stage's array.
                        memory_label = f"->{members[k + 1].device}"
                    roster.occupy(member.device, stage_end)
                    input_keys = tuple(
                        key_of[i] if i in internal else produced[i][0]
                        for i in member.inputs
                    )
                    report.steps.append(ScheduledStep(
                        label=member.label,
                        device=member.device,
                        start=stage_start, end=stage_end,
                        output_key=key, output_memory=memory_label,
                        input_keys=input_keys,
                        pulses=run.pulses, block_runs=run.block_runs,
                        nbytes_out=out_bytes[k],
                    ))
                    produced[member.op_id] = (
                        key, run.relation, stage_end, memory_label
                    )
                    sp.set(
                        pulses=run.pulses, blocks=run.block_runs,
                        rows_out=len(run.relation), nbytes_out=out_bytes[k],
                        memory=memory_label,
                        sim_start=stage_start, sim_end=stage_end,
                    )
                metrics.inc("machine.ops.executed")
                metrics.observe(
                    "machine.op.sim_seconds", stage_end - stage_start
                )
            chain_span.set(
                sim_start=start + offsets[0][0], sim_end=start + tail_hi
            )

    def _memory(self, name: str) -> MemoryModule:
        for memory in self.state.memories:
            if memory.name == name:
                return memory
        raise PlanError(f"unknown memory {name!r}")
