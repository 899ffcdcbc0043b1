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
* :class:`PlanExecutor` — one pass over the plan on the calling
  thread: each op's data result is resolved, and then placed on the
  simulated clock (timing and memory bookkeeping), inside that op's
  own ``machine.op`` span.  The simulated clock is where §9's
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
from repro.machine.device import CpuDevice, DeviceRun, SystolicDevice
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
        self._device_named = {d.name: d for d in devices}
        self._memory_named = {m.name: m for m in self.memories}
        self.crossbar = CrossbarSwitch(
            list(self._memory_named), list(self._device_named) + ["disk"]
        )
        #: relations already resident in memories (ready at time 0):
        #: name -> (key, relation, ready, memory name)
        self.resident: dict[str, tuple[str, Relation, float, str]] = {}
        self.step_counter = itertools.count()

    def device(self, name: str) -> SystolicDevice | CpuDevice:
        """The roster's device of that name."""
        try:
            return self._device_named[name]
        except KeyError:
            raise PlanError(f"unknown device {name!r}") from None

    def memory(self, name: str) -> MemoryModule:
        """The memory module of that name."""
        return self._memory_named[name]


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

    One pass over the plan, in plan (topological) order.  Inside its
    own ``machine.op`` span each op is first *resolved* — its disk read
    or device run, a pure function of its inputs — and then *placed* on
    the simulated clock (port windows, memory placement, the timed
    report), so a span's host interval holds the work it names.  The
    timeline depends on the plan and the data alone; the overlap of
    independent operations exists on that simulated clock, not on the
    host's.
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
            report = ExecutionReport()
            roster = DeviceRoster(state.devices)
            disk_free = 0.0
            #: op id -> (result key, relation, ready time, memory name)
            produced: dict[int, tuple[str, Relation, float, str]] = {}
            for op in physical.ops:
                if op.kind == OP_RESIDENT:
                    with self._op_span(op):
                        produced[op.op_id] = state.resident[op.node.name]
                    continue
                if op.kind == OP_LOAD:
                    disk_free = self._run_load(op, produced, report, disk_free)
                    continue
                chain = physical.chain_of(op)
                if chain is None or len(chain) == 1:
                    self._run_singleton(op, produced, report, roster)
                elif chain.op_ids[-1] == op.op_id:
                    # Chains execute as a unit once the machine reaches
                    # the last member: by then every external input of
                    # every stage has been produced (topological order).
                    self._run_chain(
                        [physical[i] for i in chain.op_ids],
                        produced, report, roster,
                    )
            results = [produced[op_id][1] for op_id in physical.outputs]
            run_span.set(makespan_ms=report.makespan * 1e3)
        return results, report

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

    def _guarded_execute(self, op: PhysicalOp, inputs: list) -> DeviceRun:
        """One device execute, retried on the *same* planned device.

        A transient fault heals under retry, so the recovered run made
        exactly the dispatches the plan prescribed — results, timeline,
        and spans all bit-identical to fault-free.  A device whose
        budget exhausts is quarantined and the error re-raised as
        *permanent* (``quarantined=True``): the pool's replan loop then
        degrades gracefully onto the surviving roster.
        """
        device = self.state.device(op.device)
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

    @staticmethod
    def _op_span(op: PhysicalOp):
        """The ``machine.op`` span an op is resolved and placed under."""
        return obs.span(
            "machine.op", op=op.label,
            device="resident" if op.kind == OP_RESIDENT else op.device,
            kind=op.kind,
        )

    def _new_key(self, node: PlanNode) -> str:
        return f"n{next(self.state.step_counter)}:{node.describe()}"

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

    def _paced_seconds(
        self,
        run: DeviceRun,
        sources: Iterable[tuple[str, str]],
        nbytes_out: int,
    ) -> float:
        """Stand-alone seconds of a resolved operation.

        An operation runs at the pace of its slowest stream: any input
        being read out of its memory (``sources``: ``(key, memory
        name)`` pairs), or the result being written back (§6.2's
        warning — a degenerate join's output can dwarf its inputs —
        shows up here as output-streaming time).
        """
        state = self.state
        streams = [
            state.memory(memory_name).transfer_seconds(
                state.memory(memory_name).size_of(key)
            )
            for key, memory_name in sources
        ]
        streams.append(state.memories[0].transfer_seconds(nbytes_out))
        return max([run.seconds] + streams)

    def _place(
        self,
        op: PhysicalOp,
        sp: Any,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        relation: Relation,
        **step: Any,
    ) -> None:
        """Put a resolved op on the timeline: its report step (``step``
        holds the :class:`ScheduledStep` fields beside the label), what
        it produced and where, the simulated half of its ``machine.op``
        span, and the two per-op metrics."""
        placed = ScheduledStep(label=op.label, **step)
        report.steps.append(placed)
        produced[op.op_id] = (
            placed.output_key, relation, placed.end, placed.output_memory
        )
        if op.kind != OP_LOAD:
            sp.set(pulses=placed.pulses, blocks=placed.block_runs)
        sp.set(
            rows_out=len(relation), nbytes_out=placed.nbytes_out,
            memory=placed.output_memory,
            sim_start=placed.start, sim_end=placed.end,
        )
        metrics.inc("machine.ops.executed")
        metrics.observe("machine.op.sim_seconds", placed.duration)

    def _run_load(
        self,
        op: PhysicalOp,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        disk_free: float,
    ) -> float:
        """One serial disk read (selection possibly fused on-track)."""
        state = self.state
        with self._op_span(op) as sp:
            relation, read_seconds = self._guarded_read(op)
            released = max(disk_free, op.release)
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
            self._place(
                op, sp, produced, report, relation,
                device="disk", start=start, end=end,
                output_key=key, output_memory=memory.name, nbytes_out=nbytes,
            )
        return end

    def _run_singleton(
        self,
        op: PhysicalOp,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        roster: DeviceRoster,
    ) -> None:
        """One store-and-forward operation on its assigned device."""
        with self._op_span(op) as sp:
            run = self._guarded_execute(
                op, [produced[i][1] for i in op.inputs]
            )
            self._commit_singleton(op, run, produced, report, roster, sp)

    def _commit_singleton(
        self,
        op: PhysicalOp,
        run: DeviceRun,
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        roster: DeviceRoster,
        sp: Any,
    ) -> None:
        """Place a resolved op store-and-forward: inputs out of their
        memories, the result into another."""
        state = self.state
        input_keys = []
        input_memories = []
        ready = op.release
        for input_id in op.inputs:
            key, _, child_ready, memory_name = produced[input_id]
            input_keys.append(key)
            input_memories.append(memory_name)
            ready = max(ready, child_ready)

        device_ready = max(ready, roster.free_at(op.device))
        nbytes_out = relation_bytes(run.relation, state.element_bits)

        duration = self._paced_seconds(
            run, zip(input_keys, input_memories), nbytes_out
        )

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
            state.crossbar.establish(memory_name, op.device, start, end)
        if out_memory.name not in set(input_memories):
            state.crossbar.establish(out_memory.name, op.device, start, end)
        roster.occupy(op.device, end)
        self._place(
            op, sp, produced, report, run.relation,
            device=op.device, start=start, end=end,
            output_key=key, output_memory=out_memory.name,
            input_keys=tuple(input_keys),
            pulses=run.pulses, block_runs=run.block_runs,
            nbytes_out=nbytes_out,
        )

    def _run_chain(
        self,
        members: list[PhysicalOp],
        produced: dict[int, tuple[str, Relation, float, str]],
        report: ExecutionReport,
        roster: DeviceRoster,
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
        state = self.state
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
            fit = self._fit_chain(members, runs, produced, roster)
            chain_span.set(fused=fit is not None)
            if fit is None:
                for member, sp in zip(members, spans):
                    self._commit_singleton(
                        member, runs[member.op_id], produced, report,
                        roster, sp,
                    )
                return

            # Commit: claim ports, occupy devices, store the tail's output.
            metrics.inc("machine.chains.executed")
            out_memory, windows = fit
            for k, member in enumerate(members):
                start, end, external, nbytes_out = windows[k]
                run = runs[member.op_id]
                key = self._new_key(member.node)
                for memory_name in external:
                    state.crossbar.establish(
                        memory_name, member.device, start, end
                    )
                if k + 1 == len(members):
                    memory_label = out_memory.name
                    out_memory.store(key, run.relation, nbytes_out)
                    if out_memory.name not in external:
                        state.crossbar.establish(
                            out_memory.name, member.device, start, end
                        )
                else:
                    # Streamed straight into the next stage's array.
                    memory_label = f"->{members[k + 1].device}"
                roster.occupy(member.device, end)
                self._place(
                    member, spans[k], produced, report, run.relation,
                    device=member.device, start=start, end=end,
                    output_key=key, output_memory=memory_label,
                    input_keys=tuple(produced[i][0] for i in member.inputs),
                    pulses=run.pulses, block_runs=run.block_runs,
                    nbytes_out=nbytes_out,
                )
            chain_span.set(sim_start=windows[0][0], sim_end=windows[-1][1])

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

    def _fit_chain(
        self,
        members: list[PhysicalOp],
        runs: dict[int, DeviceRun],
        produced: dict[int, tuple[str, Relation, float, str]],
        roster: DeviceRoster,
    ) -> Optional[tuple[MemoryModule, list[tuple]]]:
        """Where a resolved chain runs fused, if this machine can fuse it.

        Returns the memory taking the tail's output and, per member,
        ``(start, end, external input memories, output bytes)`` — or
        ``None``, and the chain runs store-and-forward instead.
        """
        state = self.state
        stages, ports, out_bytes = [], [], []
        device_of_port: dict[str, str] = {}
        for member in members:
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
            device = state.device(member.device)
            cost = actual_cost(
                member.node, self._chain_inputs(member, runs, produced),
                device.capacity.max_rows, device.capacity.max_cols,
                element_bits=getattr(device, "element_bits", None),
            )
            nbytes_out = relation_bytes(run.relation, state.element_bits)
            total = self._paced_seconds(run, external, nbytes_out)
            fill = min(
                device.technology.pulses_to_seconds(cost.fill_pulses), total
            )
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
                        roster.free_at(member.device) - lo)
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
                    out_bytes[-1], avoid=all_external,
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
