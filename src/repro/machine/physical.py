"""Physical plans: device-assigned, block-decomposed, pipelined (§8–§9).

A logical :class:`~repro.machine.plan.PlanNode` DAG says *what* to
compute.  This module compiles it into a **PhysicalPlan** that says
*how* the Fig 9-1 machine will compute it:

* every operation carries a **device assignment**, chosen by the
  :mod:`repro.perf.cost` model (fill + stream pulses × the device's
  technology cycle time) rather than first-free — a bigger array means
  fewer §8 blocks, and the planner weighs that against queueing;
* operations whose inputs exceed the assigned device's physical rows
  carry their §8 **block decomposition** explicitly (``a × b × column``
  sub-problem counts, the same arithmetic
  :mod:`repro.arrays.decomposition` executes);
* producer→consumer systolic stages are fused into **pipelined
  chains**: §9's "the data is pipelined from the memories through the
  switch and through the processor array" — a chain's timeline follows
  the Σ fill + max stream law of :mod:`repro.machine.pipelining`
  instead of store-and-forward Σ (fill + stream).

:meth:`SystolicDatabaseMachine.compile` produces a PhysicalPlan;
``run``/``run_many`` lower logical plans through it implicitly.
``PhysicalPlan.explain()`` renders assignments, block counts, chains,
and the predicted makespan — the CLI's ``--explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Optional, Sequence

from repro import obs
from repro.errors import PlanError
from repro.machine.disk import MachineDisk
from repro.machine.memory import DEFAULT_BANDWIDTH_BYTES_PER_S
from repro.machine.pipelining import StageCost, analyze_chain
from repro.machine.operators import estimate_rows, infer_schema, operator_of
from repro.machine.plan import DEVICE_CPU, Base, PlanNode, walk
from repro.machine.scheduler import DeviceRoster, PlacementMemo
from repro.perf.cost import (
    OpCost,
    ScanCost,
    bit_comparison_cost,
    comparison_cost,
)
from repro.relational.relation import Relation
from repro.systolic.engine import resolve_backend

__all__ = [
    "OP_LOAD",
    "OP_RESIDENT",
    "OP_CPU",
    "OP_ARRAY",
    "PhysicalOp",
    "PipelinedChain",
    "PhysicalPlan",
    "PhysicalPlanner",
    "PlanningContext",
    "estimate_cost",
    "actual_cost",
    "plan_fingerprint",
    "base_names",
]

OP_LOAD = "load"          #: disk read (possibly with a fused selection)
OP_RESIDENT = "resident"  #: already in a memory module, ready at time 0
OP_CPU = "cpu"            #: host-CPU selection
OP_ARRAY = "array"        #: systolic-device operation


def plan_fingerprint(plans: Sequence[PlanNode]) -> tuple:
    """A hashable structural key for a transaction's logical plans.

    Two transactions fingerprint equally iff their plan DAGs have the
    same shape, parameters, *and sharing*: a subtree referenced twice
    (computed once by the planner) is encoded as a back-reference, so a
    plan that duplicates the subtree instead keys differently.  This is
    what the machine's compile cache is keyed on.

    Plan nodes are frozen, so a single plan's fingerprint is computed
    once and kept on its root.
    """
    return _kept_on_root(plans, "_fingerprint", _fingerprint)


def _kept_on_root(plans: Sequence[PlanNode], attr: str, compute):
    """``compute(plans)``, kept on the root of a one-plan transaction
    (plan nodes are frozen, so the value cannot go stale)."""
    if len(plans) != 1:
        return compute(plans)
    root = plans[0]
    value = vars(root).get(attr)
    if value is None:
        value = compute(plans)
        object.__setattr__(root, attr, value)
    return value


def _fingerprint(plans: Sequence[PlanNode]) -> tuple:
    memo: dict[int, int] = {}

    def fingerprint(node: PlanNode) -> tuple:
        ref = memo.get(id(node))
        if ref is not None:
            return ("ref", ref)
        memo[id(node)] = len(memo)
        params: list[tuple] = []
        children: list[tuple] = []
        for spec in fields(node):
            value = getattr(node, spec.name)
            if isinstance(value, PlanNode):
                children.append(fingerprint(value))
            else:
                if isinstance(value, list):
                    value = tuple(value)
                params.append((spec.name, value))
        return (type(node).__name__, tuple(params), tuple(children))

    return tuple(fingerprint(plan) for plan in plans)


def base_names(plans: Sequence[PlanNode]) -> frozenset[str]:
    """The base relations the plans name: the part of a catalog a
    compile of them can read (beside what is memory-resident).  Kept
    on the root of a one-plan transaction, like its fingerprint."""
    return _kept_on_root(plans, "_base_names", lambda plans: frozenset(
        node.name
        for plan in plans for node in walk(plan) if isinstance(node, Base)
    ))


def estimate_cost(
    node: PlanNode,
    n_a: int,
    n_b: int,
    arity_a: int,
    max_rows: int,
    max_cols: int,
    element_bits: Optional[int] = None,
) -> OpCost:
    """Predicted device cost of an array operation from size estimates.

    The operator's row derives the column-stream width from the node
    and ``arity_a``.  ``element_bits`` prices the operation on a §8
    **bit-level** device instead (every streamed column becomes
    ``element_bits`` bit columns, ``max_cols`` counts bit comparators);
    only the equality-based comparison operations have a bit-level form.
    """
    row = operator_of(node)
    if row.blocked is None:
        raise PlanError(f"{node.describe()} is not an array operation")
    if element_bits is not None and not row.bit_level:
        raise PlanError(
            f"{node.describe()} has no bit-level device form "
            f"(equality-based comparison operations only)"
        )
    columns = row.columns(node, arity_a)
    if row.comparison is None:
        return row.law(n_a, n_b, columns, max_rows, max_cols)
    shape = (*row.comparison(n_a, n_b), columns)
    if element_bits is not None:
        return bit_comparison_cost(*shape, element_bits, max_rows, max_cols)
    return comparison_cost(*shape, max_rows, max_cols)


def actual_cost(
    node: PlanNode,
    inputs: Sequence[Relation],
    max_rows: int,
    max_cols: int,
    element_bits: Optional[int] = None,
) -> OpCost:
    """Exact device cost of an array operation over its actual inputs.

    Uses the same schedule arithmetic the blocked operators execute, so
    ``actual_cost(...).total_pulses`` equals the device run's reported
    pulse count — on bit-level devices too (pass the device's
    ``element_bits``).
    """
    exact_cost = operator_of(node).exact_cost
    if exact_cost is not None:
        return exact_cost(node, inputs, max_rows, max_cols)
    n_a = len(inputs[0])
    n_b = len(inputs[1]) if len(inputs) > 1 else n_a
    return estimate_cost(node, n_a, n_b, inputs[0].arity,
                         max_rows, max_cols, element_bits=element_bits)


@dataclass
class PhysicalOp:
    """One operation of a physical plan, bound to a device."""

    op_id: int
    node: PlanNode
    kind: str
    device: str
    inputs: tuple[int, ...]
    release: float
    label: str
    est_rows_out: int
    est_bytes_out: int
    est_seconds: float
    est_fill_seconds: float = 0.0
    #: streamed comparator width in bits (columns × bits per element);
    #: 0 for non-array steps.  On a §8 bit-level device this is the
    #: column count itself — each streamed column is one bit.
    est_bits: int = 0
    cost: Optional[OpCost] = None
    chain: Optional[int] = None
    selection: Optional[tuple] = None
    fused_select: Optional[PlanNode] = None
    base_name: Optional[str] = None
    #: store-backed loads only: the §8 chunk pruning the grid index
    #: predicted for this read (explain's ``chunks k/N pruned``).
    scan: Optional[ScanCost] = None
    est_start: float = 0.0
    est_end: float = 0.0

    @property
    def block_runs(self) -> int:
        """§8 sub-problems the assigned device is predicted to execute."""
        return self.cost.block_runs if self.cost is not None else 0

    def blocks_label(self) -> str:
        """``a×b×c = n`` block-decomposition summary for explain()."""
        if self.cost is None or self.cost.block_runs == 0:
            return "-"
        c = self.cost
        if c.block_runs == 1:
            return "1"
        return f"{c.a_blocks}x{c.b_blocks}x{c.column_blocks} = {c.block_runs}"


@dataclass
class PipelinedChain:
    """A maximal run of fused producer→consumer systolic stages."""

    chain_id: int
    op_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.op_ids)


class PhysicalPlan:
    """The compiled physical form of one transaction."""

    def __init__(
        self,
        ops: list[PhysicalOp],
        chains: list[PipelinedChain],
        outputs: list[int],
        pipeline: bool,
        backend: Optional[str] = None,
    ) -> None:
        self.ops = ops
        self.chains = chains
        self.outputs = outputs
        self.pipeline = pipeline
        #: name of the execution engine the machine's devices run block
        #: runs on (explain footer); None when unknown.
        self.backend = backend
        #: the placements earlier executions of this plan recorded
        #: (:class:`~repro.machine.execution.PlanExecutor`); it lives
        #: and dies with the plan, and so with its plan-cache entry.
        self.placements = PlacementMemo()
        self._by_id = {op.op_id: op for op in ops}

    def __getitem__(self, op_id: int) -> PhysicalOp:
        return self._by_id[op_id]

    @property
    def predicted_makespan(self) -> float:
        """Predicted end-to-end seconds for the whole transaction."""
        return max((op.est_end for op in self.ops), default=0.0)

    def chain_of(self, op: PhysicalOp) -> Optional[PipelinedChain]:
        """The chain an op belongs to, if any."""
        if op.chain is None:
            return None
        return self.chains[op.chain]

    def device_assignments(self) -> dict[str, str]:
        """Operator label → assigned device, for quick inspection."""
        return {op.label: op.device for op in self.ops}

    def explain(self) -> str:
        """Device assignments, block counts, chains, predicted makespan."""
        discipline = "pipelined" if self.pipeline else "store-and-forward"
        lines = [
            f"physical plan ({discipline}, {len(self.ops)} ops, "
            f"{sum(1 for c in self.chains if len(c) > 1)} fused chains)",
            f"{'op':>4}  {'device':<14} {'rows(est)':>9}  {'bits':>5}  "
            f"{'blocks':<12} {'chain':<6} {'t(est)':>10}  step",
        ]
        for op in self.ops:
            chain = self.chain_of(op)
            chain_label = (
                f"#{chain.chain_id}" if chain is not None and len(chain) > 1
                else "-"
            )
            bits_label = str(op.est_bits) if op.est_bits else "-"
            lines.append(
                f"{op.op_id:>4}  {op.device:<14} {op.est_rows_out:>9}  "
                f"{bits_label:>5}  "
                f"{op.blocks_label():<12} {chain_label:<6} "
                f"{op.est_seconds * 1e3:>8.3f}ms  {op.label}"
            )
        lines.append(
            f"predicted makespan {self.predicted_makespan * 1e3:.3f} ms"
        )
        if self.backend is not None:
            lines.append(f"backend {self.backend}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        fused = sum(1 for c in self.chains if len(c) > 1)
        return (
            f"PhysicalPlan({len(self.ops)} ops, {fused} chains, "
            f"predicted {self.predicted_makespan * 1e3:.3f} ms)"
        )


@dataclass(frozen=True)
class PlanningContext:
    """Everything :class:`PhysicalPlanner` reads, and nothing else.

    The single machine, the engine pool and every shard lane describe
    what they plan against with one of these: the tenant's disk, the
    relations already resident in memory (``name → Relation``, planned
    as ready at time 0), the device roster — the full complement, or
    the survivors after a quarantine — and the machine's element
    width.
    """

    disk: MachineDisk
    resident: Mapping[str, Relation]
    devices: Sequence
    element_bits: int = 32


class PhysicalPlanner:
    """Compiles logical plan DAGs against one :class:`PlanningContext`."""

    def __init__(self, context: PlanningContext) -> None:
        self.context = context

    # -- entry point ---------------------------------------------------------

    def compile(
        self,
        plans: Sequence[PlanNode],
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
    ) -> PhysicalPlan:
        """Lower logical plans into a device-assigned physical plan."""
        if not plans:
            raise PlanError("a transaction needs at least one plan")
        if arrivals is None:
            arrivals = [0.0] * len(plans)
        if len(arrivals) != len(plans):
            raise PlanError(
                f"need one arrival per plan: {len(arrivals)} arrivals, "
                f"{len(plans)} plans"
            )
        if any(t < 0 for t in arrivals):
            raise PlanError("arrival times must be non-negative")

        with obs.span("planner.compile", plans=len(plans)) as sp:
            order, release = self._walk_order(plans, arrivals)
            parent_count = self._parent_count(order)
            fused = self._fused_selects(order, parent_count)
            with obs.span("planner.assign"):
                ops, op_of_node = self._assign(
                    order, release, parent_count, fused
                )
            with obs.span("planner.fuse"):
                chains = (
                    self._fuse_chains(ops, op_of_node, parent_count)
                    if pipeline else []
                )
            with obs.span("planner.predict"):
                self._predict_timeline(ops, chains)
            outputs = [op_of_node[id(plan)] for plan in plans]
            sp.set(
                ops=len(ops),
                chains=sum(1 for c in chains if len(c) > 1),
            )
        return PhysicalPlan(
            ops, chains, outputs, pipeline, backend=self._backend_name()
        )

    def _backend_name(self) -> str:
        """Name of the engine the machine's devices execute with."""
        spec = next(
            (d.backend for d in self.context.devices
             if hasattr(d, "backend")),
            None,
        )
        engine = resolve_backend(spec)
        return getattr(engine, "name", type(engine).__name__)

    # -- plan walk -----------------------------------------------------------

    def _walk_order(self, plans, arrivals):
        order: list[PlanNode] = []
        release: dict[int, float] = {}
        seen: set[int] = set()
        for plan, arrival in sorted(
            zip(plans, arrivals), key=lambda pair: pair[1]
        ):
            for node in walk(plan):
                if id(node) not in seen:
                    seen.add(id(node))
                    order.append(node)
                    release[id(node)] = arrival
        return order, release

    @staticmethod
    def _parent_count(order):
        count: dict[int, int] = {}
        for node in order:
            for child in node.children:
                count[id(child)] = count.get(id(child), 0) + 1
        return count

    def _fused_selects(self, order, parent_count):
        """§9/[8]: single-parent Select-over-Base rides the disk read.

        Fusable on a logic-per-track disk (the predicate evaluates
        on-track) and on store-backed relations (the store applies the
        predicate while scanning the chunks its grid index could not
        prune — the selection never leaves the storage layer).
        """
        disk = self.context.disk
        fused: dict[int, PlanNode] = {}
        for node in order:
            child = node.children[0] if node.children else None
            if not (
                node.device_kind == DEVICE_CPU
                and isinstance(child, Base)
                and parent_count.get(id(child), 0) == 1
            ):
                continue
            if disk.logic_per_track or disk.store_backed(child.name):
                fused[id(child)] = node
        return fused

    # -- catalog estimates -----------------------------------------------------

    def _base_catalog(self, order):
        """name → (schema, cardinality) for every reachable base relation
        — the ones the plans name, which is also all that the pool's
        plan-cache key covers (:meth:`Catalog.content_fingerprint`).

        Sizes come from :meth:`MachineDisk.profile`, which answers from
        the store manifest for store-backed relations — costing a plan
        never materialises out-of-core tuples.
        """
        schemas, cards = {}, {}
        ctx = self.context
        for node in order:
            if not isinstance(node, Base) or node.name in schemas:
                continue
            name = node.name
            relation = ctx.resident.get(name)
            if relation is not None:
                cards[name], schemas[name] = len(relation), relation.schema
            else:
                cards[name], _, schemas[name] = ctx.disk.profile(name)
        return schemas, cards

    # -- device assignment -------------------------------------------------------

    def _assign(self, order, release, parent_count, fused):
        ctx = self.context
        disk = ctx.disk
        schemas, cards = self._base_catalog(order)
        element_bytes = (ctx.element_bits + 7) // 8

        def est_bytes(rows: int, arity: int) -> int:
            return rows * arity * element_bytes

        def transfer(nbytes: int) -> float:
            return nbytes / DEFAULT_BANDWIDTH_BYTES_PER_S

        ops: list[PhysicalOp] = []
        op_of_node: dict[int, int] = {}
        roster = DeviceRoster(ctx.devices)
        est_disk_free = 0.0
        loaded_bases: dict[str, int] = {}

        def add(op: PhysicalOp) -> PhysicalOp:
            ops.append(op)
            op_of_node[id(op.node)] = op.op_id
            return op

        for node in order:
            if id(node) in op_of_node:
                continue
            op_id = len(ops)
            if isinstance(node, Base):
                relation = ctx.resident.get(node.name)
                if relation is not None:
                    add(PhysicalOp(
                        op_id=op_id, node=node, kind=OP_RESIDENT,
                        device="memory", inputs=(), release=release[id(node)],
                        label=node.name, est_rows_out=len(relation),
                        est_bytes_out=est_bytes(len(relation), relation.arity),
                        est_seconds=0.0,
                    ))
                    continue
                select = fused.get(id(node))
                if select is None and node.name in loaded_bases:
                    op_of_node[id(node)] = loaded_bases[node.name]
                    continue
                base_rows, base_arity, _ = disk.profile(node.name)
                disk_elem = (disk.element_bits + 7) // 8
                if select is not None:
                    rows = estimate_rows(select, {node.name: base_rows})
                    label = f"load {select.describe()}"
                    selection = (select.column, select.op, select.value)
                else:
                    rows = base_rows
                    label = f"load {node.name}"
                    selection = None
                scan = None
                if disk.store_backed(node.name):
                    handle = disk.stored_handle(node.name)
                    if selection is not None:
                        chunk_ids = handle.select_chunks(*selection)
                    else:
                        chunk_ids = list(range(handle.n_chunks))
                    rows_scanned = sum(
                        handle.chunks[i].rows for i in chunk_ids
                    )
                    scan = ScanCost(
                        chunks_total=handle.n_chunks,
                        chunks_read=len(chunk_ids),
                        rows_scanned=rows_scanned,
                        nbytes=rows_scanned * base_arity * disk_elem,
                    )
                    read_seconds = disk.model.read_seconds(scan.nbytes)
                    label += (
                        f" [chunks {scan.chunks_read}/{scan.chunks_total}, "
                        f"{scan.chunks_pruned} pruned]"
                    )
                else:
                    read_seconds = disk.model.read_seconds(
                        base_rows * base_arity * disk_elem
                    )
                op = add(PhysicalOp(
                    op_id=op_id, node=node, kind=OP_LOAD, device="disk",
                    inputs=(), release=release[id(node)], label=label,
                    est_rows_out=rows,
                    est_bytes_out=est_bytes(rows, base_arity),
                    est_seconds=read_seconds,
                    selection=selection, fused_select=select,
                    base_name=node.name, scan=scan,
                ))
                if select is not None:
                    op_of_node[id(select)] = op.op_id
                else:
                    loaded_bases[node.name] = op.op_id
                start = max(est_disk_free, op.release)
                op.est_start, op.est_end = start, start + read_seconds
                est_disk_free = op.est_end
                continue

            input_ids = tuple(op_of_node[id(child)] for child in node.children)
            in_ops = [ops[i] for i in input_ids]
            ready = max(
                [release[id(node)]] + [op.est_end for op in in_ops]
            )
            schema = infer_schema(node, schemas)
            rows_out = estimate_rows(node, cards)
            bytes_out = est_bytes(rows_out, len(schema))

            if node.device_kind == DEVICE_CPU:
                cpu = next(
                    d for d in ctx.devices if d.kind == node.device_kind
                )
                seconds = in_ops[0].est_rows_out * cpu.tuple_op_ns * 1e-9
                op = add(PhysicalOp(
                    op_id=op_id, node=node, kind=OP_CPU, device=cpu.name,
                    inputs=input_ids, release=release[id(node)],
                    label=node.describe(), est_rows_out=rows_out,
                    est_bytes_out=bytes_out, est_seconds=seconds,
                ))
                start = max(ready, roster.free_at(cpu.name))
                op.est_start, op.est_end = start, start + seconds
                roster.occupy(cpu.name, op.est_end)
                continue

            # Array operation: price every candidate device; the roster
            # picks the one that finishes earliest (cost-aware, not
            # first-free).
            n_a = in_ops[0].est_rows_out
            n_b = in_ops[1].est_rows_out if len(in_ops) > 1 else n_a
            arity_a = len(infer_schema(node.children[0], schemas))
            streams = [transfer(op.est_bytes_out) for op in in_ops]
            streams.append(transfer(bytes_out))
            costs, durations = {}, {}
            for device in ctx.devices:
                if device.kind != node.device_kind:
                    continue
                cost = costs[device.name] = estimate_cost(
                    node, n_a, n_b, arity_a,
                    device.capacity.max_rows, device.capacity.max_cols,
                    element_bits=getattr(device, "element_bits", None),
                )
                durations[device.name] = max(
                    [cost.seconds(device.technology)] + streams
                )
            device, start = roster.pick(node.device_kind, ready, durations)
            cost, seconds = costs[device.name], durations[device.name]
            fill = min(cost.fill_seconds(device.technology), seconds)
            stream_cols = operator_of(node).columns(node, arity_a)
            per_element = (
                getattr(device, "element_bits", None) or ctx.element_bits
            )
            op = add(PhysicalOp(
                op_id=op_id, node=node, kind=OP_ARRAY, device=device.name,
                inputs=input_ids, release=release[id(node)],
                label=node.describe(), est_rows_out=rows_out,
                est_bytes_out=bytes_out, est_seconds=seconds,
                est_fill_seconds=fill, est_bits=stream_cols * per_element,
                cost=cost,
            ))
            op.est_start, op.est_end = start, start + seconds
            roster.occupy(device.name, op.est_end)
        return ops, op_of_node

    # -- chain fusion -------------------------------------------------------------

    def _fuse_chains(self, ops, op_of_node, parent_count):
        """Fuse single-consumer producer→consumer array stages (§9).

        A chain's stages all run concurrently under the pipeline law, so
        every stage needs its own device — a consumer only joins its
        producer's chain when its assigned device is not already one of
        the chain's.
        """
        chains: list[PipelinedChain] = []
        tail_chain: dict[int, int] = {}  # op_id of a chain's tail -> chain idx
        for op in ops:
            if op.kind != OP_ARRAY:
                continue
            producer = None
            for input_id in op.inputs:
                candidate = ops[input_id]
                if (
                    candidate.kind == OP_ARRAY
                    and parent_count.get(id(candidate.node), 0) == 1
                    and input_id in tail_chain
                ):
                    producer = candidate
                    break
            if producer is not None:
                # Fusing is pointless (and drags the producer's start to
                # the consumer's) when some *other* input arrives after
                # the producer would already have finished.
                other_ready = max(
                    (ops[i].est_end for i in op.inputs
                     if i != producer.op_id),
                    default=0.0,
                )
                if other_ready > producer.est_end:
                    producer = None
            if producer is None:
                chain = PipelinedChain(chain_id=len(chains), op_ids=[op.op_id])
                chains.append(chain)
                tail_chain[op.op_id] = chain.chain_id
                continue
            chain = chains[tail_chain[producer.op_id]]
            devices = {ops[i].device for i in chain.op_ids}
            if op.device in devices:
                fresh = PipelinedChain(chain_id=len(chains),
                                       op_ids=[op.op_id])
                chains.append(fresh)
                tail_chain[op.op_id] = fresh.chain_id
                continue
            del tail_chain[producer.op_id]
            chain.op_ids.append(op.op_id)
            tail_chain[op.op_id] = chain.chain_id
        for chain in chains:
            if len(chain) > 1:
                for op_id in chain.op_ids:
                    ops[op_id].chain = chain.chain_id
        return chains

    # -- predicted timeline ---------------------------------------------------------

    def _predict_timeline(self, ops, chains):
        """Re-time the plan with fused chains under the pipeline law.

        An idealized schedule — device and disk contention, but no
        memory-port modelling (the executed report has the real one).
        """
        est_free: dict[str, float] = {}
        est_disk_free = 0.0
        scheduled: set[int] = set()

        def chain_members(op) -> list[PhysicalOp]:
            if op.chain is None:
                return [op]
            return [ops[i] for i in chains[op.chain].op_ids]

        for op in ops:
            if op.op_id in scheduled:
                continue
            if op.kind == OP_RESIDENT:
                op.est_start = op.est_end = 0.0
                scheduled.add(op.op_id)
                continue
            if op.kind == OP_LOAD:
                start = max(est_disk_free, op.release)
                op.est_start, op.est_end = start, start + op.est_seconds
                est_disk_free = op.est_end
                scheduled.add(op.op_id)
                continue
            members = chain_members(op)
            if members[-1].op_id != op.op_id:
                continue  # schedule the whole chain at its last member
            internal = {m.op_id for m in members}
            stages = [
                StageCost(
                    name=m.label,
                    fill=m.est_fill_seconds,
                    stream=max(0.0, m.est_seconds - m.est_fill_seconds),
                )
                for m in members
            ]
            timing = analyze_chain(stages)
            offsets = self._stage_offsets(stages)
            # Per-stage readiness: stage k only needs its own inputs by
            # chain_start + lo_k.
            start = 0.0
            for m, (lo, _) in zip(members, offsets):
                start = max(start, m.release - lo,
                            est_free.get(m.device, 0.0) - lo)
                for i in m.inputs:
                    if i not in internal:
                        start = max(start, ops[i].est_end - lo)
            for m, (lo, hi) in zip(members, offsets):
                m.est_start, m.est_end = start + lo, start + hi
                est_free[m.device] = m.est_end
                scheduled.add(m.op_id)
            assert abs(members[-1].est_end - (start + timing.pipelined)) < 1e-12

    @staticmethod
    def _stage_offsets(stages: list[StageCost]) -> list[tuple[float, float]]:
        """(start, end) of each chain stage relative to the chain start.

        Stage k starts once the k−1 upstream fills have elapsed and ends
        when its last result emerges: Σ_{i≤k} fill + max_{i≤k} stream —
        the prefix form of the pipeline law, so the last stage's end is
        exactly ``analyze_chain(stages).pipelined``.
        """
        offsets = []
        fill_sum = 0.0
        stream_max = 0.0
        for stage in stages:
            lo = fill_sum
            fill_sum += stage.fill
            stream_max = max(stream_max, stage.stream)
            offsets.append((lo, fill_sum + stream_max))
        return offsets
