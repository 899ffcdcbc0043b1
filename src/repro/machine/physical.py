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
  instead of store-and-forward Σ (fill + stream);
* loads of one release time whose relations lie on one disk cylinder
  are one **disk sweep**: §8 reads "an entire cylinder in one
  revolution", so they share one revolution
  (:func:`~repro.perf.disk.disk_sweep`).

:meth:`SystolicDatabaseMachine.compile` produces a PhysicalPlan;
``run``/``run_many`` lower logical plans through it implicitly.
``PhysicalPlan.explain()`` renders assignments, block counts, chains,
and the predicted makespan — the CLI's ``--explain``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from repro import obs
from repro.errors import PlanError
from repro.machine.memory import DEFAULT_BANDWIDTH_BYTES_PER_S
from repro.machine.pipelining import StageCost, analyze_chain
from repro.machine.operators import (
    estimate_rows,
    infer_schema,
    keyed_columns,
    operator_of,
)
from repro.machine.plan import DEVICE_CPU, Base, PlanNode, walk
from repro.machine.scheduler import DeviceRoster, PlacementMemo
from repro.perf.cost import (
    OpCost,
    ScanCost,
    bit_comparison_cost,
    comparison_cost,
)
from repro.perf.disk import DiskModel, disk_sweep
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef, Schema
from repro.systolic.engine import resolve_backend

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.store import StoredRelation

__all__ = [
    "OP_LOAD",
    "OP_RESIDENT",
    "OP_CPU",
    "OP_ARRAY",
    "BaseRecord",
    "DiskSweep",
    "Fingerprint",
    "PhysicalOp",
    "PipelinedChain",
    "PhysicalPlan",
    "PhysicalPlanner",
    "PlanningContext",
    "estimate_cost",
    "actual_cost",
    "plan_fingerprint",
    "plan_keys",
    "base_reads",
    "roster_fingerprint",
    "select_fused_bases",
    "price_array_op",
    "quickest",
]

OP_LOAD = "load"          #: disk read (possibly with a fused selection)
OP_RESIDENT = "resident"  #: already in a memory module, ready at time 0
OP_CPU = "cpu"            #: host-CPU selection
OP_ARRAY = "array"        #: systolic-device operation


class Fingerprint(tuple):
    """A tuple that hashes once: a plan-cache key part (a transaction's
    shape, a planning snapshot) is built once and then looked up on
    every warm query, and a plain tuple would rehash all of its nested
    parts each time.  Equal to, and hashing like, the plain tuple."""

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


def plan_fingerprint(plans: Sequence[PlanNode]) -> tuple:
    """A hashable structural key for a transaction's logical plans.

    Two transactions fingerprint equally iff their plan DAGs have the
    same shape, parameters, *and sharing*: a subtree referenced twice
    (computed once by the planner) is encoded as a back-reference, so a
    plan that duplicates the subtree instead keys differently.  This is
    what the machine's compile cache is keyed on.

    Plan nodes are frozen, so a transaction's fingerprint is computed
    once and kept on its first root (:func:`plan_keys`).
    """
    return plan_keys(plans)[0]


def plan_keys(plans: Sequence[PlanNode]) -> tuple[tuple, tuple]:
    """``(plan_fingerprint(plans), base_reads(plans))``: what a compile
    keys and snapshots a transaction by, kept together on its first
    root so a warm compile finds both in one look."""
    return _kept_on_root(plans, "_keys", lambda plans: (
        _fingerprint(plans), _base_reads(plans)
    ))


def _kept_on_root(plans: Sequence[PlanNode], attr: str, compute):
    """``compute(plans)``, kept on the first root for the last two sets
    of other roots it was computed with (plan nodes are frozen, so a
    value cannot go stale): a transaction of the very same root objects
    finds it, and a shard stage compiled with its prefetches and then
    without one of them finds both."""
    if not plans:
        return compute(plans)
    root, others = plans[0], tuple(plans[1:])
    kept = vars(root).get(attr, ())
    for kept_others, value in kept:
        if len(kept_others) == len(others) and all(
            map(operator.is_, kept_others, others)
        ):
            return value
    value = compute(plans)
    object.__setattr__(root, attr, ((others, value), *kept[:1]))
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

    return Fingerprint(fingerprint(plan) for plan in plans)


def base_reads(
    plans: Sequence[PlanNode],
) -> tuple[tuple[str, tuple[ColumnRef, ...]], ...]:
    """What a compile of the plans reads of a catalog: each base relation
    they name, in name order, with the columns whose distinct counts
    sizing their joins reads (:func:`~repro.machine.operators.keyed_columns`).
    Kept on the first root with the transaction's fingerprint."""
    return plan_keys(plans)[1]


def _base_reads(plans: Sequence[PlanNode]) -> tuple:
    return Fingerprint(
        (name, tuple(dict.fromkeys(
            column for plan in plans
            for base, column in keyed_columns(plan) if base == name
        )))
        for name in sorted({
            node.name for plan in plans for node in walk(plan)
            if isinstance(node, Base)
        })
    )


def roster_fingerprint(devices: Iterable) -> tuple:
    """A hashable identity of a roster: each device's name, kind,
    capacity and element width.  A plan cache serves one device
    complement, so what else the planner reads of a device (its
    technology, its engine) is the same for every roster it sees."""
    roster = []
    for device in devices:
        capacity = getattr(device, "capacity", None)  # None on the CPU
        roster.append((
            device.name, device.kind, capacity and capacity.max_rows,
            capacity and capacity.max_cols,
            getattr(device, "element_bits", None),
        ))
    return tuple(roster)


def estimate_cost(
    node: PlanNode,
    n_a: int,
    n_b: int,
    arity_a: int,
    max_rows: int,
    max_cols: int,
    element_bits: Optional[int] = None,
    variant: str = "counter",
) -> OpCost:
    """Predicted device cost of an array operation from size estimates.

    The operator's row derives the column-stream width from the node
    and ``arity_a``.  ``element_bits`` prices the operation on a §8
    **bit-level** device instead (every streamed column becomes
    ``element_bits`` bit columns, ``max_cols`` counts bit comparators);
    only the equality-based comparison operations have a bit-level form.
    ``variant`` is the grid geometry of the block runs, one the row
    admits (:attr:`~repro.machine.operators.Operator.variants`).
    """
    row = _admitting(node, variant)
    if element_bits is not None and not row.bit_level:
        raise PlanError(
            f"{node.describe()} has no bit-level device form "
            f"(equality-based comparison operations only)"
        )
    columns = row.columns(node, arity_a)
    if row.comparison is None:
        return row.law(n_a, n_b, columns, max_rows, max_cols, variant)
    shape = (*row.comparison(n_a, n_b), columns)
    if element_bits is not None:
        return bit_comparison_cost(
            *shape, element_bits, max_rows, max_cols, variant
        )
    return comparison_cost(*shape, max_rows, max_cols, variant)


def _admitting(node: PlanNode, variant: str):
    """The operator row of an array operation whose blocked runs admit
    ``variant``."""
    row = operator_of(node)
    if row.blocked is None:
        raise PlanError(f"{node.describe()} is not an array operation")
    if variant not in row.variants:
        raise PlanError(
            f"{node.describe()} has no {variant!r} blocked runs; its "
            f"operator admits {row.variants}"
        )
    return row


def actual_cost(
    node: PlanNode,
    inputs: Sequence[Relation],
    max_rows: int,
    max_cols: int,
    element_bits: Optional[int] = None,
    variant: str = "counter",
) -> OpCost:
    """Exact device cost of an array operation over its actual inputs.

    Uses the same schedule arithmetic the blocked operators execute, so
    ``actual_cost(...).total_pulses`` equals the device run's reported
    pulse count — on bit-level devices too (pass the device's
    ``element_bits``), and under the ``variant`` the plan recorded.
    """
    exact_cost = _admitting(node, variant).exact_cost
    if exact_cost is not None:
        return exact_cost(node, inputs, max_rows, max_cols)
    n_a = len(inputs[0])
    n_b = len(inputs[1]) if len(inputs) > 1 else n_a
    return estimate_cost(node, n_a, n_b, inputs[0].arity,
                         max_rows, max_cols, element_bits=element_bits,
                         variant=variant)


class _Priced(NamedTuple):
    """One variant of an array op priced on one device: its cost, its
    stand-alone seconds (memory streams included) and its fill."""

    variant: str
    cost: OpCost
    seconds: float
    fill: float

    @classmethod
    def of(cls, cost: OpCost, variant: str, technology, streams) -> "_Priced":
        seconds = max([cost.seconds(technology)] + streams)
        return cls(variant, cost, seconds,
                   min(cost.fill_seconds(technology), seconds))

    @property
    def stream(self) -> float:
        return self.seconds - self.fill

    def apply(self, op: "PhysicalOp") -> None:
        """Make this the choice recorded on ``op``."""
        op.variant, op.cost = self.variant, self.cost
        op.est_seconds, op.est_fill_seconds = self.seconds, self.fill


def price_array_op(
    node: PlanNode, n_a: int, n_b: int, arity_a: int,
    nbytes: Sequence[int], devices: Sequence,
) -> dict[str, list[_Priced]]:
    """The one pricing of an array op: each device of ``devices`` that
    runs its kind → every variant its operator admits (counter first),
    priced at its capacity and bit width, with the memory streams
    carrying ``nbytes`` (each input, then the output) bounding it from
    below.  The physical planner assigns devices by it, and the shard
    planner weighs exchange strategies by it at the sizes each lane
    will hold."""
    row = operator_of(node)
    streams = [size / DEFAULT_BANDWIDTH_BYTES_PER_S for size in nbytes]
    return {
        device.name: [
            _Priced.of(
                estimate_cost(
                    node, n_a, n_b, arity_a,
                    device.capacity.max_rows, device.capacity.max_cols,
                    element_bits=getattr(device, "element_bits", None),
                    variant=variant,
                ),
                variant, device.technology, streams,
            )
            for variant in row.variants
        ]
        for device in devices if device.kind == node.device_kind
    }


def quickest(options: Iterable[_Priced]) -> Optional[_Priced]:
    """The option soonest done, the earliest listed on a tie; None for
    no option."""
    return min(options, key=operator.attrgetter("seconds"), default=None)


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
    #: the grid geometry of an array op's block runs, the planner's
    #: choice among what the operator admits (§8's ``"fixed"`` or the
    #: figures' ``"counter"``); the device runs it as recorded
    variant: str = "counter"
    chain: Optional[int] = None
    selection: Optional[tuple] = None
    fused_select: Optional[PlanNode] = None
    base_name: Optional[str] = None
    #: store-backed loads only: the §8 chunk pruning the zone maps
    #: predicted for this read (explain's ``chunks k/N pruned``).
    scan: Optional[ScanCost] = None
    #: loads only: the index of the disk sweep (:class:`DiskSweep`) the
    #: load is read in, when it shares one with other loads.
    sweep: Optional[int] = None
    est_start: float = 0.0
    est_end: float = 0.0

    @property
    def block_runs(self) -> int:
        """§8 sub-problems the assigned device is predicted to execute."""
        return self.cost.block_runs if self.cost is not None else 0

    def blocks_label(self) -> str:
        """``a×b×c = n`` block-decomposition summary for explain(),
        prefixed ``fixed`` when the block runs hold B (§8)."""
        if self.cost is None or self.cost.block_runs == 0:
            return "-"
        c = self.cost
        shape = f"{c.a_blocks}x{c.b_blocks}x{c.column_blocks} = {c.block_runs}"
        if self.variant == "fixed":
            return f"fixed {shape}"
        return "1" if c.block_runs == 1 else shape


@dataclass(frozen=True)
class DiskSweep:
    """Loads read off one cylinder in one revolution (§8): the loads of
    one release time whose relations lie on ``cylinder``, in plan
    order."""

    cylinder: int
    op_ids: tuple[int, ...]


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
        sweeps: Sequence[DiskSweep] = (),
    ) -> None:
        self.ops = ops
        self.chains = chains
        #: the disk sweeps of two or more loads, in plan order.
        self.sweeps = list(sweeps)
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

    def swept_with(self, op: PhysicalOp) -> list[PhysicalOp]:
        """The loads read in one sweep with ``op``, itself included, in
        plan order: ``[op]`` for an op in no shared sweep."""
        if op.sweep is None:
            return [op]
        return [self[i] for i in self.sweeps[op.sweep].op_ids]

    def explain(self) -> str:
        """Device assignments, block counts, chains, predicted makespan."""
        discipline = "pipelined" if self.pipeline else "store-and-forward"
        # Widened to fit a fixed label; a plan without one prints as
        # it always has.
        blocks = max([12] + [
            len(op.blocks_label()) for op in self.ops if op.variant == "fixed"
        ])
        lines = [
            f"physical plan ({discipline}, {len(self.ops)} ops, "
            f"{sum(1 for c in self.chains if len(c) > 1)} fused chains)",
            f"{'op':>4}  {'device':<14} {'rows(est)':>9}  {'bits':>5}  "
            f"{'blocks':<{blocks}} {'chain':<6} {'t(est)':>10}  step",
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
                f"{op.blocks_label():<{blocks}} {chain_label:<6} "
                f"{op.est_seconds * 1e3:>8.3f}ms  {op.label}"
            )
        for sweep in self.sweeps:
            lines.append(
                f"disk sweep on cylinder {sweep.cylinder}: ops "
                f"{', '.join(map(str, sweep.op_ids))} in one revolution"
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


class BaseRecord(NamedTuple):
    """What the planner knows of one base relation the plans name."""

    rows: int
    schema: Schema
    #: already in a memory module (a preload), ready at time 0.
    resident: bool = False
    #: the cylinder an in-memory relation on the disk lies on, when it
    #: lies on exactly one (which loads share a disk sweep).
    cylinder: Optional[int] = None
    #: ``(column, distinct values)`` of each column a join of the plans
    #: matches by equality; None where nothing counted them (the store).
    distinct: tuple[tuple[ColumnRef, Optional[int]], ...] = ()
    #: a store-backed relation's read handle.  The planner reads only
    #: its manifest (chunk rows, zone maps) to prune chunks.
    handle: Optional["StoredRelation"] = None

    @classmethod
    def of(
        cls,
        relation: Relation,
        columns: Sequence[ColumnRef],
        resident: bool = False,
        cylinder: Optional[int] = None,
    ) -> "BaseRecord":
        """The record of a relation the caller holds in memory."""
        return cls(len(relation), relation.schema, resident, cylinder, tuple([
            (column, relation.distinct_count(column)) for column in columns
        ]) if columns else ())

    @property
    def arity(self) -> int:
        return len(self.schema)

    @property
    def key(self) -> tuple:
        """The record as a hashable value: every field, the schema as
        its :attr:`~repro.relational.schema.Schema.key` and the handle as
        its manifest's digest.  (Unpacking the record whole makes a new
        field a hard error here until the key carries it.)"""
        rows, schema, resident, cylinder, distinct, handle = self
        return (rows, schema.key, resident, cylinder, distinct,
                handle and handle.digest)


class _ContextFields(NamedTuple):
    bases: Mapping[str, Optional[BaseRecord]]
    disk_model: DiskModel
    logic_per_track: bool
    disk_element_bits: int
    devices: Sequence
    memory_free: tuple[int, ...]
    element_bits: int = 32


class PlanningContext(_ContextFields):
    """Everything :class:`PhysicalPlanner` reads, as one frozen value.

    The machine, the engine pool and every shard lane build one per
    compile (:meth:`~repro.machine.catalog.Catalog.planning_context`):
    a :class:`BaseRecord` per base relation the plans name (None for a
    name the catalog does not hold), the disk's timing model, its
    on-track logic and element width, the device roster — the full
    complement, or the survivors after a quarantine — each memory's
    free bytes once the preloads are placed (what a disk sweep must
    land in), and the machine's element width.  :attr:`fingerprint`
    is the plan-cache key's part for it: equal contexts compile equal
    plans.  It is computed once a context; a catalog hands the same
    context back while nothing it holds has changed, so a plan-cache
    hit derives neither.
    """

    @cached_property
    def fingerprint(self) -> tuple:
        """The context as one hashable value: every field, each record
        as its :attr:`BaseRecord.key` and the roster as its
        :func:`roster_fingerprint` (unpacked whole, like the record)."""
        bases, model, on_track, disk_bits, devices, free, bits = self
        return Fingerprint((
            tuple([
                (name, record and record.key)
                for name, record in bases.items()
            ]),
            model, on_track, disk_bits, roster_fingerprint(devices), free,
            bits,
        ))

    def base(self, name: str) -> BaseRecord:
        """The record of a base relation the plans load."""
        record = self.bases.get(name)
        if record is None:
            raise PlanError(f"no base relation named {name!r} on the disk")
        return record

    def store_backed(self, name: str) -> bool:
        """Whether reads of ``name`` stream from the persistent store."""
        record = self.bases.get(name)
        return record is not None and record.handle is not None

    def distinct_count(self, name: str, column: ColumnRef) -> Optional[int]:
        """A keyed base column's distinct values, as
        :func:`~repro.machine.operators.estimate_rows` reads them."""
        return dict(self.bases[name].distinct).get(column)


def _selects_over_bases(order, parent_count):
    """``(base, node)`` for each ``Base`` of ``order`` (a transaction's
    nodes, each once) whose one parent is a host-CPU node: the
    selections a disk can apply while reading."""
    for node in order:
        child = node.children[0] if node.children else None
        if (
            node.device_kind == DEVICE_CPU
            and isinstance(child, Base)
            and parent_count.get(id(child), 0) == 1
        ):
            yield child, node


def select_fused_bases(plans: Sequence[PlanNode]) -> frozenset[str]:
    """The base relations ``plans``, compiled as one transaction, read
    through a selection a logic-per-track disk applies on-track
    (:meth:`PhysicalPlanner._fused_selects`)."""
    order = list({
        id(node): node for plan in plans for node in walk(plan)
    }.values())
    return frozenset(
        base.name for base, _ in
        _selects_over_bases(order, PhysicalPlanner._parent_count(order))
    )


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
                ops, op_of_node, priced, sweeps = self._assign(
                    order, release, parent_count, fused
                )
            with obs.span("planner.fuse"):
                chains = (
                    self._fuse_chains(ops, op_of_node, parent_count)
                    if pipeline else []
                )
                for chain in chains:
                    if len(chain) > 1:
                        self._choose_chain_variants(
                            [ops[i] for i in chain.op_ids], priced
                        )
            with obs.span("planner.predict"):
                self._predict_timeline(ops, chains, sweeps)
            outputs = [op_of_node[id(plan)] for plan in plans]
            sp.set(
                ops=len(ops),
                chains=sum(1 for c in chains if len(c) > 1),
            )
        return PhysicalPlan(
            ops, chains, outputs, pipeline, backend=self._backend_name(),
            sweeps=sweeps,
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
        predicate while scanning the chunks its zone maps could not
        prune — the selection never leaves the storage layer).
        """
        ctx = self.context
        return {
            id(base): node
            for base, node in _selects_over_bases(order, parent_count)
            if ctx.logic_per_track or ctx.store_backed(base.name)
        }

    # -- device assignment -------------------------------------------------------

    def _assign(self, order, release, parent_count, fused):
        ctx = self.context
        bases = {
            node.name: ctx.base(node.name)
            for node in order if isinstance(node, Base)
        }
        schemas = {name: record.schema for name, record in bases.items()}
        cards = {name: record.rows for name, record in bases.items()}
        element_bytes = (ctx.element_bits + 7) // 8
        disk_elem = (ctx.disk_element_bits + 7) // 8

        def est_bytes(rows: int, arity: int) -> int:
            return rows * arity * element_bytes

        ops: list[PhysicalOp] = []
        op_of_node: dict[int, int] = {}
        #: array op id → its admitted variants priced on its device
        priced: dict[int, list[_Priced]] = {}
        roster = DeviceRoster(ctx.devices)
        est_disk_free = 0.0
        #: (release, cylinder) -> the loads read in that sweep so far
        open_sweeps: dict[tuple[float, int], list[PhysicalOp]] = {}
        #: (release, cylinder) -> the room that sweep has left: the
        #: most a memory can take, less every byte placed up to and
        #: with the sweep's first load (wherever those went) and its
        #: later loads — so some memory can always take the sweep whole.
        sweep_room: dict[tuple[float, int], int] = {}
        placed_bytes = 0
        loaded_bases: dict[str, int] = {}

        def add(op: PhysicalOp) -> PhysicalOp:
            nonlocal placed_bytes
            ops.append(op)
            op_of_node[id(op.node)] = op.op_id
            if op.kind != OP_RESIDENT:  # already out of memory_free
                placed_bytes += op.est_bytes_out
            return op

        for node in order:
            if id(node) in op_of_node:
                continue
            op_id = len(ops)
            if isinstance(node, Base):
                record = bases[node.name]
                base_rows, base_arity = record.rows, record.arity
                if record.resident:
                    add(PhysicalOp(
                        op_id=op_id, node=node, kind=OP_RESIDENT,
                        device="memory", inputs=(), release=release[id(node)],
                        label=node.name, est_rows_out=base_rows,
                        est_bytes_out=est_bytes(base_rows, base_arity),
                        est_seconds=0.0,
                    ))
                    continue
                select = fused.get(id(node))
                if select is None and node.name in loaded_bases:
                    op_of_node[id(node)] = loaded_bases[node.name]
                    continue
                if select is not None:
                    rows = estimate_rows(select, {node.name: base_rows})
                    label = f"load {select.describe()}"
                    selection = (select.column, select.op, select.value)
                else:
                    rows = base_rows
                    label = f"load {node.name}"
                    selection = None
                scan = None
                handle = record.handle
                if handle is not None:
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
                    read_seconds = ctx.disk_model.read_seconds(scan.nbytes)
                    label += (
                        f" [chunks {scan.chunks_read}/{scan.chunks_total}, "
                        f"{scan.chunks_pruned} pruned]"
                    )
                else:
                    read_seconds = ctx.disk_model.read_seconds(
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
                sweep = (op.release, record.cylinder)
                swept = open_sweeps.get(sweep)
                if swept is not None and op.est_bytes_out <= sweep_room[sweep]:
                    # Read in the revolution the sweep's first load has.
                    sweep_room[sweep] -= op.est_bytes_out
                    swept.append(op)
                    op.est_start = swept[0].est_start
                    op.est_end = swept[0].est_end
                    continue
                op.est_start, est_disk_free = disk_sweep(
                    est_disk_free, op.release, (read_seconds,)
                )
                op.est_end = est_disk_free
                if swept is None and sweep[1] is not None:
                    open_sweeps[sweep] = [op]
                    sweep_room[sweep] = (
                        max(ctx.memory_free, default=0) - placed_bytes
                    )
                continue

            input_ids = tuple(op_of_node[id(child)] for child in node.children)
            in_ops = [ops[i] for i in input_ids]
            ready = max(
                [release[id(node)]] + [op.est_end for op in in_ops]
            )
            schema = infer_schema(node, schemas)
            rows_out = estimate_rows(node, cards, ctx.distinct_count)
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

            # Array operation: each device of its kind runs its quickest
            # variant (counter on a tie), and the roster picks the device
            # that finishes earliest (cost-aware, not first-free).
            row = operator_of(node)
            n_a = in_ops[0].est_rows_out
            n_b = in_ops[1].est_rows_out if len(in_ops) > 1 else n_a
            arity_a = len(infer_schema(node.children[0], schemas))
            options = price_array_op(
                node, n_a, n_b, arity_a,
                [op.est_bytes_out for op in in_ops] + [bytes_out],
                ctx.devices,
            )
            device, start = roster.pick(node.device_kind, ready, {
                name: quickest(variants).seconds
                for name, variants in options.items()
            })
            priced[op_id] = options[device.name]
            per_element = (
                getattr(device, "element_bits", None) or ctx.element_bits
            )
            op = add(PhysicalOp(
                op_id=op_id, node=node, kind=OP_ARRAY, device=device.name,
                inputs=input_ids, release=release[id(node)],
                label=node.describe(), est_rows_out=rows_out,
                est_bytes_out=bytes_out, est_seconds=0.0,
                est_bits=row.columns(node, arity_a) * per_element,
            ))
            quickest(priced[op_id]).apply(op)
            op.est_start, op.est_end = start, start + op.est_seconds
            roster.occupy(device.name, op.est_end)
        sweeps = []
        for (_, cylinder), members in open_sweeps.items():
            if len(members) > 1:
                for member in members:
                    member.sweep = len(sweeps)
                sweeps.append(DiskSweep(
                    cylinder, tuple(member.op_id for member in members)
                ))
        return ops, op_of_node, priced, sweeps

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

    @staticmethod
    def _choose_chain_variants(
        members: list[PhysicalOp], priced: dict[int, list["_Priced"]]
    ) -> None:
        """Re-choose the variants of a fused chain's stages by the law
        the chain runs under, Σ fill + max stream, instead of each
        stage's stand-alone duration: a stage whose fixed variant
        streams for less but fills for longer only pays off when its
        stream is the chain's longest.

        Exact: for each candidate bound on the longest stream, every
        stage takes its shortest-filling variant within the bound, and
        the cheapest of those choices is kept — only when it beats every
        stage's first admitted variant (counter), so a tie keeps
        counter and no chain's predicted time rises.
        """
        options = [priced[m.op_id] for m in members]

        def pipelined(choice: list[_Priced]) -> float:
            return (sum(option.fill for option in choice)
                    + max(option.stream for option in choice))

        best = [stage[0] for stage in options]
        for bound in sorted({o.stream for stage in options for o in stage}):
            within = [[o for o in stage if o.stream <= bound]
                      for stage in options]
            if not all(within):
                continue
            choice = [min(stage, key=lambda o: o.fill) for stage in within]
            if pipelined(choice) < pipelined(best):
                best = choice
        for member, option in zip(members, best):
            option.apply(member)

    # -- predicted timeline ---------------------------------------------------------

    def _predict_timeline(self, ops, chains, sweeps):
        """Re-time the plan with fused chains under the pipeline law.

        An idealized schedule — device and disk contention, but no
        memory-port modelling (the executed report has the real one).
        A disk sweep is timed at its first load, for all its loads.
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
                swept = (
                    [op] if op.sweep is None
                    else [ops[i] for i in sweeps[op.sweep].op_ids]
                )
                start, est_disk_free = disk_sweep(
                    est_disk_free, op.release,
                    [load.est_seconds for load in swept],
                )
                for load in swept:
                    load.est_start, load.est_end = start, est_disk_free
                    scheduled.add(load.op_id)
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
