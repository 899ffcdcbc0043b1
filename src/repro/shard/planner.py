"""Lowering logical plans onto a cluster of shards.

The :class:`ShardPlanner` decides, operator by operator, whether a plan
node can run **shard-local** — every shard computes its piece of the
answer independently — or needs an **exchange** first (a broadcast or a
re-partition moving tuples between shards).  The analysis tracks a
:class:`Distribution` per sub-plan:

* ``partitioned(key, fp)`` — tuples are split by a key column under a
  known partitioner, so equal key values co-locate;
* ``replicated`` — every shard holds the full sub-result;
* ``scattered`` — tuples are spread with no usable invariant.

Correctness rests on set semantics: the final merge (and every
re-partition) unions the shard pieces as *sets*, so any operator that
distributes over union — selection, projection, dedup, union itself,
and any operator with a replicated other side — may run shard-local
even over scattered input.  Equality-sensitive binary operators
(∩, −, equi-join, division grouping) additionally need equal tuples to
co-locate, which is exactly what a shared partition key proves.

When an exchange is unavoidable the planner *costs* the alternatives —
broadcast either side vs. re-partition both — with the
:mod:`repro.perf.cost` exchange terms plus the § 3–8 device cost of the
per-shard compute, and picks the minimum predicted completion, the same
way the physical planner already picks among devices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.machine.operators import estimate_rows, infer_schema
from repro.machine.physical import estimate_cost
from repro.machine.plan import (
    Base,
    Dedup,
    Difference,
    Divide,
    Intersect,
    Join,
    PlanNode,
    Project,
    Select,
    Union,
)
from repro.perf.cost import ExchangeCost, broadcast_cost, shuffle_cost
from repro.relational.algebra import division_layout
from repro.relational.schema import Schema
from repro.shard.catalog import (
    PARTITIONED,
    REPLICATED,
    ShardedCatalog,
)
from repro.shard.partition import HashPartitioner, Partitioner

__all__ = [
    "Distribution",
    "ExchangeStep",
    "ShardedPlan",
    "ShardPlanner",
    "SCATTERED",
    "BROADCAST",
    "REPARTITION",
]

SCATTERED = "scattered"
BROADCAST = "broadcast"
REPARTITION = "repartition"


@dataclass(frozen=True)
class Distribution:
    """How one sub-plan's tuples lie across the shards."""

    kind: str
    key: Optional[int] = None  # partition-key column position
    fp: Optional[tuple] = None  # partitioner fingerprint

    def describe(self) -> str:
        if self.kind == PARTITIONED:
            return f"partitioned(col {self.key}, {self.fp[0]})"
        return self.kind


def co_partitioned(left: Distribution, right: Distribution) -> bool:
    """Equal tuples of union-compatible inputs provably co-locate."""
    return (
        left.kind == PARTITIONED
        and right.kind == PARTITIONED
        and left.fp == right.fp
        and left.key == right.key
    )


@dataclass
class ExchangeStep:
    """One cross-shard data movement the lowered plan requires.

    ``plan`` is the shard-local fragment each shard evaluates first;
    its per-shard results are then redistributed (``broadcast`` or
    ``repartition`` by ``key``) and preloaded on every shard under
    ``name``, which downstream fragments reference as a base relation.
    ``source`` is how those per-shard results lie before they move —
    what tells the executor whether they can repeat a row.
    """

    name: str
    plan: PlanNode
    kind: str
    key: Optional[int]
    partitioner: Optional[Partitioner]
    rows: int  # estimated logical rows exchanged
    cost: ExchangeCost
    source: Distribution

    def describe(self) -> str:
        target = f" by col {self.key}" if self.kind == REPARTITION else ""
        return (
            f"{self.kind}{target} -> {self.name} "
            f"(~{self.rows} rows, {self.cost.seconds * 1e3:.3f} ms)"
        )


@dataclass
class ShardedPlan:
    """A logical transaction lowered onto the shards.

    ``exchanges`` run in order (each is a fragment plus a
    redistribution); ``roots`` are the final per-shard plans whose
    results merge — in shard order, under set semantics — into the
    transaction's answers.
    """

    shards: int
    roots: list[PlanNode]
    distributions: list[Distribution]
    exchanges: list[ExchangeStep] = field(default_factory=list)
    local_joins: int = 0

    @property
    def broadcasts(self) -> int:
        return sum(1 for e in self.exchanges if e.kind == BROADCAST)

    @property
    def repartitions(self) -> int:
        return sum(1 for e in self.exchanges if e.kind == REPARTITION)

    @property
    def exchange_seconds(self) -> float:
        """Predicted simulated seconds spent on cross-shard links."""
        return sum(e.cost.seconds for e in self.exchanges)

    def explain(self) -> str:
        lines = [f"sharded plan over {self.shards} shards:"]
        for step in self.exchanges:
            lines.append(f"  exchange: {step.describe()}")
        if not self.exchanges:
            lines.append("  no exchanges: every stage runs shard-local")
        for root, dist in zip(self.roots, self.distributions):
            lines.append(f"  root: {root!r}  [{dist.describe()}]")
        lines.append(
            f"  local joins: {self.local_joins}, "
            f"broadcasts: {self.broadcasts}, "
            f"repartitions: {self.repartitions}"
        )
        return "\n".join(lines)


class ShardPlanner:
    """Lowers logical plans against a :class:`ShardedCatalog`.

    ``devices`` (the pool's complement) supply the §3–8 cost model used
    to weigh exchange strategies; lowering itself never touches data.
    """

    def __init__(
        self,
        catalog: ShardedCatalog,
        devices: Sequence = (),
        element_bits: int = 32,
    ) -> None:
        self.catalog = catalog
        self.shards = catalog.shard_count
        self.devices = list(devices)
        self.element_bits = element_bits
        self._schemas = catalog.schemas()
        self._cards = catalog.cardinalities()
        self._counter = itertools.count()
        self._exchanges: list[ExchangeStep] = []
        self._memo: dict[int, tuple[PlanNode, Distribution]] = {}
        self._local_joins = 0
        self._repartitioner = HashPartitioner()

    def lower(self, plans: Sequence[PlanNode] | PlanNode) -> ShardedPlan:
        """Lower a transaction; returns the per-shard plans + exchanges."""
        if isinstance(plans, PlanNode):
            plans = [plans]
        roots: list[PlanNode] = []
        distributions: list[Distribution] = []
        for plan in plans:
            lowered, dist = self._lower(plan)
            roots.append(lowered)
            distributions.append(dist)
        return ShardedPlan(
            shards=self.shards,
            roots=roots,
            distributions=distributions,
            exchanges=self._exchanges,
            local_joins=self._local_joins,
        )

    # -- recursion ---------------------------------------------------------

    def _lower(self, node: PlanNode) -> tuple[PlanNode, Distribution]:
        memoised = self._memo.get(id(node))
        if memoised is not None:
            return memoised
        lowered = self._lower_node(node)
        self._memo[id(node)] = lowered
        return lowered

    def _lower_node(self, node: PlanNode) -> tuple[PlanNode, Distribution]:
        if isinstance(node, Base):
            placement = self.catalog.placement(node.name)
            if placement.kind == REPLICATED:
                return node, Distribution(REPLICATED)
            return node, Distribution(
                PARTITIONED, key=placement.key, fp=placement.fp
            )
        if isinstance(node, Select):
            child, dist = self._lower(node.child)
            return node.with_children((child,)), dist
        if isinstance(node, Dedup):
            # Dedup distributes over set union: local duplicates vanish
            # here, cross-shard ones at the next repartition or merge.
            child, dist = self._lower(node.child)
            return node.with_children((child,)), dist
        if isinstance(node, Project):
            return self._lower_project(node)
        if isinstance(node, Union):
            return self._lower_union(node)
        if isinstance(node, (Intersect, Difference)):
            return self._lower_comparison(node)
        if isinstance(node, Join):
            return self._lower_join(node)
        if isinstance(node, Divide):
            return self._lower_divide(node)
        raise PlanError(f"cannot shard {node.describe()}")

    def _lower_project(self, node: Project) -> tuple[PlanNode, Distribution]:
        child_schema = self._schema(node.child)
        child, dist = self._lower(node.child)
        lowered = node.with_children((child,))
        if dist.kind == REPLICATED:
            return lowered, Distribution(REPLICATED)
        positions = child_schema.resolve_many(list(node.columns))
        if dist.kind == PARTITIONED and dist.key in positions:
            return lowered, Distribution(
                PARTITIONED, key=positions.index(dist.key), fp=dist.fp
            )
        return lowered, Distribution(SCATTERED)

    def _lower_union(self, node: Union) -> tuple[PlanNode, Distribution]:
        # (∪ᵢAᵢ) ∪ (∪ᵢBᵢ) = ∪ᵢ(Aᵢ ∪ Bᵢ): always shard-local as sets.
        left, dl = self._lower(node.left)
        right, dr = self._lower(node.right)
        lowered = node.with_children((left, right))
        if co_partitioned(dl, dr):
            return lowered, dl
        if dl.kind == REPLICATED and dr.kind == REPLICATED:
            return lowered, Distribution(REPLICATED)
        return lowered, Distribution(SCATTERED)

    def _lower_comparison(
        self, node: Intersect | Difference
    ) -> tuple[PlanNode, Distribution]:
        left, dl = self._lower(node.left)
        right, dr = self._lower(node.right)
        if co_partitioned(dl, dr):
            return node.with_children((left, right)), dl
        if dr.kind == REPLICATED:
            # Aᵢ ∩ B and Aᵢ − B both distribute over ∪ᵢAᵢ.
            return node.with_children((left, right)), dl
        if isinstance(node, Intersect) and dl.kind == REPLICATED:
            # A ∩ Bᵢ distributes; A − Bᵢ does not (B's other pieces).
            return node.with_children((left, right)), dr
        # Equal tuples agree on every column, so re-partitioning both
        # sides by column 0 co-locates them.
        left, dl = self._align(left, node.left, dl, key=0)
        right, dr = self._align(right, node.right, dr, key=0)
        return node.with_children((left, right)), dl

    def _lower_join(self, node: Join) -> tuple[PlanNode, Distribution]:
        a_schema = self._schema(node.left)
        b_schema = self._schema(node.right)
        a_positions = a_schema.resolve_many([ca for ca, _ in node.on])
        b_positions = b_schema.resolve_many([cb for _, cb in node.on])
        ops = node.ops or ("==",) * len(node.on)
        left, dl = self._lower(node.left)
        right, dr = self._lower(node.right)

        equi_pairs = [
            index for index, op in enumerate(ops) if op == "=="
        ]
        if (
            dl.kind == PARTITIONED
            and dr.kind == PARTITIONED
            and dl.fp == dr.fp
        ):
            for index in equi_pairs:
                if (
                    a_positions[index] == dl.key
                    and b_positions[index] == dr.key
                ):
                    # Co-partitioned equi-join: matching keys co-locate,
                    # zero cross-shard traffic.
                    self._local_joins += 1
                    return (
                        node.with_children((left, right)),
                        Distribution(
                            PARTITIONED, key=a_positions[index], fp=dl.fp
                        ),
                    )
        if dr.kind == REPLICATED:
            # (∪ᵢAᵢ) ⋈ B = ∪ᵢ(Aᵢ ⋈ B); output rows carry Aᵢ's columns
            # first, so A-side partitioning survives at the same
            # position.
            self._local_joins += 1
            out = dl if dl.kind == PARTITIONED else Distribution(SCATTERED)
            if dl.kind == REPLICATED:
                out = Distribution(REPLICATED)
            return node.with_children((left, right)), out
        if dl.kind == REPLICATED:
            self._local_joins += 1
            return (
                node.with_children((left, right)),
                Distribution(SCATTERED),
            )

        # No shard-local proof: cost the exchange strategies and take
        # the minimum predicted completion (exchange + per-shard
        # compute), exactly how the physical planner weighs devices.
        n_a = self._rows(node.left)
        n_b = self._rows(node.right)
        shards = self.shards
        per = lambda n: -(-n // shards)  # ceil
        arity_b = len(b_schema)
        arity_a = len(a_schema)
        candidates: list[tuple[float, int, str]] = []
        if equi_pairs:
            pair = equi_pairs[0]
            seconds = self._join_seconds(node, per(n_a), per(n_b))
            if not self._hash_partitioned(dl, a_positions[pair]):
                seconds += shuffle_cost(
                    n_a, arity_a, self.element_bits, shards
                ).seconds
            if not self._hash_partitioned(dr, b_positions[pair]):
                seconds += shuffle_cost(
                    n_b, arity_b, self.element_bits, shards
                ).seconds
            candidates.append((seconds, len(candidates), REPARTITION))
        candidates.append((
            broadcast_cost(n_b, arity_b, self.element_bits, shards).seconds
            + self._join_seconds(node, per(n_a), n_b),
            len(candidates), "broadcast_right",
        ))
        candidates.append((
            broadcast_cost(n_a, arity_a, self.element_bits, shards).seconds
            + self._join_seconds(node, n_a, per(n_b)),
            len(candidates), "broadcast_left",
        ))
        _, _, strategy = min(candidates)

        if strategy == REPARTITION:
            pair = equi_pairs[0]
            left, dl = self._align(
                left, node.left, dl, key=a_positions[pair]
            )
            right, dr = self._align(
                right, node.right, dr, key=b_positions[pair]
            )
            self._local_joins += 1  # runs shard-local after the shuffle
            return (
                node.with_children((left, right)),
                Distribution(PARTITIONED, key=a_positions[pair], fp=dl.fp),
            )
        if strategy == "broadcast_right":
            right, dr = self._exchange(right, node.right, dr, BROADCAST)
            out = dl if dl.kind == PARTITIONED else Distribution(SCATTERED)
            return node.with_children((left, right)), out
        left, dl = self._exchange(left, node.left, dl, BROADCAST)
        return (
            node.with_children((left, right)),
            Distribution(SCATTERED),
        )

    def _lower_divide(self, node: Divide) -> tuple[PlanNode, Distribution]:
        group_pos, _, _, _ = division_layout(
            self._schema(node.left), self._schema(node.right),
            node.a_value, node.a_group, node.b_value,
        )
        left, dl = self._lower(node.left)
        right, dr = self._lower(node.right)
        if dr.kind != REPLICATED:
            # Every shard needs the whole divisor row (§7's comparands).
            right, dr = self._exchange(right, node.right, dr, BROADCAST)
        if dl.kind == PARTITIONED and dl.key == group_pos:
            out = Distribution(PARTITIONED, key=0, fp=dl.fp)
        elif dl.kind == REPLICATED:
            out = Distribution(REPLICATED)
        else:
            # Groups must not straddle shards: re-partition the dividend
            # by its group column.
            left, dl = self._align(left, node.left, dl, key=group_pos)
            out = Distribution(PARTITIONED, key=0, fp=dl.fp)
        return node.with_children((left, right)), out

    # -- exchanges ---------------------------------------------------------

    def _align(
        self,
        lowered: PlanNode,
        original: PlanNode,
        dist: Distribution,
        key: int,
    ) -> tuple[PlanNode, Distribution]:
        """Re-partition a side by ``key`` unless it already is."""
        if self._hash_partitioned(dist, key):
            return lowered, dist
        return self._exchange(lowered, original, dist, REPARTITION, key=key)

    def _hash_partitioned(self, dist: Distribution, key: int) -> bool:
        return (
            dist.kind == PARTITIONED
            and dist.key == key
            and dist.fp == self._repartitioner.fingerprint()
        )

    def _exchange(
        self,
        lowered: PlanNode,
        original: PlanNode,
        source: Distribution,
        kind: str,
        key: Optional[int] = None,
    ) -> tuple[PlanNode, Distribution]:
        """Materialize a fragment and redistribute its result."""
        name = f"__shard_x{next(self._counter)}"
        schema = self._schema(original)
        rows = self._rows(original)
        if kind == BROADCAST:
            cost = broadcast_cost(
                rows, len(schema), self.element_bits, self.shards
            )
            partitioner = None
            dist = Distribution(REPLICATED)
        else:
            cost = shuffle_cost(
                rows, len(schema), self.element_bits, self.shards
            )
            partitioner = self._repartitioner
            dist = Distribution(
                PARTITIONED, key=key, fp=partitioner.fingerprint()
            )
        self._exchanges.append(ExchangeStep(
            name=name, plan=lowered, kind=kind, key=key,
            partitioner=partitioner, rows=rows, cost=cost, source=source,
        ))
        self._schemas[name] = schema
        self._cards[name] = rows
        return Base(name), dist

    # -- estimates ---------------------------------------------------------

    def _schema(self, node: PlanNode) -> Schema:
        return infer_schema(node, self._schemas)

    def _rows(self, node: PlanNode) -> int:
        return estimate_rows(node, self._cards)

    def _join_seconds(self, node: Join, n_a: int, n_b: int) -> float:
        """Predicted per-shard device seconds for one join strategy."""
        device = self._device_for(node.device_kind)
        if device is None:
            return 0.0
        cost = estimate_cost(
            node, n_a, n_b, 0,
            device.capacity.max_rows, device.capacity.max_cols,
        )
        return device.technology.pulses_to_seconds(cost.total_pulses)

    def _device_for(self, kind: str):
        for device in self.devices:
            if device.kind == kind and hasattr(device, "capacity"):
                return device
        return None
