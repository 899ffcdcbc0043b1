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
:mod:`repro.perf.cost` exchange terms plus the join on the largest lane,
priced as the lanes' physical planner prices it
(:func:`~repro.machine.physical.price_array_op`) at the sizes the
lanes' own planning snapshots give, and picks the minimum.

Each stage of a sharded query is a machine run of its own, but §8 reads
"an entire cylinder in one revolution": a base relation a later stage
loads, lying on the cylinder of one of the first stage's loads, is
**prefetched** — the first stage reads it in that sweep and hands it to
the later stages as a memory-resident relation (``ShardedPlan.prefetch``),
so the exchange no longer costs a second revolution.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import PlanError
from repro.machine.operators import (
    estimate_rows,
    infer_schema,
    keyed_join_rows,
    operator_of,
)
from repro.machine.physical import (
    PlanningContext,
    price_array_op,
    quickest,
    select_fused_bases,
)
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
    walk,
)
from repro.perf.cost import ExchangeCost, broadcast_cost, shuffle_cost
from repro.relational.algebra import division_layout
from repro.relational.schema import Schema
from repro.shard.catalog import (
    PARTITIONED,
    REPLICATED,
    Distribution,
    ShardedSnapshot,
)
from repro.shard.partition import HashPartitioner, Partitioner

__all__ = [
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


def co_partitioned(left: Distribution, right: Distribution) -> bool:
    """Equal tuples of union-compatible inputs provably co-locate."""
    return (
        left.kind == PARTITIONED
        and right.kind == PARTITIONED
        and left.fp == right.fp
        and left.key == right.key
    )


@dataclass(frozen=True)
class ExchangeStep:
    """One cross-shard data movement the lowered plan requires.

    ``plan`` is the shard-local fragment each shard evaluates first;
    its per-shard results are then redistributed (``broadcast`` or
    ``repartition`` by ``key``) and preloaded on every shard under
    ``name``, which downstream fragments reference as a base relation.
    ``source`` is how those per-shard results lie before they move —
    what tells the executor whether they can repeat a row — and
    ``schema`` is the exchanged relation's.
    """

    name: str
    plan: PlanNode
    kind: str
    key: Optional[int]
    partitioner: Optional[Partitioner]
    rows: int  # estimated logical rows exchanged
    cost: ExchangeCost
    source: Distribution
    schema: Schema

    def describe(self) -> str:
        target = f" by col {self.key}" if self.kind == REPARTITION else ""
        return (
            f"{self.kind}{target} -> {self.name} "
            f"(~{self.rows} rows, {self.cost.seconds * 1e3:.3f} ms)"
        )


@dataclass(frozen=True)
class ShardedPlan:
    """A logical transaction lowered onto the shards.

    Frozen, and its sequences are tuples: one lowering is kept in the
    pool's plan cache and shared by every query, thread and tenant whose
    transaction and shard snapshot are equal to the ones it came from.

    ``exchanges`` run in order (each is a fragment plus a
    redistribution); ``roots`` are the final per-shard plans whose
    results merge — in shard order, under set semantics — into the
    transaction's answers.  ``prefetch_roots`` are the base relations
    the first stage offers to read beside its fragment, in the disk
    sweep of its own loads, and leave memory-resident for the later
    stages; a shard reads those its sweep takes whole.  They are the
    later stages' own ``Base`` nodes, so a transaction of the same plan
    objects compiles its stages under the same plan-cache entries.
    ``priced_joins`` holds, per join whose exchange strategy was priced,
    ``(join, strategy, its quickest pricing on the largest lane)``.
    """

    shards: int
    roots: tuple[PlanNode, ...]
    distributions: tuple[Distribution, ...]
    exchanges: tuple[ExchangeStep, ...] = ()
    local_joins: int = 0
    prefetch_roots: tuple[Base, ...] = ()
    priced_joins: tuple[tuple, ...] = ()

    @property
    def prefetch(self) -> tuple[str, ...]:
        """The names of the prefetched base relations."""
        return tuple(root.name for root in self.prefetch_roots)

    def stage_roots(self, index: int) -> list[PlanNode]:
        """What exchange stage ``index`` compiles on every shard: its
        fragment, then on the first stage the prefetched relations."""
        roots = [self.exchanges[index].plan]
        if index == 0:
            roots.extend(self.prefetch_roots)
        return roots

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
        if self.prefetch:
            lines.append(
                f"  prefetch in stage 0: {', '.join(self.prefetch)} "
                f"(on each shard whose sweep takes it whole)"
            )
        for join, strategy, priced in self.priced_joins:
            lines.append(
                f"  {join.describe()}: {strategy} (the join "
                f"{priced.seconds * 1e3:.3f} ms a lane, {priced.variant})"
            )
        for root, dist in zip(self.roots, self.distributions):
            lines.append(f"  root: {root!r}  [{dist.describe()}]")
        lines.append(
            f"  local joins: {self.local_joins}, "
            f"broadcasts: {self.broadcasts}, "
            f"repartitions: {self.repartitions}"
        )
        return "\n".join(lines)


def _joined_locally(
    dl: Distribution, dr: Distribution, keyed: Sequence[tuple[int, int]]
) -> Optional[Distribution]:
    """How a join's output lies when its sides lie so that it can run
    shard-local, else None.  ``keyed`` are the column positions of each
    equality it matches."""
    if dl.kind == dr.kind == PARTITIONED and dl.fp == dr.fp:
        for a_key, b_key in keyed:
            if (a_key, b_key) == (dl.key, dr.key):
                # Co-partitioned equi-join: matching keys co-locate,
                # zero cross-shard traffic.
                return Distribution(PARTITIONED, key=a_key, fp=dl.fp)
    if dr.kind == REPLICATED:
        # (∪ᵢAᵢ) ⋈ B = ∪ᵢ(Aᵢ ⋈ B); output rows carry Aᵢ's columns
        # first, so A-side partitioning survives at the same position.
        return dl
    if dl.kind == REPLICATED:
        return Distribution(SCATTERED)
    return None


def _later_stages(
    exchanges: Sequence[ExchangeStep], roots: list[PlanNode]
) -> list[list[PlanNode]]:
    """The plans each stage after the first compiles: every later
    exchange fragment alone, then the final roots together."""
    return [[step.plan] for step in exchanges[1:]] + [roots]


def _loads(plans: Sequence[PlanNode]) -> dict[str, Base]:
    """The base relations ``plans`` read: name → its first ``Base`` node
    in walk order."""
    loads: dict[str, Base] = {}
    for plan in plans:
        for node in walk(plan):
            if isinstance(node, Base):
                loads.setdefault(node.name, node)
    return loads


def _stage_cylinders(
    context: PlanningContext, loads: Sequence[str]
) -> set:
    """The cylinders a stage's ``loads`` lie on in a shard's planning
    ``context``, those resident there (and the exchanged ones, which it
    holds no record of) left out."""
    records = [context.bases.get(name) for name in loads]
    return {
        record.cylinder for record in records
        if record is not None and not record.resident
    } - {None}


def _rides_a_stage_cylinder(
    context: PlanningContext, name: str, cylinders: set,
    filtered: frozenset[str],
) -> bool:
    """Whether ``name`` is an in-memory relation of the shard's disk,
    not resident there, that lies on one of the stage's load
    ``cylinders`` or holds no bytes (its read takes no time) — and, on
    a logic-per-track disk, is not among the relations a later stage
    reads through an on-track selection (``filtered``): held in memory
    whole, it would lose that free filter."""
    record = context.bases.get(name)
    if record is None or record.resident or record.handle is not None:
        return False
    if context.logic_per_track and name in filtered:
        return False
    if record.cylinder is None:
        return record.rows == 0
    return record.cylinder in cylinders


class ShardPlanner:
    """Lowers logical plans from a :class:`ShardedSnapshot`.

    A lowering reads the snapshot it is given and nothing else: each
    shard's planning context sizes the lanes, the roster the contexts
    carry prices each exchange strategy's per-lane join, and the
    snapshot's placements prove operations shard-local.  Lowering itself
    never touches data, so equal snapshots lower equal plans.
    """

    def __init__(self) -> None:
        self._repartitioner = HashPartitioner()

    def lower(
        self, plans: Sequence[PlanNode] | PlanNode, snapshot: ShardedSnapshot
    ) -> ShardedPlan:
        """Lower a transaction; returns the per-shard plans + exchanges."""
        if isinstance(plans, PlanNode):
            plans = [plans]
        self._start(snapshot)
        roots: list[PlanNode] = []
        distributions: list[Distribution] = []
        for plan in plans:
            lowered, dist = self._lower(plan)
            roots.append(lowered)
            distributions.append(dist)
        return ShardedPlan(
            shards=self.shards,
            roots=tuple(roots),
            distributions=tuple(distributions),
            exchanges=tuple(self._exchanges),
            local_joins=self._local_joins,
            prefetch_roots=self._prefetch(roots),
            priced_joins=tuple(self._priced),
        )

    def _start(self, snapshot: ShardedSnapshot) -> None:
        """Take up ``snapshot``; keep each lane's rows and the logical
        ones (partitioned: the pieces' sum)."""
        self._contexts = snapshot.contexts
        self._placements = snapshot.placements
        self._spread = snapshot.spread
        self.shards = len(self._contexts)
        self.devices = self._contexts[0].devices
        self._bits = self._contexts[0].element_bits
        self._counter = itertools.count()
        self._exchanges: list[ExchangeStep] = []
        self._memo: dict[int, tuple[PlanNode, Distribution]] = {}
        self._local_joins = 0
        self._priced: list[tuple] = []
        self._lanes = [
            {name: record.rows for name, record in context.bases.items()
             if record is not None}
            for context in self._contexts
        ]
        self._schemas = {
            name: record.schema
            for name, record in self._contexts[0].bases.items()
            if record is not None
        }
        self._cards = {
            name: self._lanes[0][name]
            if self._placement(name).kind == REPLICATED
            else sum(lane[name] for lane in self._lanes)
            for name in self._schemas
        }

    def _placement(self, name: str) -> Distribution:
        try:
            return self._placements[name]
        except KeyError:
            raise PlanError(
                f"no relation named {name!r} in the sharded catalog"
            ) from None

    # -- prefetch ----------------------------------------------------------

    def _prefetch(self, roots: list[PlanNode]) -> tuple[Base, ...]:
        """The base relations the first stage may read for later ones.

        A relation qualifies when a later stage (a later exchange
        fragment or a final root) loads it, and on every shard it is
        not resident and lies on the cylinder of one of the first
        stage's loads — unless a logic-per-track disk would filter it
        on-track for the later stage.  Each shard then reads those its
        first-stage plan takes into that sweep whole (the executor's
        ``_stage_plan``).  Each shard is read through the lowering's
        snapshot of it, the records its own stage compiles plan from.
        Store-backed relations lie on no cylinder: they are read where
        they are used, chunk pruning and all.
        """
        if not self._exchanges:
            return ()
        stages = _later_stages(self._exchanges, roots)
        later = _loads([plan for plans in stages for plan in plans])
        candidates = list(later)
        loads = list(_loads([self._exchanges[0].plan]))
        filtered = frozenset()
        if any(context.logic_per_track for context in self._contexts):
            filtered = filtered.union(*map(select_fused_bases, stages))
        for context in self._contexts:
            cylinders = _stage_cylinders(context, loads)
            candidates = [
                name for name in candidates
                if _rides_a_stage_cylinder(
                    context, name, cylinders, filtered
                )
            ]
        return tuple(later[name] for name in candidates)

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
            return node, self._placement(node.name)
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
        keyed = [
            (a_positions[index], b_positions[index])
            for index, op in enumerate(ops) if op == "=="
        ]
        left, dl = self._lower(node.left)
        right, dr = self._lower(node.right)
        out = _joined_locally(dl, dr, keyed)
        if out is None:
            strategy = self._cheapest_exchange(
                node, dl, dr, a_schema, b_schema, keyed
            )
            if strategy == "broadcast_right":
                right, dr = self._exchange(right, node.right, dr, BROADCAST)
            elif strategy == "broadcast_left":
                left, dl = self._exchange(left, node.left, dl, BROADCAST)
            else:
                a_key, b_key = keyed[0]
                left, dl = self._align(left, node.left, dl, key=a_key)
                right, dr = self._align(right, node.right, dr, key=b_key)
                self._local_joins += 1  # runs shard-local after the shuffle
            out = _joined_locally(dl, dr, keyed)
        else:
            self._local_joins += 1
        return node.with_children((left, right)), out

    def _cheapest_exchange(
        self, node: Join, dl: Distribution, dr: Distribution,
        a_schema: Schema, b_schema: Schema, keyed: list[tuple[int, int]],
    ) -> str:
        """Price each exchange strategy — its movement, then the join on
        its largest lane at the sizes the lanes will hold (a side that
        stays put: its largest piece; a re-partitioned side:
        ⌈n/shards⌉; a broadcast side: n) — and return the cheapest."""
        n_a, n_b = self._rows(node.left), self._rows(node.right)
        kept_a, kept_b = self._kept(node.left), self._kept(node.right)
        whole_a = (n_a, self._counts(node.left, self._distinct))
        whole_b = (n_b, self._counts(node.right, self._distinct))
        bits, shards = self._bits, self.shards
        strategies = []  # (strategy, seconds moving, lane side A, side B)
        if keyed:
            moved, lanes = 0.0, []
            for n, schema, kept, dist, key in (
                (n_a, a_schema, kept_a, dl, keyed[0][0]),
                (n_b, b_schema, kept_b, dr, keyed[0][1]),
            ):
                stays = self._hash_partitioned(dist, key)
                if not stays:
                    moved += shuffle_cost(n, len(schema), bits, shards).seconds
                lanes.append(kept if stays else (-(-n // shards), _unknown))
            strategies.append((REPARTITION, moved, *lanes))
        strategies.append(("broadcast_right", broadcast_cost(
            n_b, len(b_schema), bits, shards).seconds, kept_a, whole_b))
        strategies.append(("broadcast_left", broadcast_cost(
            n_a, len(a_schema), bits, shards).seconds, whole_a, kept_b))
        arities = (len(a_schema), len(b_schema), len(self._schema(node)))
        _, _, strategy, priced = min(
            (moved + (priced.seconds if priced else 0.0), index, strategy,
             priced)
            for index, (strategy, moved, lane_a, lane_b) in enumerate(strategies)
            for priced in [self._price(node, lane_a, lane_b, *arities)]
        )
        if priced is not None:
            self._priced.append((node, strategy, priced))
        return strategy

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
        schema, rows = self._schema(original), self._rows(original)
        if kind == BROADCAST:
            cost = broadcast_cost(rows, len(schema), self._bits, self.shards)
            partitioner, dist, lane_rows = None, Distribution(REPLICATED), rows
        else:
            cost = shuffle_cost(rows, len(schema), self._bits, self.shards)
            partitioner = self._repartitioner
            dist = Distribution(
                PARTITIONED, key=key, fp=partitioner.fingerprint()
            )
            lane_rows = -(-rows // self.shards)
        self._exchanges.append(ExchangeStep(
            name=name, plan=lowered, kind=kind, key=key,
            partitioner=partitioner, rows=rows, cost=cost, source=source,
            schema=schema,
        ))
        self._schemas[name] = schema
        self._cards[name] = rows
        for lane in self._lanes:
            lane[name] = lane_rows
        return Base(name), dist

    # -- estimates ---------------------------------------------------------

    def _schema(self, node: PlanNode) -> Schema:
        return infer_schema(node, self._schemas)

    def _rows(self, node: PlanNode) -> int:
        """``node``'s logical rows, across the shards."""
        return estimate_rows(node, self._cards, self._distinct)

    def _distinct(self, name: str, column) -> Optional[int]:
        """A base column's distinct values across the shards, exact: a
        replicated relation's (one copy's count), the partition key's
        (equal values co-locate, so the pieces' counts add up), or any
        other column's as the snapshot counted the union of the pieces
        (``spread``); None for a column no join of the plans matches."""
        placement = self._placement(name)
        if placement.kind == REPLICATED:
            return self._contexts[0].distinct_count(name, column)
        if self._schemas[name].resolve(column) != placement.key:
            return self._spread.get((name, column))
        counts = [c.distinct_count(name, column) for c in self._contexts]
        return None if None in counts else sum(counts)

    def _largest_lane(self, node: PlanNode) -> tuple[int, PlanningContext]:
        """The rows ``node`` leaves on its largest lane, as that lane's
        own compile estimates them from its snapshot, and the context
        of that lane (the first of the largest)."""
        sizes = [
            estimate_rows(node, lane, context.distinct_count)
            for lane, context in zip(self._lanes, self._contexts)
        ]
        largest = sizes.index(max(sizes))
        return sizes[largest], self._contexts[largest]

    def _kept(self, node: PlanNode) -> tuple[int, Callable]:
        """A join side that stays put, as its largest lane holds it: the
        rows, and the distinct values of a base's columns there."""
        rows, context = self._largest_lane(node)
        return rows, self._counts(node, context.distinct_count)

    @staticmethod
    def _counts(node: PlanNode, distinct: Callable) -> Callable:
        """``column → distinct values`` of a join side: ``distinct``'s
        count of a base relation's column; unknown for any other
        sub-plan, whose lane compile sizes the join by the row law."""
        if isinstance(node, Base):
            return functools.partial(distinct, node.name)
        return _unknown

    def _price(
        self, node: Join, side_a: tuple[int, Callable],
        side_b: tuple[int, Callable],
        arity_a: int, arity_b: int, arity_out: int,
    ):
        """The join on a lane holding ``side_a`` × ``side_b`` — each
        ``(rows, column → distinct values)`` — at its quickest as the
        lane's own planner prices it (every device of its kind, every
        variant, the memory streams, the output sized by System R where
        every matched column's count is known there, else by the join
        row's law); None without a device of its kind."""
        (n_a, distinct_a), (n_b, distinct_b) = side_a, side_b
        width = (self._bits + 7) // 8
        rows_out = keyed_join_rows(node, n_a, n_b, distinct_a, distinct_b)
        if rows_out is None:
            rows_out = operator_of(node).rows(node, n_a, n_b)
        return quickest(itertools.chain(*price_array_op(
            node, n_a, n_b, arity_a,
            [n_a * arity_a * width, n_b * arity_b * width,
             rows_out * arity_out * width],
            self.devices,
        ).values()))


def _unknown(column) -> None:
    """The distinct values of a column nobody counted."""
    return None
