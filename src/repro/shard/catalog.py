"""The sharded catalog: one logical namespace over per-shard catalogs.

A :class:`ShardedCatalog` presents the same ``store``/``preload`` verbs
as a single-tenant :class:`~repro.machine.catalog.Catalog`, but splits
every relation across ``shards`` ordinary catalogs — one per simulated
machine — and remembers *how* each relation was placed:

* **partitioned** (the default): the relation is split by a key column
  through the catalog's :class:`~repro.shard.partition.Partitioner`;
  shard *i* holds exactly the tuples whose key maps to *i*;
* **replicated** (``replicate=True``): every shard holds a full copy —
  the right placement for small divisors and broadcast-style lookup
  relations.

One :meth:`ShardedCatalog.snapshot` hands the
:class:`~repro.shard.planner.ShardPlanner` everything a lowering reads:
the placements of the relations the plans name, which prove operations
shard-local, and each shard's planning snapshot, which sizes and prices
them; its fingerprint keys the lowered plan in the pool's plan cache.
The per-shard catalogs are what the executor
compiles and runs against, so every existing machine layer (physical
planner, plan cache, executor) works unchanged below the shard layer.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import PlanError
from repro.machine.catalog import CONTEXT_MEMO_SIZE, Catalog
from repro.machine.physical import Fingerprint, PlanningContext
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    STRATEGIES,
)

__all__ = [
    "Distribution", "ShardedCatalog", "ShardedSnapshot", "PARTITIONED",
    "REPLICATED",
]

PARTITIONED = "partitioned"
REPLICATED = "replicated"


@dataclass(frozen=True)
class Distribution:
    """How a relation's tuples lie across the shards: a stored
    relation's placement, or what the shard planner tracks of a
    sub-plan (``scattered`` — no usable invariant — as well)."""

    kind: str
    key: Optional[int] = None  # partition-key column position
    fp: Optional[tuple] = None  # partitioner fingerprint

    def describe(self) -> str:
        if self.kind == PARTITIONED:
            return f"partitioned(col {self.key}, {self.fp[0]})"
        return self.kind


class _SnapshotFields(NamedTuple):
    contexts: tuple[PlanningContext, ...]
    placements: Mapping[str, Distribution]
    spread: Mapping[tuple[str, ColumnRef], int]


class ShardedSnapshot(_SnapshotFields):
    """Everything a :class:`~repro.shard.planner.ShardPlanner` lowering
    reads, as one frozen value: each shard's
    :class:`~repro.machine.physical.PlanningContext` of the relations
    the plans name, the placement of each of those the catalog holds,
    and ``spread``: the exact distinct values of each column a join of
    the plans matches by equality (:func:`~repro.machine.physical.base_reads`)
    where no shard's own count says it — a partitioned relation's
    non-key column, whose values repeat across the pieces, counted as
    the union of every piece's values.  :attr:`fingerprint` is the
    lowered plan's plan-cache key part for it, computed once a
    snapshot: equal snapshots lower equal plans."""

    @cached_property
    def fingerprint(self) -> tuple:
        return Fingerprint((
            tuple([context.fingerprint for context in self.contexts]),
            tuple(self.placements.items()),
            tuple(self.spread.items()),
        ))

    @cached_property
    def received(self) -> dict:
        """What the lanes of queries lowered from this snapshot receive
        after their exchange stages, kept for the next such query: per
        plan fingerprint, one memo for :meth:`~repro.machine.catalog.
        Catalog.receive` keyed by ``(stage index, shard)`` — the records
        of each piece received and the free bytes the pieces leave.  A
        piece is a pure function of the snapshot and the plan (a
        recovered run equals a fault-free one), and the snapshot is
        handed back only while every shard's records are the same
        objects, so nothing here can go stale; it holds records, never a
        relation, and lives as long as the snapshot, which the catalog
        bounds."""
        return {}


class ShardedCatalog:
    """Maps a logical relation namespace onto ``shards`` catalogs.

    Thread-safe like the single-machine catalog.  The partitioner is
    fixed per catalog: ``strategy="hash"`` builds one eagerly;
    ``strategy="range"`` derives equi-depth cuts from the first
    partitioned relation's key values (deterministic), so later
    relations sharing the key domain co-partition with it.
    """

    def __init__(
        self,
        tenant: str = "default",
        shards: int = 2,
        strategy: str = "hash",
        element_bits: int = 32,
    ) -> None:
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        if strategy not in STRATEGIES:
            raise PlanError(
                f"unknown shard strategy {strategy!r}; "
                f"use one of {sorted(STRATEGIES)}"
            )
        self.tenant = tenant
        self.shard_count = shards
        self.strategy = strategy
        self.element_bits = element_bits
        self.shards = [
            Catalog(tenant=f"{tenant}/shard{i}", element_bits=element_bits)
            for i in range(shards)
        ]
        self._lock = threading.RLock()
        self._partitioner = HashPartitioner() if strategy == "hash" else None
        self._placements: dict[str, Distribution] = {}
        #: (reads, roster) -> the snapshot :meth:`snapshot` built.
        self._snapshots: dict[tuple, ShardedSnapshot] = {}

    # -- mutation ----------------------------------------------------------

    def store(
        self,
        name: str,
        relation: Relation,
        key: Optional[ColumnRef] = None,
        replicate: bool = False,
    ) -> None:
        """Place a relation on every shard's disk (split or replicated).

        ``key`` names the partition column (default: column 0);
        ``replicate=True`` stores a full copy per shard instead.
        """
        self._place(name, relation, key, replicate, preload=False)

    def preload(
        self,
        name: str,
        relation: Relation,
        key: Optional[ColumnRef] = None,
        replicate: bool = False,
    ) -> None:
        """Mark a relation memory-resident on every shard."""
        self._place(name, relation, key, replicate, preload=True)

    def _place(
        self,
        name: str,
        relation: Relation,
        key: Optional[ColumnRef],
        replicate: bool,
        preload: bool,
    ) -> None:
        with self._lock:
            if replicate:
                pieces = [relation] * self.shard_count
                placement = Distribution(REPLICATED)
            else:
                position = relation.schema.resolve(0 if key is None else key)
                partitioner = self._ensure_partitioner(relation, position)
                with obs.span(
                    "shard.partition", relation=name, rows=len(relation),
                    shards=self.shard_count,
                ):
                    pieces = partitioner.partition(
                        relation, position, self.shard_count
                    )
                placement = Distribution(
                    PARTITIONED, key=position, fp=partitioner.fingerprint()
                )
            for catalog, piece in zip(self.shards, pieces):
                if preload:
                    catalog.preload(name, piece)
                else:
                    catalog.store(name, piece)
            self._placements[name] = placement

    def _ensure_partitioner(
        self, relation: Relation, position: int
    ) -> Partitioner:
        if self._partitioner is None:
            # strategy == "range": equi-depth cuts from the first
            # partitioned relation's key values.
            self._partitioner = RangePartitioner.from_values(
                relation.column_values(position), self.shard_count
            )
        return self._partitioner

    # -- inspection --------------------------------------------------------

    @property
    def partitioner(self) -> Optional[Partitioner]:
        """The catalog's partitioner (None until a range one is derived)."""
        with self._lock:
            return self._partitioner

    def placement(self, name: str) -> Distribution:
        with self._lock:
            try:
                return self._placements[name]
            except KeyError:
                raise PlanError(
                    f"no relation named {name!r} in the sharded catalog; "
                    f"have {sorted(self._placements)}"
                ) from None

    def names(self) -> list[str]:
        with self._lock:
            return list(self._placements)

    def snapshot(
        self,
        reads: Iterable[tuple[str, Sequence[ColumnRef]]],
        devices: Sequence = (),
    ) -> ShardedSnapshot:
        """What a lowering of plans that read ``reads`` plans from: each
        shard's planning snapshot
        (:meth:`~repro.machine.catalog.Catalog.planning_context`), the
        placements of the relations ``reads`` names and the distinct
        counts only the shards together know (``spread``), all taken
        under this catalog's lock, so a relation being placed is in
        every part of the snapshot or in none.

        The snapshot is kept and handed back — its spread counts and
        fingerprint with it — while every shard hands back the very
        context it was built from and the placements are equal: a warm
        lowering derives nothing.
        """
        reads = tuple(reads)
        key = (reads, tuple(devices))
        with self._lock:
            contexts = tuple([
                shard.planning_context(
                    reads, devices, element_bits=self.element_bits
                )
                for shard in self.shards
            ])
            placements = {
                name: self._placements[name] for name, _ in reads
                if name in self._placements
            }
            kept = self._snapshots.get(key)
            if (
                kept is not None
                and all(map(operator.is_, kept.contexts, contexts))
                and kept.placements == placements
            ):
                return kept
            snapshot = ShardedSnapshot(
                contexts, placements, self._spread(reads, placements)
            )
            if len(self._snapshots) >= CONTEXT_MEMO_SIZE:
                self._snapshots.clear()
            self._snapshots[key] = snapshot
            return snapshot

    def _spread(
        self,
        reads: tuple[tuple[str, tuple[ColumnRef, ...]], ...],
        placements: Mapping[str, Distribution],
    ) -> dict[tuple[str, ColumnRef], int]:
        """The distinct values of each column ``reads`` lists of a
        partitioned relation other than its key: the union of each
        shard's sorted unique values (``np.union1d``)."""
        spread = {}
        for name, columns in reads:
            placement = placements.get(name)
            if placement is None or placement.kind != PARTITIONED:
                continue
            pieces = [shard.relation(name) for shard in self.shards]
            for column in columns:
                position = pieces[0].schema.resolve(column)
                if position != placement.key:
                    spread[name, column] = len(reduce(np.union1d, [
                        piece.array[:, position] for piece in pieces
                    ]))
        return spread

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._placements

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ShardedCatalog(tenant={self.tenant!r}, "
                f"{self.shard_count} shards, {self.strategy}, "
                f"{len(self._placements)} relations)"
            )
