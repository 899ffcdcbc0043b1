"""Per-tenant relation catalogs for the layered machine.

The god-object machine used to own its base relations directly; the
layered architecture pulls them out into a :class:`Catalog` — one per
tenant — so an :class:`~repro.machine.pool.EnginePool` can serve many
tenants' queries over shared devices without their data ever mixing.

A catalog holds two populations, mirroring §9's storage hierarchy:

* **stored** relations live on the tenant's :class:`MachineDisk` and
  are read (serially, possibly with on-track selection) at query time;
* **preloaded** relations model a prior transaction's output still
  resident in a memory module — at execution start the pool places
  them in the fresh machine state's memories, ready at time 0.

A compile reads a catalog once, through
:meth:`~Catalog.planning_context`: the frozen snapshot of what the
plans name that the planner plans from, and whose fingerprint keys the
plan cache — the machine's, the pool's and every shard lane's alike.
"""

from __future__ import annotations

import operator
import threading
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.errors import PlanError
from repro.machine.disk import MachineDisk
from repro.machine.memory import preloaded_free_bytes
from repro.machine.physical import BaseRecord, PlanningContext
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.store import RelationStore

__all__ = ["Catalog"]

#: How many planning contexts a catalog keeps (all dropped when full):
#: one per distinct read set × roster it has compiled against.
CONTEXT_MEMO_SIZE = 64


class Catalog:
    """The named relations one tenant can query.

    Thread-safe: a tenant's loader threads may :meth:`store` and
    :meth:`preload` concurrently with the pool reading the catalog to
    compile and execute.
    """

    def __init__(
        self,
        tenant: str = "default",
        disk: Optional[MachineDisk] = None,
        element_bits: int = 32,
    ) -> None:
        self.tenant = tenant
        self.disk = disk if disk is not None else MachineDisk(
            element_bits=element_bits
        )
        self._lock = threading.RLock()
        #: insertion-ordered: preload order decides memory placement.
        self._preloaded: dict[str, Relation] = {}
        #: name -> (relation, {columns: record}) of each preload.
        self._resident: dict[str, tuple] = {}
        #: (reads, roster, memories, element bits) -> (records, disk
        #: setup and free bytes, context): the contexts
        #: :meth:`planning_context` built, shared with its lanes.
        self._contexts: dict[tuple, tuple] = {}
        #: (modules, bytes each, element bits) -> the free bytes the
        #: preloads leave of those memories; a new dict at each preload.
        self._free: dict[tuple[int, int, int], tuple[int, ...]] = {}

    # -- mutation ----------------------------------------------------------

    def store(self, name: str, relation: Relation) -> None:
        """Place a base relation on the tenant's disk."""
        with self._lock:
            self.disk.store(name, relation)

    def preload(self, name: str, relation: Relation) -> None:
        """Mark a relation memory-resident (ready at time 0) for queries."""
        with self._lock:
            if name in self._preloaded:
                raise PlanError(f"relation {name!r} is already resident")
            self._preloaded[name] = relation
            self._free = {}

    def receive(
        self, pieces: Sequence[tuple[str, Relation]], kept: dict, key: tuple
    ) -> None:
        """Preload ``pieces``, ``(name, relation)`` pairs in order — what
        a sharded query's lane receives after an exchange stage — with
        what ``kept`` holds of them under ``key``: each piece's records
        (``{columns: record}``) under ``(*key, name)``, and the free
        bytes the pieces leave of the memories under ``(*key, names)``,
        beside the free-bytes memo of the preloads they follow.

        Whatever is not there yet is derived by the compiles that read
        it and put there for the next query, so ``kept`` must be
        dropped once a piece under ``key`` may differ from the one that
        filled it: a sharded query keeps it beside the shard snapshot
        (:attr:`~repro.shard.catalog.ShardedSnapshot.received`), whose
        pieces are a pure function of it and the plan."""
        names = tuple([name for name, _ in pieces])
        with self._lock:
            follows = self._free
            for name, relation in pieces:
                self.preload(name, relation)
                self._resident[name] = (
                    relation, kept.setdefault((*key, name), {})
                )
            free = kept.get((*key, names))
            if free is None or free[0] is not follows:
                free = kept[(*key, names)] = (follows, {})
            self._free = free[1]

    def attach_store(self, store: "RelationStore") -> None:
        """Back the tenant's disk with a persistent relation store."""
        with self._lock:
            self.disk.attach_store(store)

    def persist(self, name: str, relation: Relation, **write_kwargs) -> None:
        """Write a relation through to the attached persistent store.

        Unlike :meth:`store` the tuples land on the host filesystem —
        the relation survives process restarts and is read back chunk
        by chunk (with index pruning) at query time.  ``write_kwargs``
        pass through to :meth:`repro.store.RelationStore.write`
        (``chunk_rows``, ``index_columns``).
        """
        with self._lock:
            store = self.disk.backing_store
            if store is None:
                raise PlanError(
                    f"catalog {self.tenant!r} has no persistent store "
                    f"attached; call attach_store first"
                )
            store.write(name, relation, **write_kwargs)

    # -- inspection --------------------------------------------------------

    def names(self) -> list[str]:
        """Every queryable relation name (stored then preloaded)."""
        with self._lock:
            stored = list(self.disk.names())
            return stored + [
                n for n in self._preloaded if n not in set(stored)
            ]

    def relation(self, name: str) -> Relation:
        """Look up a relation by name (preloaded shadows stored)."""
        with self._lock:
            if name in self._preloaded:
                return self._preloaded[name]
            return self.disk.relation(name)

    def preloaded(self) -> list[tuple[str, Relation]]:
        """The memory-resident relations, in preload order."""
        with self._lock:
            return list(self._preloaded.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._preloaded or (
                isinstance(name, str) and self.disk.holds(name)
            )

    def planning_context(
        self,
        reads: Iterable[tuple[str, Sequence[ColumnRef]]],
        devices: Sequence = (),
        memories: tuple[int, int] = (0, 0),
        element_bits: int = 32,
    ) -> PlanningContext:
        """The frozen snapshot a compile plans from, taken under the
        catalog's lock: a record per base relation ``reads`` names (the
        resident relation's, else the disk's :meth:`MachineDisk.record`,
        else None), with the distinct values of the columns it lists
        (:func:`~repro.machine.physical.base_reads`); the disk's model,
        on-track logic and element width; the roster ``devices``; and
        the free bytes of ``memories`` (``(modules, bytes each)``) once
        the preloads are placed.  Nothing else of the catalog is read, so
        a write to a relation outside ``reads`` leaves the snapshot, and
        the plans cached under its fingerprint, alone.

        Each record is kept beside its source (a resident one beside
        the preloaded relation, a stored one on the disk), and the
        context itself — its fingerprint computed once — is handed back
        while every record it holds is the very one a fresh look finds
        and the disk and the memories' free bytes are as they were: a
        warm compile derives no record and no fingerprint.
        """
        reads = tuple(reads)
        key = (reads, tuple(devices), memories, element_bits)
        with self._lock:
            disk, preloaded = self.disk, self._preloaded
            records = []
            for name, columns in reads:
                relation = preloaded.get(name)
                records.append(
                    disk.record(name, columns) if relation is None
                    else self._resident_record(name, relation, columns)
                )
            # What the preloads leave of the memories; without any, the
            # key's ``memories`` say it, and a warm compile skips this.
            placed = (
                self._placed(memories, element_bits) if preloaded else None
            )
            setup = (
                disk, disk.model, disk.logic_per_track, disk.element_bits,
                placed,
            )
            kept = self._contexts.get(key)
            if (
                kept is not None and kept[1] == setup
                and all(map(operator.is_, kept[0], records))
            ):
                return kept[2]
            # Positional: one field a line of the NamedTuple.
            context = PlanningContext(
                {name: record for (name, _), record in zip(reads, records)},
                disk.model, disk.logic_per_track, disk.element_bits,
                tuple(devices),
                (memories[1],) * memories[0] if placed is None else placed,
                element_bits,
            )
            if len(self._contexts) >= CONTEXT_MEMO_SIZE:
                self._contexts.clear()
            self._contexts[key] = (records, setup, context)
            return context

    def _placed(
        self, memories: tuple[int, int], element_bits: int
    ) -> tuple[int, ...]:
        """:func:`preloaded_free_bytes` of the preloads, kept until the
        next preload (in a lane, beside what it received)."""
        key = (*memories, element_bits)
        free = self._free.get(key)
        if free is None:
            free = self._free.setdefault(key, preloaded_free_bytes(
                self._preloaded.items(), *memories, element_bits
            ))
        return free

    def _resident_record(
        self, name: str, relation: Relation, columns: tuple[ColumnRef, ...]
    ) -> BaseRecord:
        """The record of ``relation``, preloaded as ``name``, kept
        beside it while the name holds that very relation."""
        kept = self._resident.get(name)
        if kept is None or kept[0] is not relation:
            kept = self._resident[name] = (relation, {})
        record = kept[1].get(columns)
        if record is None:
            # setdefault: racing lanes that share the records agree on one.
            record = kept[1].setdefault(columns, BaseRecord.of(
                relation, columns, resident=True
            ))
        return record

    def lane(self) -> "Catalog":
        """A catalog for one query: the same disk and a copy of the
        preloads, which the query may add to (a sharded query's
        exchanged relations) without the tenant's other queries seeing
        them.  It starts with this catalog's kept records and shares
        its kept contexts — each checked against its sources on every
        use, and holding no relation — and the free bytes of its
        preloads until it preloads one of its own, so its compiles hit
        what the tenant's earlier queries kept."""
        with self._lock:
            lane = Catalog(tenant=self.tenant, disk=self.disk)
            lane._preloaded = dict(self._preloaded)
            lane._resident = dict(self._resident)
            lane._contexts = self._contexts
            lane._free = self._free
            return lane

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Catalog(tenant={self.tenant!r}, "
                f"{len(self.disk.names())} stored, "
                f"{len(self._preloaded)} resident)"
            )
