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
        """
        with self._lock:
            disk, preloaded = self.disk, self._preloaded
            bases = {}
            for name, columns in reads:
                relation = preloaded.get(name)
                bases[name] = (
                    disk.record(name, columns) if relation is None
                    else BaseRecord.of(relation, columns, resident=True)
                )
            # Positional: on a plan-cache hit this is most of the work.
            return PlanningContext(
                bases, disk.model, disk.logic_per_track, disk.element_bits,
                tuple(devices),
                preloaded_free_bytes(
                    preloaded.items(), *memories, element_bits
                ),
                element_bits,
            )

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Catalog(tenant={self.tenant!r}, "
                f"{len(self.disk.names())} stored, "
                f"{len(self._preloaded)} resident)"
            )
