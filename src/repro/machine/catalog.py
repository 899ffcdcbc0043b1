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

A catalog's one contribution to a plan-cache key — the machine's, the
pool's and every shard lane's alike — is its
:meth:`~Catalog.content_fingerprint` over the base relations the plans
name.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.errors import PlanError
from repro.machine.disk import MachineDisk
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

    def content_fingerprint(
        self,
        names: Iterable[str],
        columns: Sequence[tuple[str, ColumnRef]] = (),
    ) -> tuple:
        """What the physical planner can read when it compiles plans
        over the base relations ``names``, as a hashable value.

        Covers the disk's timing model and on-track-logic flag, every
        memory-resident relation (they occupy the memories any plan is
        placed around), and for each of ``names`` that is not resident
        its :meth:`MachineDisk.fingerprint` — cardinality, schema and,
        for a store-backed relation, the manifest digest, so rewriting
        stored bytes (new data, chunking, or index) invalidates cached
        plans even at unchanged cardinality; a name the catalog does
        not hold is part of the value too.  ``columns`` are the
        ``(name, column)`` pairs whose distinct counts the planner sizes
        joins from (:func:`~repro.machine.operators.keyed_columns`): each
        count is part of the value — of the resident relation, else of
        the in-memory one, None for a store-backed one — so two tenants
        alike in size but not in their join keys never share a plan.
        Relations outside ``names`` are not looked at: a write to one of
        them leaves the value, and the plans cached under it, alone.

        Two catalogs with equal fingerprints compile any logical plan
        over ``names`` to the same physical plan, which is what lets
        the pool's plan cache be shared *across* tenants.
        """
        with self._lock:
            resident = tuple(
                (name, len(rel), rel.schema.key)
                for name, rel in sorted(self._preloaded.items())
            )
            stored = tuple(
                self.disk.fingerprint(name)
                for name in sorted(set(names))
                if name not in self._preloaded
            )
            counts = tuple(
                (name, column, self.distinct_count(name, column))
                for name, column in columns
            )
            return (
                self.disk.model,
                self.disk.logic_per_track,
                resident,
                stored,
                counts,
            )

    def distinct_count(self, name: str, column: ColumnRef) -> Optional[int]:
        """The distinct values of a column of ``name`` as the planner
        reads them: the resident relation's, else the disk's
        (:meth:`MachineDisk.distinct_count`)."""
        with self._lock:
            relation = self._preloaded.get(name)
            if relation is not None:
                return relation.distinct_count(column)
            return self.disk.distinct_count(name, column)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Catalog(tenant={self.tenant!r}, "
                f"{len(self.disk.names())} stored, "
                f"{len(self._preloaded)} resident)"
            )
