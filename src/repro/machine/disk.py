"""Mass storage for the integrated system (Fig 9-1, §9).

Base relations live on a moving-head disk (the §8 model: whole-cylinder
reads at rotation rate).  "Disks with 'logic-per-track' capabilities
[8] can of course be incorporated into the system, so that some simple
queries never have to be processed outside the disks" — with
``logic_per_track=True``, a selection predicate is applied *during* the
read at no extra cost and only matching tuples leave the disk.

A :class:`~repro.store.RelationStore` may be attached to back the disk
with real out-of-core storage: store-resident relations are read chunk
by chunk, and a selection prunes chunks through the store's zone maps
before any byte moves — the read is billed only for the surviving
chunks' tuples under this disk's timing model.  A store-backed
selection behaves like logic-per-track (the predicate rides the read)
regardless of the ``logic_per_track`` flag, because the store applies
it while scanning anyway.

In-memory relations get a cylinder layout when they are written
(:meth:`MachineDisk.store`): in write order, first-fit, a relation of at
most one cylinder whole into the first cylinder with room, a larger one
onto whole fresh cylinders.  The planner reads the loads of one release
time that lie on one cylinder in one sweep of one revolution
(:func:`~repro.perf.disk.disk_sweep`).  Store-backed relations are not
placed; each is read alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import PlanError
from repro.machine.physical import BaseRecord
from repro.obs import metrics
from repro.perf.disk import DiskModel, PAPER_DISK
from repro.relational.relation import COLUMN_OPS, Relation, select_rows
from repro.relational.schema import ColumnRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.store import RelationStore, StoredRelation

__all__ = ["MachineDisk"]


class MachineDisk:
    """A disk holding the machine's base relations."""

    def __init__(
        self,
        model: DiskModel = PAPER_DISK,
        logic_per_track: bool = False,
        element_bits: int = 32,
    ) -> None:
        self.model = model
        self.logic_per_track = logic_per_track
        self.element_bits = element_bits
        self._catalog: dict[str, Relation] = {}
        self._store: Optional["RelationStore"] = None
        #: name -> (first cylinder, cylinders, bytes) of each in-memory
        #: relation, fixed when it is written.
        self._extents: dict[str, tuple[int, int, int]] = {}
        #: bytes taken on each cylinder so far.
        self._used: list[int] = []
        #: name -> (source, cylinder, {columns: record}): the planning
        #: records of :meth:`record`, kept while the source is the same.
        self._records: dict[str, tuple] = {}

    # -- catalog --------------------------------------------------------------

    def store(self, name: str, relation: Relation) -> None:
        """Write (or overwrite) a base relation (in-memory population)."""
        if not name:
            raise PlanError("a stored relation requires a name")
        self._free(name)
        # Only to let go of the old relation: a kept record is checked
        # against its source on every read, whoever writes.
        self._records.pop(name, None)
        self._extents[name] = self._place(
            self._tuple_bytes(len(relation), relation.arity)
        )
        self._catalog[name] = relation

    # -- layout ----------------------------------------------------------------

    def _place(self, nbytes: int) -> tuple[int, int, int]:
        """The extent a relation of ``nbytes`` takes, first-fit: whole
        into the first cylinder with room when it fits one, else the
        first run of fresh cylinders (its last one taken whole)."""
        size = self.model.cylinder_bytes
        used = self._used
        count = self.model.cylinders(nbytes)
        if count <= 1:
            first = next(
                (i for i, taken in enumerate(used) if taken + nbytes <= size),
                len(used),
            )
            if first == len(used):
                used.append(0)
            used[first] += nbytes
            return first, count, nbytes
        run = 0  # empty cylinders in a row so far
        for index, taken in enumerate(used):
            run = run + 1 if taken == 0 else 0
            if run == count:
                first = index + 1 - count
                break
        else:  # the run goes on past the last cylinder used
            first = len(used) - run
        if first + count > len(used):
            used.extend([0] * (first + count - len(used)))
        used[first:first + count] = [size] * count
        return first, count, nbytes

    def _free(self, name: str) -> None:
        """Give back the extent an overwritten relation held (its entry
        stays until the new extent replaces it)."""
        extent = self._extents.get(name)
        if extent is None:
            return
        first, count, nbytes = extent
        if count <= 1:
            self._used[first] -= nbytes
        else:
            self._used[first:first + count] = [0] * count

    def cylinder(self, name: str) -> Optional[int]:
        """The cylinder an in-memory relation lies on, when it lies on
        exactly one; None for a relation of no bytes or of more than a
        cylinder, a store-backed one (not placed) or a name this disk
        does not hold."""
        extent = self._extents.get(name)
        if extent is None or extent[1] != 1:
            return None
        return extent[0]

    def attach_store(self, store: "RelationStore") -> None:
        """Back this disk with a persistent columnar relation store.

        Store-resident relations become queryable by name; an in-memory
        :meth:`store` under the same name shadows the persistent copy.
        """
        self._store = store

    @property
    def backing_store(self) -> Optional["RelationStore"]:
        """The attached :class:`~repro.store.RelationStore`, if any."""
        return self._store

    def names(self) -> list[str]:
        """Names of stored relations (in-memory and store-backed)."""
        known = set(self._catalog)
        if self._store is not None:
            known.update(self._store.names())
        return sorted(known)

    def holds(self, name: str) -> bool:
        """Whether a base relation exists."""
        return name in self._catalog or (
            self._store is not None and self._store.holds(name)
        )

    def handle(self, name: str) -> Optional["StoredRelation"]:
        """The store's read handle when reads of ``name`` stream from the
        persistent store, else ``None``: one manifest ``stat``."""
        if name in self._catalog or self._store is None:
            return None
        return self._store.find(name)

    def relation(self, name: str) -> Relation:
        """The stored relation itself, without modelling a timed read:
        :meth:`read` remains the only way data *moves* off the disk.
        For store-backed relations this materialises every chunk — the
        planner sizes them from :meth:`record`."""
        try:
            return self._catalog[name]
        except KeyError:
            handle = self.handle(name)
            if handle is not None:
                return handle.read().relation
            raise PlanError(
                f"no base relation named {name!r}; have {self.names()}"
            ) from None

    def _tuple_bytes(self, rows: int, arity: int) -> int:
        """On-disk size of ``rows`` tuples under this disk's element width."""
        return rows * arity * ((self.element_bits + 7) // 8)

    def record(
        self, name: str, columns: Sequence[ColumnRef] = ()
    ) -> Optional[BaseRecord]:
        """What the physical planner reads of ``name`` here, with the
        distinct values of ``columns`` (counted once a column for an
        in-memory relation; for a store-backed one, what its manifest
        recorded at the write, None where an older one does not say).
        The cylinder is an index, not a byte offset, so tenants laid out
        alike share plans.  None when this disk holds no such relation.
        Costs one ``stat`` for a store-backed relation whose manifest
        has not changed.

        A record is built once and kept beside its source — the stored
        :class:`Relation` and the cylinder it lies on, or the store's
        read handle — and handed back while the disk holds that very
        source there.  An overwrite, a re-store that moves the relation,
        or a rewrite of the store (whoever wrote it) puts another source
        in its place, and the next call builds the record anew; nothing
        has to clear the memo, so a reader racing a writer under another
        lock reads a record of what it found or builds one.
        """
        columns = tuple(columns)
        relation = self._catalog.get(name)
        if relation is not None:
            first, count, _ = self._extents[name]
            source, cylinder = relation, first if count == 1 else None
        else:
            source, cylinder = self.handle(name), None
            if source is None:
                return None
        kept = self._records.get(name)
        if kept is None or kept[0] is not source or kept[1] != cylinder:
            kept = self._records[name] = (source, cylinder, {})
        record = kept[2].get(columns)
        if record is None:
            record = kept[2][columns] = (
                BaseRecord.of(relation, columns, False, cylinder)
                if relation is not None
                else BaseRecord(
                    source.rows, source.schema,
                    distinct=tuple(
                        (column, source.distinct_count(column))
                        for column in columns
                    ),
                    handle=source,
                )
            )
        return record

    # -- reading ---------------------------------------------------------------

    def read(
        self,
        name: str,
        selection: Optional[tuple[ColumnRef, str, int]] = None,
    ) -> tuple[Relation, float]:
        """Stream a base relation off the disk; returns (relation, seconds).

        The read time covers the *full* stored relation (every tuple
        passes under the head) — unless the relation is store-backed,
        in which case a selection prunes chunks via the zone maps and
        only the surviving chunks' tuples are billed.  With
        logic-per-track, ``selection`` — a ``(column, op, value)``
        predicate — filters tuples on the fly; without either, a
        selection here is an error (route it to the CPU instead).
        """
        handle = self.handle(name)
        if handle is not None:
            scan = handle.read(selection)
            metrics.inc("machine.disk.reads")
            seconds = self.model.read_seconds(
                self._tuple_bytes(scan.rows_scanned, scan.relation.arity)
            )
            return scan.relation, seconds
        try:
            relation = self._catalog[name]
        except KeyError:
            raise PlanError(
                f"no base relation named {name!r}; have {self.names()}"
            ) from None
        metrics.inc("machine.disk.reads")
        seconds = self.model.read_seconds(
            self._tuple_bytes(len(relation), relation.arity)
        )
        if selection is None:
            return relation, seconds
        if not self.logic_per_track:
            raise PlanError(
                "selection during read requires a logic-per-track disk "
                "(§9, ref [8]) or a store-backed relation; this disk has "
                "neither"
            )
        column, op, value = selection
        if op not in COLUMN_OPS:
            raise PlanError(f"unknown comparison operator {op!r}")
        return select_rows(relation, column, op, value), seconds

    def __repr__(self) -> str:
        track = "logic-per-track, " if self.logic_per_track else ""
        backed = (
            f" + store({len(self._store.names())})"
            if self._store is not None else ""
        )
        return f"MachineDisk({track}{len(self._catalog)} relations{backed})"
