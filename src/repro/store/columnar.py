"""The persistent columnar relation store (out-of-core §8 blocks).

The paper's machine assumes base relations arrive from mass storage in
blocks; everywhere else in this repo the disk is a pure *timing* model
over in-memory relations.  This module stores relations for real:

* one directory per relation holding ``chunk-NNNNN.bin`` files —
  column-major little-endian int64, ``chunk_rows`` tuples per chunk
  (the §8 block unit) — plus a ``manifest.json`` describing schema,
  chunk row counts, per-chunk per-column min/max **zone maps**, and an
  optional :class:`~repro.store.grid.GridIndex`;
* a scan reads only the chunks its predicate can match — the machine
  never sees pruned bytes — and each chunk file is read once: the
  process's chunk pool checks its size, loads it whole and keeps the
  block, so a later scan compares and gathers in memory; the scan is
  billed for whole chunks either way;
* set semantics is proved once, at the write: repeated rows are dropped
  before anything is laid out, the manifest records ``"distinct":
  true``, and a read hands its rows to the relation as
  :class:`~repro.relational.relation.DistinctRows` (a manifest without
  the field — an older directory — is checked on every read instead);
* a relation's **digest** is the SHA-256 of its manifest bytes, the
  unit the plan cache's content fingerprint folds in: rewriting a
  relation (new chunking, new index, new data) changes the digest and
  invalidates exactly the plans compiled against the old bytes.

Durability is manifest-last: chunks and manifest are written into a
temporary sibling directory and atomically renamed over the old one, so
a relation is visible iff its manifest parses — a torn write leaves the
previous version (or nothing) in place, never a half relation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import shutil
import tempfile
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigError, StoreError
from repro.obs import metrics
from repro.relational.algebra import COMPARISON_OPS
from repro.relational.domain import Domain, IntegerDomain
from repro.relational.relation import (
    COLUMN_OPS,
    DistinctRows,
    Relation,
    _first_occurrences,
    sorted_distinct_count,
)
from repro.relational.schema import ColumnRef, Schema
from repro.store.grid import (
    GridIndex,
    cell_coords,
    cluster_order,
    sorted_scales,
)

__all__ = [
    "CHUNK_POOL_BYTES",
    "DEFAULT_CHUNK_ROWS",
    "STORE_DIR_ENV",
    "MANIFEST_VERSION",
    "RelationStore",
    "StoredRelation",
    "StoreScan",
    "pool_info",
]

#: Tuples per chunk file — the store's §8 block unit.
DEFAULT_CHUNK_ROWS = 65536

#: Environment variable naming the default store root.
STORE_DIR_ENV = "REPRO_STORE_DIR"

MANIFEST_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")

_ELEMENT_DTYPE = np.dtype("<i8")
_ELEMENT_BYTES = _ELEMENT_DTYPE.itemsize

#: JSON-safe domain value types; anything else fails loudly on write
#: instead of coming back subtly different after a JSON round trip.
_JSON_VALUE_TYPES = (str, int, float, bool, type(None))


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise StoreError(
            f"invalid relation name {name!r}: need a filesystem-safe "
            f"identifier matching {_NAME_RE.pattern}"
        )
    return name


# -- schema (de)serialisation ----------------------------------------------


def _domain_to_json(domain: Domain) -> dict:
    if isinstance(domain, IntegerDomain):
        return {"kind": "integer", "name": domain.name}
    values = list(domain)
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, _JSON_VALUE_TYPES
        ):
            raise StoreError(
                f"domain {domain.name!r} holds {value!r} "
                f"({type(value).__name__}), which does not survive a JSON "
                f"round trip; store only str/int/float/None dictionary values"
            )
    return {
        "kind": "dictionary",
        "name": domain.name,
        "values": values,
        "frozen": domain.frozen,
    }


def _schema_to_json(schema: Schema) -> list[dict]:
    return [
        {"name": column.name, "domain": _domain_to_json(column.domain)}
        for column in schema
    ]


def _schema_from_json(data: list[dict]) -> Schema:
    domains: dict[str, Domain] = {}

    def domain_of(spec: dict) -> Domain:
        name = spec["name"]
        if name in domains:
            return domains[name]
        if spec["kind"] == "integer":
            domain: Domain = IntegerDomain(name)
        elif spec["kind"] == "dictionary":
            domain = Domain(name, spec["values"], frozen=spec["frozen"])
        else:
            raise StoreError(f"unknown domain kind {spec['kind']!r}")
        domains[name] = domain
        return domain

    try:
        return Schema.of(
            *((col["name"], domain_of(col["domain"])) for col in data)
        )
    except (KeyError, TypeError) as exc:
        raise StoreError(f"malformed schema in manifest: {exc}") from exc


# -- scan results ----------------------------------------------------------


@dataclass(frozen=True)
class StoreScan:
    """What one :meth:`StoredRelation.read` touched and produced.

    ``relation`` holds the (predicate-filtered) tuples; the counters
    describe the scan itself — ``rows_scanned`` and ``nbytes`` cover the
    chunks *read*, so a pruned scan bills only the surviving blocks.
    """

    relation: Relation
    chunks_total: int
    chunks_read: int
    rows_scanned: int
    nbytes: int

    @property
    def chunks_pruned(self) -> int:
        return self.chunks_total - self.chunks_read


@dataclass(frozen=True)
class _Chunk:
    file: str
    rows: int
    #: per-column (min, max) zone map.
    stats: tuple[tuple[int, int], ...]
    #: CRC32 of the file's bytes; None in an older manifest, whose
    #: chunks are read unchecked.
    crc32: Optional[int] = None


# -- the chunk pool -------------------------------------------------------

#: Bytes of chunk blocks the process keeps resident.  A constant, not a
#: knob: a scan's answer and its billing never depend on it, only how
#: often a chunk file is read again, so there is nothing to tune per
#: store, per query or per deployment.
CHUNK_POOL_BYTES = 64 << 20

#: Serial numbers of read handles: a handle is one parsed manifest
#: version, and the pool keys its blocks by the serial, never by name or
#: digest, so no other version of the relation is ever served them.
_HANDLE_SERIALS = itertools.count()

#: The chunk id under which the pool keeps a whole relation's matrix.
_WHOLE = None

#: A pool key: (handle serial, chunk id or ``_WHOLE``).
_Key = tuple[int, Optional[int]]


class _ChunkPool:
    """Chunk files read again served from memory: an LRU, within a byte
    budget, of read-only int64 blocks — one chunk's ``(arity, rows)``
    block, or the ``(arity, rows)`` matrix of a whole relation that a
    full scan assembled, which serves its chunks too.

    A miss reads the chunk outside the lock — opened once, its size
    checked, read whole — and builds the block in full before the lock
    admits it, so threads share the pool.  Two threads missing on one
    chunk both read it and the first block stays.  A block larger than
    the whole budget serves its scan and is not kept.

    A block is kept at its second miss, not its first: the first only
    notes the key (the noted keys' blocks together fit the budget).  A
    kept block's memory is fresh, and touching fresh memory costs more
    than the read itself, so a relation read once — a probe after a
    write, a one-off scan — is read into memory the allocator reuses,
    and only what is read again is paid for once and kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._blocks: OrderedDict[_Key, np.ndarray] = OrderedDict()
        self._resident = 0
        #: keys missed once and not kept -> their blocks' bytes.
        self._noted: OrderedDict[_Key, int] = OrderedDict()
        self._noted_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def block(
        self, handle: "StoredRelation", chunk_id: int, admit: bool = True
    ) -> np.ndarray:
        """Chunk ``chunk_id`` of ``handle`` as a read-only block, kept
        for later scans when ``admit`` is set."""
        serial = handle._serial
        with self._lock:
            for key in ((serial, chunk_id), (serial, _WHOLE)):
                block = self._blocks.get(key)
                if block is not None:
                    self._blocks.move_to_end(key)
                    self._hits += 1
                    if key[1] is _WHOLE:
                        block = block[:, handle._span(chunk_id)]
                    return block
            self._misses += 1
        block = np.empty(
            (handle.arity, handle.chunks[chunk_id].rows), dtype=_ELEMENT_DTYPE
        )
        self._load(handle, chunk_id, block)
        block = _frozen(block)
        if admit:
            self._admit((serial, chunk_id), block)
        return block

    def whole(self, handle: "StoredRelation") -> np.ndarray:
        """Every row of ``handle``, in chunk order, as one read-only
        ``(arity, rows)`` matrix: the pooled one, or one assembled from
        the pooled chunks and, for the rest, each chunk file read
        straight into its slice — and then kept in their place."""
        serial = handle._serial
        with self._lock:
            matrix = self._blocks.get((serial, _WHOLE))
            if matrix is not None:
                self._blocks.move_to_end((serial, _WHOLE))
                self._hits += handle.n_chunks
                return matrix
            pooled = [
                self._blocks.get((serial, chunk_id))
                for chunk_id in range(handle.n_chunks)
            ]
            loads = sum(block is None for block in pooled)
            self._hits += len(pooled) - loads
            self._misses += loads
        matrix = np.empty(
            (handle.arity, handle._starts[-1]), dtype=_ELEMENT_DTYPE
        )
        for chunk_id, block in enumerate(pooled):
            out = matrix[:, handle._span(chunk_id)]
            if block is None:
                self._load(handle, chunk_id, out)
            else:
                out[...] = block
        matrix = _frozen(matrix)
        self._admit((serial, _WHOLE), matrix)
        return matrix

    @staticmethod
    def _load(
        handle: "StoredRelation", chunk_id: int, out: np.ndarray
    ) -> None:
        """Read one chunk file whole into ``out`` (``(arity, rows)``, each
        column contiguous), refusing a file of the wrong size or, when
        the manifest records one, of the wrong checksum."""
        with open(handle._chunk_paths[chunk_id], "rb") as file:
            complete = (
                os.fstat(file.fileno()).st_size == out.nbytes
                and all(
                    file.readinto(column) == column.nbytes for column in out
                )
                and not file.read(1)
            )
            if not complete:
                raise handle._torn(
                    chunk_id, os.fstat(file.fileno()).st_size
                )
        expected = handle.chunks[chunk_id].crc32
        if expected is not None and _crc32(out) != expected:
            raise StoreError(
                f"chunk {handle.chunks[chunk_id].file} of {handle.name!r} "
                f"fails its CRC32 check: the file's bytes changed after "
                f"the write"
            )

    def _admit(self, key: _Key, block: np.ndarray) -> None:
        """Keep ``block`` if ``key`` missed before, else note the key."""
        if block.nbytes > self.budget:
            return
        with self._lock:
            if key in self._blocks:
                return
            if key not in self._noted:
                self._noted[key] = block.nbytes
                self._noted_bytes += block.nbytes
                while self._noted_bytes > self.budget:
                    self._noted_bytes -= self._noted.popitem(last=False)[1]
                return
            self._noted_bytes -= self._noted.pop(key)
            if key[1] is _WHOLE:
                # The matrix holds the relation's chunks: drop their blocks.
                self._drop(key[0])
            self._blocks[key] = block
            self._resident += block.nbytes
            while self._resident > self.budget:
                _, oldest = self._blocks.popitem(last=False)
                self._evictions += 1
                self._resident -= oldest.nbytes

    def _drop(self, serial: int) -> None:
        for key in [key for key in self._blocks if key[0] == serial]:
            self._resident -= self._blocks.pop(key).nbytes

    def release(self, handle: "StoredRelation") -> None:
        """Drop ``handle``'s blocks.  (A load in flight may still keep
        one; no later handle has its serial, so the LRU ages it out.)"""
        with self._lock:
            self._drop(handle._serial)

    def info(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "blocks": len(self._blocks),
                "resident_bytes": self._resident,
                "budget_bytes": self.budget,
            }


def _crc32(block: np.ndarray) -> int:
    """CRC32 of an ``(arity, rows)`` block's chunk file: its columns'
    bytes, back to back."""
    crc = 0
    for column in block:
        crc = zlib.crc32(column, crc)
    return crc


def _frozen(block: np.ndarray) -> np.ndarray:
    block = block.astype(np.int64, copy=False)
    block.setflags(write=False)
    return block


_POOL = _ChunkPool(CHUNK_POOL_BYTES)


def pool_info() -> dict[str, int]:
    """The process's chunk pool: ``hits``, ``misses`` (chunk files read
    from disk), ``evictions``, resident ``blocks`` / ``resident_bytes``
    and ``budget_bytes``.  They depend on what the process read before,
    not on the query, so they are reported here and never as metrics."""
    return _POOL.info()


class StoredRelation:
    """A read handle over one on-disk relation (manifest + chunks)."""

    def __init__(self, path: Path, manifest: dict, digest: str) -> None:
        self.path = path
        self.name = manifest["name"]
        self.digest = digest
        self.rows = int(manifest["rows"])
        self.chunk_rows = int(manifest["chunk_rows"])
        self.schema = _schema_from_json(manifest["schema"])
        self.arity = len(self.schema)
        #: each column's distinct values, as the writer counted them
        #: (None where an older manifest does not say).
        self.distinct_counts = tuple(
            _distinct_count(column, self.rows, self.name)
            for column in manifest["schema"]
        )
        self.chunks = tuple(
            _Chunk(
                file=spec["file"],
                rows=int(spec["rows"]),
                stats=tuple(
                    (int(lo), int(hi)) for lo, hi in spec["stats"]
                ),
                crc32=spec.get("crc32"),
            )
            for spec in manifest["chunks"]
        )
        #: resolved once: a handle is re-created when its manifest changes.
        self._chunk_paths = tuple(
            os.path.join(path, chunk.file) for chunk in self.chunks
        )
        #: where each chunk's rows start among the relation's.
        self._starts = tuple(
            itertools.accumulate((chunk.rows for chunk in self.chunks),
                                 initial=0)
        )
        #: the chunk pool's key for this version's blocks.
        self._serial = next(_HANDLE_SERIALS)
        #: did the writer prove the rows distinct?  (Older manifests do
        #: not say, so their rows are checked on every read.)
        self.distinct = manifest.get("distinct") is True
        index = manifest.get("index")
        self.index: Optional[GridIndex] = (
            GridIndex.from_json(index) if index is not None else None
        )

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def distinct_count(self, column: ColumnRef) -> Optional[int]:
        """A column's distinct values as the manifest records them."""
        return self.distinct_counts[self.schema.resolve(column)]

    def _torn(self, chunk_id: int, held: int) -> StoreError:
        chunk = self.chunks[chunk_id]
        return StoreError(
            f"chunk {chunk.file} of {self.name!r} holds "
            f"{held // _ELEMENT_BYTES} elements, manifest says "
            f"{chunk.rows * self.arity}"
        )

    def _span(self, chunk_id: int) -> slice:
        """Chunk ``chunk_id``'s rows among the relation's."""
        return slice(self._starts[chunk_id], self._starts[chunk_id + 1])

    def _read_matching(
        self, chunk_ids: Sequence[int], position: int, op: str, value: int
    ) -> np.ndarray:
        """The rows of the chunks that satisfy ``column op value``, in
        order, as one ``(arity, n)`` matrix: each pooled block's
        predicate column is compared, and the passing rows gathered by
        index into the result.  A scan of more chunk bytes than the
        pool's budget keeps none of its blocks, so it cannot push out
        the hot relations' blocks for ones it would evict itself."""
        compare = COLUMN_OPS[op]
        admit = (
            sum(self.chunks[chunk_id].rows for chunk_id in chunk_ids)
            * self.arity * _ELEMENT_BYTES <= _POOL.budget
        )
        picks = []  # (block, indices of its passing rows)
        for chunk_id in chunk_ids:
            block = _POOL.block(self, chunk_id, admit)
            keep = np.flatnonzero(compare(block[position], value))
            if len(keep):
                picks.append((block, keep))
        total = sum(len(keep) for _, keep in picks)
        columns = np.empty((self.arity, total), dtype=np.int64)
        start = 0
        for block, keep in picks:
            stop = start + len(keep)
            for column, out in zip(block, columns[:, start:stop]):
                # Every index is in range; "clip" spares ``out`` a buffer.
                column.take(keep, out=out, mode="clip")
            start = stop
        return columns

    # -- pruning ------------------------------------------------------------

    def select_chunks(
        self, column: ColumnRef, op: str, value: int
    ) -> list[int]:
        """Chunk ids that can contain rows matching the predicate.

        Grid-directory probe first (when the column is indexed and the
        operator is prunable), then per-chunk zone maps — always a
        superset of the true answer; :meth:`read` re-applies the exact
        predicate on the survivors.
        """
        if op not in COMPARISON_OPS:
            raise StoreError(f"unknown comparison operator {op!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise StoreError(
                f"selection values are encoded integers, got {value!r}"
            )
        position = self.schema.resolve(column)
        metrics.inc("store.index_probes")
        if self.index is not None:
            candidates = self.index.candidate_chunks(position, op, value)
        else:
            candidates = None
        survivors = []
        for chunk_id, chunk in enumerate(self.chunks):
            if candidates is not None and chunk_id not in candidates:
                continue
            lo, hi = chunk.stats[position]
            if _zone_admits(op, value, lo, hi):
                survivors.append(chunk_id)
        return survivors

    # -- reading ------------------------------------------------------------

    def read(
        self,
        selection: Optional[tuple[ColumnRef, str, int]] = None,
    ) -> StoreScan:
        """Scan the relation, pruning chunks when ``selection`` allows.

        Returns a :class:`StoreScan` whose relation holds the matching
        tuples (all tuples when ``selection`` is ``None``); only the
        chunks actually read are counted and billed.  The scan is one
        ``store.read`` span.
        """
        with obs.span("store.read", relation=self.name) as sp:
            if selection is None:
                chunk_ids = range(self.n_chunks)
                columns = _POOL.whole(self)
            else:
                column, op, value = selection
                chunk_ids = self.select_chunks(column, op, value)
                columns = self._read_matching(
                    chunk_ids, self.schema.resolve(column), op, value
                )
            # The scan is billed for the whole chunks it covers, as the
            # disk passes them under the head, whatever it copies of them.
            rows_scanned = sum(self.chunks[i].rows for i in chunk_ids)
            nbytes = rows_scanned * self.arity * _ELEMENT_BYTES
            metrics.inc("store.chunks_read", len(chunk_ids))
            metrics.inc("store.chunks_pruned", self.n_chunks - len(chunk_ids))
            metrics.inc("store.bytes_read", nbytes)
            sp.set(chunks_read=len(chunk_ids), chunks_total=self.n_chunks,
                   rows_scanned=rows_scanned)
            # Rows of a set the writer proved are a set; anything else
            # the constructor checks.
            rows = columns.T
            return StoreScan(
                relation=Relation(
                    self.schema, DistinctRows(rows) if self.distinct else rows
                ),
                chunks_total=self.n_chunks,
                chunks_read=len(chunk_ids),
                rows_scanned=rows_scanned,
                nbytes=nbytes,
            )

    def __repr__(self) -> str:
        indexed = (
            f", grid on {list(self.index.columns)}" if self.index else ""
        )
        return (
            f"StoredRelation({self.name!r}, {self.rows} rows, "
            f"{self.n_chunks} chunks{indexed})"
        )


def _distinct_count(column: dict, rows: int, name: str) -> Optional[int]:
    """A manifest column entry's distinct count, checked: the manifest
    comes from outside, so anything but an int in ``[0, rows]`` is
    refused."""
    count = column.get("distinct")
    if count is None:
        return None
    if isinstance(count, bool) or not isinstance(count, int) or not (
        0 <= count <= rows
    ):
        raise StoreError(
            f"manifest for {name!r} gives column {column.get('name')!r} "
            f"{count!r} distinct values; need an int in [0, {rows}]"
        )
    return count


def _zone_admits(op: str, value: int, lo: int, hi: int) -> bool:
    if op == "==":
        return lo <= value <= hi
    if op == "!=":
        return not (lo == hi == value)
    if op == "<":
        return lo < value
    if op == "<=":
        return lo <= value
    if op == ">":
        return hi > value
    return hi >= value  # ">="


class RelationStore:
    """A directory of persistent relations, one subdirectory each."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get(STORE_DIR_ENV)
        if not root:
            raise ConfigError(
                f"RelationStore needs a root directory: pass one or set "
                f"{STORE_DIR_ENV}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: name -> (manifest mtime_ns / inode / size, handle); reopened
        #: when the manifest changes underneath us.
        self._handles: dict[str, tuple[tuple, StoredRelation]] = {}
        #: held while a relation directory is removed or swapped in, so
        #: two threads writing (or dropping) one name take turns there.
        self._swap_lock = threading.Lock()

    # -- catalogue ----------------------------------------------------------

    def names(self) -> list[str]:
        """Relations with a manifest, sorted.

        Only valid relation names count: a writer killed between its
        manifest write and the rename leaves a ``.tmp-<name>-<random>``
        staging directory behind, which is not a relation.
        """
        return sorted(
            entry.name for entry in self.root.iterdir()
            if self.holds(entry.name)
        )

    def holds(self, name: str) -> bool:
        return (
            isinstance(name, str)
            and _NAME_RE.match(name) is not None
            and (self.root / name / "manifest.json").is_file()
        )

    def drop(self, name: str) -> None:
        """Remove a relation (idempotent)."""
        _check_name(name)
        target = self.root / name
        with self._swap_lock:
            self._forget(name)
            if target.exists():
                shutil.rmtree(target)

    def fingerprint(self) -> tuple[tuple[str, str], ...]:
        """(name, manifest digest) per relation — the plan-cache input."""
        return tuple(
            (name, self.open(name).digest) for name in self.names()
        )

    def verify(self) -> tuple[int, list[str]]:
        """Read every chunk of every stored relation through the chunk
        reader into a scratch block, admitting nothing to the pool.
        Returns the chunks read and one line per failure — a torn or
        CRC-failing chunk, a missing chunk file, an unreadable
        manifest — naming the relation and the chunk.  A manifest that
        records no CRC32 has its chunks checked by size only."""
        chunks, problems = 0, []
        for name in self.names():
            try:
                handle = self.open(name)
            except StoreError as exc:
                problems.append(str(exc))
                continue
            for chunk_id, chunk in enumerate(handle.chunks):
                chunks += 1
                scratch = np.empty((handle.arity, chunk.rows), _ELEMENT_DTYPE)
                try:
                    _ChunkPool._load(handle, chunk_id, scratch)
                except StoreError as exc:
                    problems.append(str(exc))
                except OSError as exc:
                    problems.append(
                        f"chunk {chunk.file} of {name!r} cannot be read: "
                        f"{exc.strerror}"
                    )
        return chunks, problems

    # -- opening ------------------------------------------------------------

    def open(self, name: str) -> StoredRelation:
        _check_name(name)
        handle = self.find(name)
        if handle is None:
            raise StoreError(
                f"no stored relation named {name!r}; have {self.names()}"
            )
        return handle

    def find(self, name: str) -> Optional[StoredRelation]:
        """The read handle for ``name``, or ``None`` when no relation of
        that name is stored: one ``stat`` while the manifest on disk is
        the one last parsed, whoever wrote it."""
        if not isinstance(name, str) or _NAME_RE.match(name) is None:
            return None
        manifest_path = os.path.join(self.root, name, "manifest.json")
        try:
            stat = os.stat(manifest_path)
        except OSError:
            return None
        # A rewrite replaces the file, so even one that lands within the
        # filesystem's timestamp granularity changes the inode.
        version = (stat.st_mtime_ns, stat.st_ino, stat.st_size)
        cached = self._handles.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        raw = Path(manifest_path).read_bytes()
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"corrupt manifest for {name!r}: {exc}"
            ) from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise StoreError(
                f"manifest for {name!r} has version "
                f"{manifest.get('version')!r}, this library reads "
                f"{MANIFEST_VERSION}"
            )
        handle = StoredRelation(
            self.root / name,
            manifest,
            hashlib.sha256(raw).hexdigest(),
        )
        if cached is not None:
            _POOL.release(cached[1])
        self._handles[name] = (version, handle)
        return handle

    def _forget(self, name: str) -> None:
        """Stop serving ``name``'s current handle, and its pooled blocks."""
        cached = self._handles.pop(name, None)
        if cached is not None:
            _POOL.release(cached[1])

    # -- writing ------------------------------------------------------------

    def write(
        self,
        name: str,
        relation: Relation,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        index_columns: Optional[Sequence[ColumnRef]] = None,
    ) -> StoredRelation:
        """Persist a relation, replacing any previous version."""
        return self._write_rows(
            name, relation.array, relation.schema, chunk_rows, index_columns,
            # A Relation is a set already; anything else is searched.
            distinct=isinstance(relation, Relation),
        )

    def write_array(
        self,
        name: str,
        rows: np.ndarray,
        schema: Schema,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        index_columns: Optional[Sequence[ColumnRef]] = None,
    ) -> StoredRelation:
        """Persist an already-encoded ``(n, arity)`` integer array.

        The bulk-load path: generators can hand the store millions of
        rows without building a :class:`Relation` first.  A row equal
        to an earlier one is dropped, as the :class:`Relation`
        constructor would: the manifest, chunks, zone maps and index
        describe the distinct rows.
        """
        array = np.asarray(rows)
        if array.ndim != 2 or array.shape[1] != len(schema):
            raise StoreError(
                f"write_array needs an (n, {len(schema)}) array, got shape "
                f"{array.shape}"
            )
        try:
            array = array.astype(np.int64, casting="safe", copy=False)
        except TypeError as exc:
            raise StoreError(
                f"stored elements must fit int64: {exc}"
            ) from exc
        return self._write_rows(name, array, schema, chunk_rows,
                                index_columns)

    def _write_rows(
        self,
        name: str,
        array: np.ndarray,
        schema: Schema,
        chunk_rows: int,
        index_columns: Optional[Sequence[ColumnRef]],
        distinct: bool = False,
    ) -> StoredRelation:
        _check_name(name)
        if chunk_rows < 1:
            raise StoreError(f"chunk_rows must be >= 1, got {chunk_rows}")
        # Set semantics, proved here once (or carried in by ``distinct``,
        # the rows of a Relation): every read of this manifest carries
        # the result instead of repeating the search.
        first = None if distinct else _first_occurrences(array)
        if first is not None:
            array = array[first]
        n = len(array)
        n_chunks = -(-n // chunk_rows) if n else 0

        if index_columns is None:
            positions = list(range(min(2, len(schema))))
        else:
            positions = schema.resolve_many(index_columns)

        # One column-major copy of the rows: the scales, the cells, the
        # zone maps and the chunk files all read unit-stride rows of it.
        columns = np.ascontiguousarray(array.T, dtype=_ELEMENT_DTYPE)
        # Each column sorted once: its distinct values, and the indexed
        # ones' scales.
        ordered = np.sort(columns, axis=1)
        schema_json = _schema_to_json(schema)
        for entry, values in zip(schema_json, ordered):
            entry["distinct"] = sorted_distinct_count(values)
        index: Optional[GridIndex] = None
        if positions and n:
            cells_per_axis = _cells_per_axis(n_chunks, len(positions))
            indexed = [columns[p] for p in positions]
            scales = [
                sorted_scales(ordered[p], cells_per_axis) for p in positions
            ]
            coords = cell_coords(indexed, scales)
            order = cluster_order(coords)
            # Gathered once into cluster order, each axis's cells with it.
            columns = np.take(columns, order, axis=1)
            coords = np.take(coords.T, order, axis=1).T
            chunk_of_row = np.arange(n) // chunk_rows
            index = GridIndex.build(positions, coords, scales, chunk_of_row)

        staging = Path(tempfile.mkdtemp(prefix=f".tmp-{name}-", dir=self.root))
        try:
            chunks = [
                _write_chunk(
                    staging, chunk_id, columns[:, start:start + chunk_rows]
                )
                for chunk_id, start in enumerate(range(0, n, chunk_rows))
            ]
            manifest = {
                "version": MANIFEST_VERSION,
                "name": name,
                "rows": n,
                "arity": len(schema),
                "chunk_rows": chunk_rows,
                "schema": schema_json,
                "chunks": chunks,
                "distinct": True,
                "index": index.to_json() if index is not None else None,
            }
            (staging / "manifest.json").write_text(
                json.dumps(manifest, indent=1, sort_keys=True) + "\n"
            )
            final = self.root / name
            # The handle returned is the one this write put in place.
            with self._swap_lock:
                if final.exists():
                    shutil.rmtree(final)
                os.replace(staging, final)
                self._forget(name)
                return self.open(name)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    def __repr__(self) -> str:
        return f"RelationStore({str(self.root)!r}, {len(self.names())} relations)"


def _write_chunk(staging: Path, chunk_id: int, block: np.ndarray) -> dict:
    """Write one chunk file — the contiguous rows of an ``(arity, rows)``
    block, back to back — and return its manifest entry, the file's
    CRC32 with it."""
    file = f"chunk-{chunk_id:05d}.bin"
    with open(staging / file, "wb") as out:
        for column in block:
            out.write(column)
    return {
        "file": file,
        "rows": block.shape[1],
        "stats": np.stack((block.min(axis=1), block.max(axis=1)), axis=1)
        .tolist(),
        "crc32": _crc32(block),
    }


def _cells_per_axis(n_chunks: int, ndims: int) -> int:
    """Grid resolution: ≈4 cells per chunk, split evenly over the axes."""
    if n_chunks <= 1:
        return 1
    target = 4 * n_chunks
    per_axis = max(1, round(target ** (1.0 / ndims)))
    return per_axis
