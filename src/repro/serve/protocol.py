"""The wire protocol of ``repro serve``: newline-delimited JSON.

One request per line, one response per line, always a JSON object.
Requests carry ``{"op": <verb>, ...}``; responses carry
``{"ok": true, ...}`` or ``{"ok": false, "error": <message>,
"kind": <exception class name>}``.  The verbs:

========  =============================================================
verb      payload
========  =============================================================
hello     ``tenant`` — bind this connection to a tenant's catalog
store     ``name``, ``relation`` — put a base relation on the disk
preload   ``name``, ``relation`` — mark a relation memory-resident
query     ``expr`` (algebra text), optional ``pipeline``, ``priority``,
          ``timeout`` — compile and run through the pool
stats     — pool snapshot (tenants, per-tenant counts, cache, gate)
ping      — liveness probe
health    — heartbeat: gate occupancy, deadline, fault-plan ledger
bye       — close the connection after acknowledging
========  =============================================================

Relations travel as ``{"columns": [[name, domain], ...], "rows":
[[value, ...], ...]}`` with *decoded* (human) values, so the payload
must be JSON-representable — strings, ints, floats, bools.  Column
domains are resolved through a per-tenant
:data:`~repro.relational.csv_io.DomainRegistry` on the server, so two
relations sent over the wire with same-named domains stay
join/union-compatible, exactly like two CSV files loaded with a shared
registry.

The payload is row-major; the codec is not.  A sender puts the
:class:`Relation` itself in the message — the server's ``query`` reply,
the client's ``store`` and ``preload`` requests — and
:func:`encode_line` writes it.  Each domain maps a column of codes to an
int64 column of its members
(:meth:`~repro.relational.domain.Domain.decode_array`); from that int64
matrix of members the rows writer builds the JSON text of ``"rows"`` in
a few numpy passes — base-10⁴ limbs, 4-byte ASCII groups gathered from a
table, leading zeros blanked, sign, brackets and commas added, the
buffer squeezed once — and splices it into the envelope, which
``json.dumps`` writes as before.  The line is byte for byte
``json.dumps`` of :func:`relation_to_wire`'s payload in the relation's
place.  A relation of fewer than :data:`ROWS_WRITER_MIN_ELEMENTS`
elements is boxed and dumped instead, where that is cheaper
(docs/PERF.md, "wire", has the measurement).  A domain with a member
that is not a 64-bit int, or a code outside its dictionary, sends the
relation down the value-by-value path, each domain checking a column's
codes once, which also words the error.

:func:`relation_from_wire` encodes the columns of each domain
together — in row-major order, so a domain meets its values in the
order a row-by-row walk would and assigns the same codes — into the
int64 matrix a :class:`Relation` holds.  An integer past 64 bits in an
:class:`IntegerDomain` column is refused before any domain has changed;
rows that are not a rectangle of lists and values a domain refuses take
the row-by-row path, which only words the error: it names the first
offender in row order.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Any, Optional

import numpy as np

from repro.errors import DomainError, RelationError, ReproError
from repro.relational.csv_io import DomainRegistry
from repro.relational.domain import Domain
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema

__all__ = [
    "MAX_LINE_BYTES",
    "ROWS_WRITER_MIN_ELEMENTS",
    "decode_line",
    "encode_line",
    "relation_from_wire",
    "relation_to_wire",
]

#: Longest accepted protocol line (a stored relation rides in one line).
MAX_LINE_BYTES = 32 * 1024 * 1024

_INT64 = np.iinfo(np.int64)

#: One encoder for every line: ``json.dumps`` with these separators
#: builds the same encoder on each call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: The rows writer's crossover: a relation with fewer elements (rows ×
#: arity) than this is boxed and handed to ``json.dumps``, whose cost
#: per element is higher but which has no fixed cost to amortize
#: (docs/PERF.md, "wire").
ROWS_WRITER_MIN_ELEMENTS = 160

_LIMB = 10_000
_LIMB_POWERS = [_LIMB**k for k in range(1, 5)]  # 5 limbs hold 2**63


def _word(text: str) -> int:
    """Four ASCII characters as one native-order uint32."""
    return int(np.frombuffer(text.encode("ascii"), dtype=np.uint32)[0])


@functools.cache
def _limb_groups() -> np.ndarray:
    """Limb → its 4 ASCII characters, three tables end to end: a limb
    below a nonzero one (``"0042"``), a leading limb with more to come
    (``"  42"``, blank when zero) and a leading last limb (``"   0"``
    when zero).  Built on the first write, one digit place at a time,
    so that a process that never writes rows does not hold it."""
    limbs = np.arange(_LIMB, dtype=np.uint16)
    groups = np.empty((3, _LIMB, 4), dtype=np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        groups[:, :, place] = limbs // power % 10 + ord("0")
        groups[1:, limbs < power, place] = ord(" ")
    groups[2, 0, -1] = ord("0")
    groups.setflags(write=False)  # one table, shared by every writer
    return groups.view(np.uint32).ravel()


#: Where the leading and the last-limb tables start in ``_limb_groups()``.
_LEADING, _LAST = _LIMB, 2 * _LIMB
#: Prefix words: before the first value, before a row's first value,
#: before any other value; a minus sign adds ``_MINUS``.
_FIRST, _ROW, _COLUMN = _word("  [ "), _word("],[ "), _word("  , ")
_MINUS = _word("   -") - _word("    ")


def encode_line(payload: dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line.

    A :class:`Relation` value at the top level of ``payload`` is written
    in its wire form: the line is ``json.dumps`` of the payload with
    :func:`relation_to_wire` of the relation in its place, byte for
    byte, with the rows written straight from the matrix of members.
    """
    if not any(isinstance(value, Relation) for value in payload.values()):
        return (_ENCODER.encode(payload) + "\n").encode("utf-8")
    fields: dict[str, Any] = {}
    written: dict[str, bytes] = {}
    for key, value in payload.items():
        if isinstance(value, Relation):
            columns = _wire_columns(value)
            members = _decoded_members(value)
            if (isinstance(members, np.ndarray)
                    and members.size >= ROWS_WRITER_MIN_ELEMENTS):
                written[key] = b"".join((
                    b'{"columns":', _ENCODER.encode(columns).encode("utf-8"),
                    b',"rows":', _rows_json(members), b"}",
                ))
            else:
                value = {"columns": columns, "rows": _boxed(members)}
        fields[key] = value
    if not written:
        return (_ENCODER.encode(fields) + "\n").encode("utf-8")
    return b"{" + b",".join(
        _ENCODER.encode(key).encode("utf-8") + b":" + (
            written[key] if key in written
            else _ENCODER.encode(value).encode("utf-8")
        )
        for key, value in fields.items()
    ) + b"}\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line; raises :class:`ReproError` when malformed.

    Oversized lines (> :data:`MAX_LINE_BYTES`) are refused before any
    JSON parsing — the same bound the server's stream reader enforces,
    so a hostile or corrupted peer cannot buffer unbounded input.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ReproError(
                f"protocol line of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte limit"
            )
        line = line.decode("utf-8", errors="replace")
    elif len(line) > MAX_LINE_BYTES:
        raise ReproError(
            f"protocol line of {len(line)} characters exceeds the "
            f"{MAX_LINE_BYTES}-byte limit"
        )
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed protocol line: {exc}") from None
    if not isinstance(payload, dict):
        raise ReproError(
            f"protocol messages are JSON objects, got {type(payload).__name__}"
        )
    return payload


def relation_to_wire(relation: Relation) -> dict[str, Any]:
    """A relation as a JSON-representable payload (decoded values)."""
    return {
        "columns": _wire_columns(relation),
        "rows": _boxed(_decoded_members(relation)),
    }


def _wire_columns(relation: Relation) -> list[list[str]]:
    schema = relation.schema
    return [
        [name, domain.name]
        for name, domain in zip(schema.names, schema.domains)
    ]


def _decoded_members(relation: Relation) -> np.ndarray | list[list]:
    """The relation's rows of members, decoded a column at a time: the
    int64 matrix of members when every member is a 64-bit int, else
    the rows as lists; the matrix is never boxed into tuples."""
    domains = relation.schema.domains
    matrix = relation.array
    members = [
        domain.decode_array(matrix[:, position])
        for position, domain in enumerate(domains)
    ]
    if all(column is not None for column in members):
        return np.stack(members, axis=1)
    try:
        decoded = [
            domain.decode_many(column)
            for domain, column in zip(domains, matrix.T.tolist())
        ]
    except DomainError:
        # Row by row, only to word the error: the first bad code in row
        # order.
        return [list(row) for row in relation.decoded()]
    return list(map(list, zip(*decoded)))


def _boxed(members: np.ndarray | list[list]) -> list[list]:
    return members.tolist() if isinstance(members, np.ndarray) else members


def _rows_json(matrix: np.ndarray) -> bytes:
    """``json.dumps(matrix.tolist(), separators=(",", ":"))`` as ASCII
    bytes, for a non-empty int64 matrix of at least one column.

    Each value is one 4-byte prefix word — the ``],[`` or ``,`` before
    it and its sign, padded with spaces — followed by one 4-byte group
    per base-10⁴ limb of its magnitude, most significant first, as
    many limbs as the largest magnitude needs.  A limb with a nonzero
    limb above it is zero-padded; the leading one is space-padded, and
    a zero limb above the leading one is all spaces.  Squeezing the
    spaces out of the buffer leaves the text.
    """
    rows, arity = matrix.shape
    negative = matrix < 0
    # Two's complement in 64 unsigned bits: -2**63 is 2**63.
    magnitude = matrix.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    top = int(magnitude.max())
    limbs = 1 + sum(top >= power for power in _LIMB_POWERS)
    words = np.empty((rows, arity, 1 + limbs), dtype=np.uint32)
    prefix = words[:, :, 0]
    prefix[:, 1:] = _COLUMN
    prefix[1:, 0] = _ROW
    prefix[0, 0] = _FIRST
    prefix[negative] += _MINUS
    parts = []  # least significant limb first; each below 10**4
    rest = magnitude
    for _ in range(limbs - 1):
        high = rest // _LIMB
        parts.append((rest - high * _LIMB).view(np.int64))
        rest = high
    parts.append(rest.view(np.int64))
    groups = _limb_groups()
    leading = True  # no nonzero limb above this one
    for group, part in enumerate(reversed(parts), start=1):
        padded = _LAST if group == limbs else _LEADING
        words[:, :, group] = groups[part + leading * padded]
        leading = leading & (part == 0)
    return b"[" + words.tobytes().translate(None, b" ") + b"]]"


def relation_from_wire(
    payload: dict[str, Any], registry: DomainRegistry
) -> Relation:
    """Rebuild a relation, resolving domains through ``registry``.

    The registry is keyed by **domain name** and shared per tenant, so
    columns naming the same domain across requests share one encoding
    (and therefore compare equal / join correctly).
    """
    try:
        columns = payload["columns"]
        rows = payload["rows"]
    except (KeyError, TypeError):
        raise ReproError(
            "a wire relation needs 'columns' and 'rows'"
        ) from None
    specs = []
    for entry in columns:
        try:
            name, domain_name = entry
        except (ValueError, TypeError):
            raise ReproError(
                f"wire column must be [name, domain], got {entry!r}"
            ) from None
        domain = registry.get(domain_name)
        if domain is None:
            domain = registry.setdefault(domain_name, Domain(domain_name))
        specs.append(Column(str(name), domain))
    schema = Schema(specs)
    matrix = _encoded_matrix(schema, rows)
    if matrix is not None:
        return Relation(schema, matrix)
    # Anything but a rectangle of values every domain accepts: row by
    # row, which names the first offender in row order.
    return Relation.from_values(schema, [tuple(row) for row in rows])


def _encoded_matrix(schema: Schema, rows: Any) -> Optional[np.ndarray]:
    """``rows`` encoded through the column domains as an int64 matrix,
    or ``None`` — before any domain has changed — when they are not a
    list of ``len(schema)``-element lists or a domain refuses a value.
    A code that does not fit a signed 64-bit word (only an
    :class:`IntegerDomain`, whose members are their codes, can produce
    one) is a :class:`RelationError`, also before any domain changes.

    Codes depend only on the order in which a domain first sees its
    values, so the columns that share a domain are encoded together, in
    row-major order, and the domains one after another.
    """
    arity = len(schema)
    if not (
        rows and type(rows) is list
        and set(map(type, rows)) == {list}
        and set(map(len, rows)) == {arity}
    ):
        return None
    columns = list(zip(*rows))
    groups: dict[int, tuple[Domain, list[int]]] = {}
    for position, domain in enumerate(schema.domains):
        groups.setdefault(id(domain), (domain, []))[1].append(position)
    encoded = []
    try:
        for domain, positions in groups.values():
            values = (
                columns[positions[0]] if len(positions) == 1
                else list(itertools.chain.from_iterable(
                    zip(*(columns[p] for p in positions))
                ))
            )
            codes = domain.lookup_many(values)
            encoded.append((
                domain, positions, values,
                None if None in codes else np.array(codes, dtype=np.int64),
            ))
    except DomainError:
        return None
    except OverflowError:
        wide = next(c for c in codes if not _INT64.min <= c <= _INT64.max)
        raise RelationError(
            f"stored elements must fit a signed 64-bit word; got element "
            f"{wide!r}"
        ) from None
    matrix = np.empty((len(rows), arity), dtype=np.int64)
    for domain, positions, values, codes in encoded:
        if codes is None:
            # New members, assigned in first-seen order; every value was
            # found hashable and the domain open, so none fails.
            codes = domain.encode_many(values)
        matrix[:, positions] = np.reshape(codes, (len(rows), len(positions)))
    return matrix
