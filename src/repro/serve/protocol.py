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

The payload is row-major; the codec is not.  :func:`relation_to_wire`
decodes a relation's matrix a column at a time: each domain maps a
column of codes to an int64 column of its members
(:meth:`~repro.relational.domain.Domain.decode_array`), and the matrix
of members is boxed into rows once.  A domain with a member that is
not a 64-bit int, or a code outside its dictionary, sends the relation
down the value-by-value path, each domain checking a column's codes
once, which also words the error.  :func:`relation_from_wire` encodes
the columns of
each domain together — in row-major order, so a domain meets its
values in the order a row-by-row walk would and assigns the same codes
— into the int64 matrix a :class:`Relation` holds.  An integer past 64
bits in an :class:`IntegerDomain` column is refused before any domain
has changed; rows that are not a rectangle of lists and values a
domain refuses take the row-by-row path, which only words the error:
it names the first offender in row order.
"""

from __future__ import annotations

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
    "decode_line",
    "encode_line",
    "relation_from_wire",
    "relation_to_wire",
]

#: Longest accepted protocol line (a stored relation rides in one line).
MAX_LINE_BYTES = 32 * 1024 * 1024

_INT64 = np.iinfo(np.int64)


def encode_line(payload: dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


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
    schema = relation.schema
    return {
        "columns": [
            [name, domain.name]
            for name, domain in zip(schema.names, schema.domains)
        ],
        "rows": _decoded_rows(relation),
    }


def _decoded_rows(relation: Relation) -> list[list]:
    """The relation's rows as lists of members, decoded a column at a
    time; the matrix is never boxed into tuples."""
    domains = relation.schema.domains
    matrix = relation.array
    members = [
        domain.decode_array(matrix[:, position])
        for position, domain in enumerate(domains)
    ]
    if all(column is not None for column in members):
        # Every member a 64-bit int: one int64 matrix, boxed once.
        return np.stack(members, axis=1).tolist()
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
            # New members, assigned one by one in first-seen order; every
            # value was found hashable and the domain open, so none fails.
            codes = list(map(domain.encode, values))
        matrix[:, positions] = np.reshape(codes, (len(rows), len(positions)))
    return matrix
