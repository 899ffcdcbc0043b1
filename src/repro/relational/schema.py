"""Schemas, columns, and the union-compatibility test of paper §2.4.

A :class:`Schema` is an ordered sequence of named :class:`Column`\\ s,
each tied to a :class:`~repro.relational.domain.Domain`.  Two relations
are *union-compatible* when they have the same number of columns and
corresponding columns are drawn from the same underlying domain; column
*names* are presentation only and do not affect compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import SchemaError, UnionCompatibilityError
from repro.relational.domain import Domain

__all__ = ["Column", "Schema", "ColumnRef"]

#: Columns may be referenced by zero-based position or by name.
ColumnRef = Union[int, str]


@dataclass(frozen=True)
class Column:
    """A named column bound to a domain."""

    name: str
    domain: Domain

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("a column requires a non-empty name")

    def __repr__(self) -> str:
        return f"Column({self.name!r}, domain={self.domain.name!r})"


class Schema:
    """An ordered, immutable list of columns.

    Column names must be unique within a schema so that name-based
    references (:data:`ColumnRef`) are unambiguous.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns = tuple(columns)
        if not self._columns:
            raise SchemaError("a schema requires at least one column")
        names = [c.name for c in self._columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names in schema: {dupes}")
        self._index = {c.name: i for i, c in enumerate(self._columns)}

    @classmethod
    def of(cls, *specs: tuple[str, Domain]) -> "Schema":
        """Build a schema from ``(name, domain)`` pairs."""
        return cls(Column(name, domain) for name, domain in specs)

    # -- column resolution -------------------------------------------------

    def resolve(self, ref: ColumnRef) -> int:
        """Map a column reference (index or name) to its position."""
        if isinstance(ref, bool):
            raise SchemaError(f"invalid column reference {ref!r}")
        if isinstance(ref, int):
            if -len(self._columns) <= ref < len(self._columns):
                return ref % len(self._columns)
            raise SchemaError(
                f"column index {ref} out of range for {len(self._columns)} columns"
            )
        if isinstance(ref, str):
            try:
                return self._index[ref]
            except KeyError:
                raise SchemaError(
                    f"no column named {ref!r}; have {list(self._index)}"
                ) from None
        raise SchemaError(f"invalid column reference {ref!r}")

    def resolve_many(self, refs: Sequence[ColumnRef]) -> list[int]:
        """Resolve several references, rejecting duplicates."""
        positions = [self.resolve(r) for r in refs]
        if len(set(positions)) != len(positions):
            raise SchemaError(f"duplicate columns in reference list {list(refs)}")
        return positions

    def column(self, ref: ColumnRef) -> Column:
        """Return the column for a reference."""
        return self._columns[self.resolve(ref)]

    def project(self, refs: Sequence[ColumnRef]) -> "Schema":
        """Schema of the projection onto ``refs`` (order preserved)."""
        return Schema(self._columns[i] for i in self.resolve_many(refs))

    def drop(self, ref: ColumnRef) -> "Schema":
        """Schema with one column removed."""
        keep = self.resolve(ref)
        remaining = [c for i, c in enumerate(self._columns) if i != keep]
        if not remaining:
            raise SchemaError("cannot drop the only column of a schema")
        return Schema(remaining)

    def concat(self, other: "Schema", rename: bool = True) -> "Schema":
        """Schema of the concatenation of two tuples (used by join).

        When ``rename`` is true, clashing names from ``other`` get a
        ``_2`` suffix (repeated until unique), mirroring common SQL
        behaviour for ``A.x`` / ``B.x`` collisions.
        """
        taken = {c.name for c in self._columns}
        new_columns = list(self._columns)
        for column in other:
            name = column.name
            if rename:
                while name in taken:
                    name += "_2"
            new_columns.append(Column(name, column.domain))
            taken.add(name)
        return Schema(new_columns)

    # -- compatibility -----------------------------------------------------

    def union_compatible_with(self, other: "Schema") -> bool:
        """Paper §2.4: same arity and same domains column-by-column."""
        if len(self) != len(other):
            return False
        return all(a.domain == b.domain for a, b in zip(self, other))

    def require_union_compatible(self, other: "Schema") -> None:
        """Raise :class:`UnionCompatibilityError` unless compatible."""
        if len(self) != len(other):
            raise UnionCompatibilityError(
                f"arity mismatch: {len(self)} columns vs {len(other)}"
            )
        for position, (a, b) in enumerate(zip(self, other)):
            if a.domain != b.domain:
                raise UnionCompatibilityError(
                    f"column {position}: domain {a.domain.name!r} vs "
                    f"{b.domain.name!r} — not the same underlying domain"
                )

    # -- container protocol --------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Column names, in order."""
        return tuple(c.name for c in self._columns)

    @property
    def domains(self) -> tuple[Domain, ...]:
        """Column domains, in order."""
        return tuple(c.domain for c in self._columns)

    @cached_property
    def join_layouts(self) -> dict:
        """Join layouts resolved with this schema as the left side
        (:func:`repro.relational.algebra.equi_join_layout`), kept here
        because a schema is immutable."""
        return {}

    @cached_property
    def key(self) -> tuple[tuple[str, str], ...]:
        """The schema as a hashable value — column and domain names —
        as the plan cache sees it.  Computed once: a schema is
        immutable."""
        return tuple((c.name, c.domain.name) for c in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, position: int) -> Column:
        return self._columns[position]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Schema):
            return self._columns == other._columns
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.domain.name}" for c in self._columns)
        return f"Schema({cols})"
