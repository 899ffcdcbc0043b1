"""Relations and multi-relations (paper §2.3, §2.5).

A :class:`Relation` is a *set* of tuples; a :class:`MultiRelation`
allows duplicates (the paper's "multi-relation", §2.5 — typically an
intermediate result such as an un-deduplicated projection).  Both store
tuples in their integer-encoded form, exactly as the paper's arrays see
them; decoding back to domain values happens only on demand.

The rows are stored once, as a read-only ``(n, arity)`` int64 matrix
(``.array``) — what the store reads off disk and the engines slice
into blocks.  The constructor turns any iterable of integer tuples into
that matrix on the spot and refuses an element outside a signed 64-bit
word (§2.3 encodes every value into one word; §8's wide tuples are many
columns, never a wider element).  ``.tuples``, iteration and membership
are views boxed on first touch for the pulse oracle and the reference
algebra; each is computed in full and then assigned, so threads sharing
a relation only ever see a finished one.

Tuple order is preserved as given (relations are logically unordered,
but a deterministic iteration order keeps the systolic feeding schedules
and the tests reproducible).

Set semantics is proved once and then carried: ``Relation(schema,
rows)`` drops repeated rows (one sort of the packed keys) for anything
it is handed from outside, while rows that *come from* a proved set —
a row subset of a relation, a stored relation whose writer ran the
proof, a concatenation of pieces the shard planner says are disjoint —
arrive wrapped in the package-internal :class:`DistinctRows` and are
taken as they are.
"""

from __future__ import annotations

import functools
import itertools
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.errors import RelationError, SchemaError
from repro.relational.schema import ColumnRef, Schema

__all__ = ["Relation", "MultiRelation", "EncodedTuple"]

#: A tuple in its stored (integer-encoded) form.
EncodedTuple = tuple[int, ...]

_INT64 = np.iinfo(np.int64)

#: Rows boxed into Python tuples at a time by :attr:`Relation.tuples`.
_BOXING_BLOCK_ROWS = 4096

#: The comparison operators as whole-column ufuncs (package-internal:
#: the store, the disk and the host CPU filter columns with these).
COLUMN_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


#: Packed-key dtypes, narrowest first, with the spans they hold: a key
#: lies in ``[0, span)``, so a signed ``b``-bit integer holds ``2**(b-1)``.
_KEY_DTYPES = tuple(
    (np.dtype(t), 1 << (8 * np.dtype(t).itemsize - 1))
    for t in (np.int8, np.int16, np.int32, np.int64)
)


def _packed_key(array: np.ndarray) -> Optional[np.ndarray]:
    """One integer per row of a non-empty matrix, equal exactly when the
    rows are equal — or ``None`` when the columns' value ranges do not
    fit 63 bits together.

    Each column's offset from its minimum is one mixed-radix digit, so
    a key is its row's rank in the box the columns span (keys order as
    the rows do, lexicographically).  They come in the narrowest signed
    dtype that holds that span: the row comparisons of the engines'
    equality kernel and the sort of :func:`_first_occurrences` then
    move a byte or two a row instead of eight.  Pack the rows of two
    matrices together (``np.concatenate``) to compare across them.
    """
    columns = np.ascontiguousarray(array.T)  # every pass below is unit-stride
    digits = []  # (column, minimum, width) of every non-constant column
    span = 1
    for column, low, high in zip(
        columns, columns.min(axis=1).tolist(), columns.max(axis=1).tolist()
    ):
        # Python ints: the width of a column spanning int64 is 2**64.
        width = high - low + 1
        span *= width
        if span > _KEY_DTYPES[-1][1]:
            return None  # before any arithmetic on the rows
        if width > 1:
            digits.append((column, low, width))
    if not digits:
        return np.zeros(len(array), dtype=_KEY_DTYPES[0][0])
    (column, low, _), *rest = digits
    key = column - low
    for column, low, width in rest:
        # An earlier digit has width >= 2, so width <= 2**62 here: an
        # int64 operand, and no partial key exceeds span - 1.
        key *= width
        key += column - low
    for dtype, holds in _KEY_DTYPES:
        if span <= holds:
            return key.astype(dtype, copy=False)


def _first_occurrences(array: np.ndarray) -> Optional[np.ndarray]:
    """Ascending indices of each distinct row's first occurrence, or
    ``None`` when every row is distinct already (the common case, told
    by one sort of the packed keys)."""
    n = len(array)
    if n < 2:
        return None
    key = _packed_key(array)
    if key is not None:
        ordered = np.sort(key)
        if (ordered[1:] != ordered[:-1]).all():
            return None
        _, first = np.unique(key, return_index=True)
    else:
        # lexsort is stable: equal rows stay in input order, so each
        # run of equal rows starts at its first occurrence.
        order = np.lexsort(array.T[::-1])
        ordered = array[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        if starts.all():
            return None
        first = order[starts]
    first.sort()
    return first


def sorted_distinct_count(ordered: np.ndarray) -> int:
    """How many distinct values an ascending 1-D array holds: one per
    place a value differs from the one before it, plus the first."""
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + (
        len(ordered) > 0
    )


class DistinctRows:
    """An ``(n, arity)`` int64 matrix whose rows are already known to
    be pairwise distinct (package-internal: never exported, never built
    from anything that crossed the process boundary).

    Four facts license one: the rows are a boolean-mask subset of a
    :class:`Relation` (:meth:`where`); they join two relations — sets —
    pair by pair with no pair repeated (§6.2's retrieval,
    :func:`repro.arrays.base.joined_rows`); they were read from a store
    manifest whose writer proved them distinct; or they concatenate
    pieces that the shard planner's ``Distribution`` says share no row.
    The constructor of a relation takes the matrix without the pack +
    sort of :func:`_first_occurrences`; ``tests/conftest.py`` re-runs
    that proof on every claim the suite ever makes.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    @classmethod
    def where(cls, relation: "Relation", mask: np.ndarray) -> "DistinctRows":
        """The rows of ``relation`` under a boolean ``mask``: sub-array
        selection keeps keys unique.  (An integer index could repeat a
        row, and a multi-relation has repeats to begin with.)"""
        if not isinstance(relation, Relation) or mask.dtype != bool:
            raise TypeError(
                "a distinct row subset is a boolean mask over a Relation"
            )
        return cls(relation.array[mask])

    def trusted(self) -> np.ndarray:
        """The matrix, taken at its word — the one place a relation's
        constructor consumes a proof."""
        return self.matrix


class _TupleStore:
    """Shared machinery for relations and multi-relations."""

    #: Subclasses set this: do we reject duplicate tuples?
    _allow_duplicates = False

    def __init__(
        self,
        schema: Schema,
        tuples: Union[Iterable[Sequence[int]], np.ndarray, DistinctRows] = (),
    ) -> None:
        self.schema = schema
        distinct = self._allow_duplicates
        if isinstance(tuples, DistinctRows):
            tuples, distinct = tuples.trusted(), True
        elif not isinstance(tuples, np.ndarray) or tuples.dtype.kind == "O":
            # An ``object`` matrix is rows of Python ints like any other
            # iterable: checked element by element.
            tuples = self._checked_tuples(tuples)
        self._array = self._checked_array(tuples, distinct)

    # -- construction -------------------------------------------------------

    def _checked_tuples(self, items: Iterable[Sequence[int]]) -> np.ndarray:
        """Rows of plain ints as an ``(n, arity)`` int64 matrix."""
        arity = len(self.schema)
        rows = list(map(tuple, items))
        if not rows:
            return np.empty((0, arity), dtype=np.int64)
        if set(map(len, rows)) == {arity} and set(
            map(type, itertools.chain.from_iterable(rows))
        ) == {int}:
            try:
                return np.array(rows, dtype=np.int64)
            except OverflowError:
                pass  # the walk below names the element
        for encoded in rows:
            if len(encoded) != arity:
                raise RelationError(
                    f"tuple arity {len(encoded)} does not match schema arity "
                    f"{arity}: {encoded!r}"
                )
            for element in encoded:
                if isinstance(element, bool) or not isinstance(element, int):
                    raise RelationError(
                        f"stored tuples are integer-encoded; got element "
                        f"{element!r} in {encoded!r}"
                    )
                if not _INT64.min <= element <= _INT64.max:
                    raise RelationError(
                        f"stored elements must fit a signed 64-bit word; "
                        f"got element {element!r} in {encoded!r}"
                    )
        return np.array(rows, dtype=np.int64)

    def _checked_array(self, array: np.ndarray, distinct: bool) -> np.ndarray:
        """A read-only view of an ``(n, arity)`` int64 matrix, minus —
        unless ``distinct`` says there is none to find (proved rows, or
        a multi-relation, which keeps them) — every row that repeats an
        earlier one.

        The buffer is not copied: the caller hands it over and must not
        write to it afterwards.
        """
        arity = len(self.schema)
        if array.ndim != 2 or array.shape[1] != arity:
            raise RelationError(
                f"a columnar relation over {arity} columns needs an "
                f"(n, {arity}) array, got shape {array.shape}"
            )
        if array.dtype != np.int64:
            raise RelationError(
                f"stored tuples are integer-encoded: a columnar relation "
                f"needs an int64 array, got dtype {array.dtype}"
            )
        if not distinct:
            first = _first_occurrences(array)
            if first is not None:
                array = array[first]
        array = array.view()
        array.setflags(write=False)
        return array

    @classmethod
    def from_values(
        cls, schema: Schema, rows: Iterable[Sequence[Hashable]]
    ) -> "_TupleStore":
        """Build from human-readable rows, encoding via the column domains."""
        encoded_rows = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(schema):
                raise RelationError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{len(schema)}: {row!r}"
                )
            encoded_rows.append(
                tuple(
                    column.domain.encode(value)
                    for column, value in zip(schema, row)
                )
            )
        return cls(schema, encoded_rows)

    # -- access --------------------------------------------------------------

    @functools.cached_property
    def tuples(self) -> tuple[EncodedTuple, ...]:
        """The stored (encoded) tuples, in deterministic order."""
        # A block at a time: the list-of-lists form of the whole
        # matrix never exists beside the tuples.
        array = self._array
        return tuple(itertools.chain.from_iterable(
            map(tuple, array[start:start + _BOXING_BLOCK_ROWS].tolist())
            for start in range(0, len(array), _BOXING_BLOCK_ROWS)
        ))

    @property
    def array(self) -> np.ndarray:
        """The stored tuples as a read-only ``(n, arity)`` int64 matrix,
        one row per tuple in :attr:`tuples` order."""
        return self._array

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.tuples)

    @functools.cached_property
    def _distinct_counts(self) -> dict[int, int]:
        return {}

    def distinct_count(self, ref: ColumnRef) -> int:
        """How many distinct values a column holds (System R's
        per-column statistic ``V``), counted once a column."""
        position = self.schema.resolve(ref)
        counts = self._distinct_counts
        if position not in counts:
            counts[position] = sorted_distinct_count(
                np.sort(self._array[:, position])
            )
        return counts[position]

    @property
    def cardinality(self) -> int:
        """Number of stored tuples (``n`` in the paper's notation)."""
        return len(self._array)

    @property
    def arity(self) -> int:
        """Number of elements per tuple (``m`` in the paper's notation)."""
        return len(self.schema)

    def contains(self, item: Sequence[int]) -> bool:
        """Membership test on an encoded tuple."""
        return tuple(item) in self._members

    def decoded(self) -> list[tuple[Hashable, ...]]:
        """All tuples decoded back to domain values."""
        domains = self.schema.domains
        return [
            tuple(domain.decode(code) for domain, code in zip(domains, row))
            for row in self.tuples
        ]

    def column_values(self, ref: ColumnRef) -> list[int]:
        """The encoded values of one column, in tuple order."""
        return self._array[:, self.schema.resolve(ref)].tolist()

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self) -> Iterator[EncodedTuple]:
        return iter(self.tuples)

    def __contains__(self, item: object) -> bool:
        return isinstance(item, tuple) and item in self._members

    def __bool__(self) -> bool:
        return len(self._array) > 0

    def __eq__(self, other: object) -> bool:
        """Set equality for relations, bag equality for multi-relations."""
        if not isinstance(other, _TupleStore):
            return NotImplemented
        if self._allow_duplicates != other._allow_duplicates:
            return NotImplemented
        if not self.schema.union_compatible_with(other.schema):
            return False
        if self._allow_duplicates:
            return sorted(self.tuples) == sorted(other.tuples)
        return self._members == other._members

    def __hash__(self) -> int:
        return hash((self.schema, self._members))

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}({self.schema!r}, {len(self)} tuples)"

    def pretty(self, max_rows: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        headers = list(self.schema.names)
        rows = [[str(v) for v in row] for row in self.decoded()[:max_rows]]
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines += [" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more)")
        return "\n".join(lines)


class Relation(_TupleStore):
    """A set of tuples over a schema (duplicates are dropped on insert).

    ``Relation(schema, rows)`` takes any iterable of integer tuples —
    each element type-checked — or an ``(n, arity)`` int64
    :class:`numpy.ndarray`, whose shape and dtype are checked once and
    which is then held without a copy (do not write to it afterwards).
    Either way a row equal to an earlier one is dropped, the order of
    first occurrences is kept, and an element outside a signed 64-bit
    word is refused.  (Inside the package, rows that come from a proved
    set arrive as :class:`DistinctRows` and skip only the duplicate
    search.)

    The Python set operators delegate to the reference algebra:
    ``a & b`` = intersection (§4), ``a | b`` = union (§5), ``a - b`` =
    difference (§4.3), ``<=``/``>=`` = subset/superset.  These are the
    *software* semantics; for the simulated hardware call the
    ``systolic_*`` runners in :mod:`repro.arrays`.
    """

    _allow_duplicates = False

    def to_multi(self) -> "MultiRelation":
        """View this relation as a multi-relation (the same matrix)."""
        return MultiRelation(self.schema, self._array)

    def __and__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return _algebra().intersection(self, other)

    def __or__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return _algebra().union(self, other)

    def __sub__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return _algebra().difference(self, other)

    def __le__(self, other: "Relation") -> bool:
        """Subset test: every tuple of self appears in other."""
        if not isinstance(other, Relation):
            return NotImplemented
        self.schema.require_union_compatible(other.schema)
        return self._members <= other._members

    def __ge__(self, other: "Relation") -> bool:
        """Superset test."""
        if not isinstance(other, Relation):
            return NotImplemented
        self.schema.require_union_compatible(other.schema)
        return self._members >= other._members


class MultiRelation(_TupleStore):
    """A bag of tuples over a schema (duplicates preserved, §2.5)."""

    _allow_duplicates = True

    def distinct(self) -> Relation:
        """The relation obtained by dropping duplicates (order-preserving).

        This is the *semantic* answer of the paper's remove-duplicates
        array (§5); the array itself lives in
        :mod:`repro.arrays.duplicates`.
        """
        return Relation(self.schema, self._array)

    def concat(self, other: "MultiRelation | Relation") -> "MultiRelation":
        """Bag concatenation ``A + B`` (used to build union, §5)."""
        self.schema.require_union_compatible(other.schema)
        return MultiRelation(
            self.schema, np.concatenate([self._array, other._array])
        )


def select_rows(
    relation: Relation, column: ColumnRef, op: str, value: int
) -> Relation:
    """Selection σ by column mask (package-internal).

    What the machine's disk and host CPU run; deliberately not
    :func:`repro.relational.algebra.select`, the tuple-at-a-time oracle
    the tests hold it against.
    """
    compare = COLUMN_OPS.get(op)
    if compare is None:
        raise SchemaError(f"unknown comparison operator {op!r}")
    keep = compare(
        relation.array[:, relation.schema.resolve(column)], value
    )
    return Relation(relation.schema, DistinctRows.where(relation, keep))


def project_rows(
    relation: Relation | MultiRelation, columns: Sequence[ColumnRef]
) -> MultiRelation:
    """§5's column drop "while the tuples are retrieved", as a column
    slice (package-internal, like :func:`select_rows`; the tuple oracle
    is :func:`repro.relational.algebra.project_multi`)."""
    positions = relation.schema.resolve_many(columns)
    return MultiRelation(
        relation.schema.project(columns), relation.array[:, positions]
    )


def _algebra():
    """Late import: algebra depends on this module."""
    from repro.relational import algebra

    return algebra
