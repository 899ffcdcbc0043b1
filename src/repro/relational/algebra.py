"""Software reference implementations of the paper's relational operators.

These are the "host CPU" versions of every operation the systolic arrays
of §3–§7 compute in hardware.  They serve two purposes:

* **Oracles.**  Every array in :mod:`repro.arrays` is tested against
  these functions on randomized and property-based inputs.
* **Baselines.**  Experiment E14 races the pipelined arrays against a
  sequential processor.  The :class:`ComparisonCounter` instruments the
  nested-loop variants with the same unit of work the paper counts —
  element (and bit) comparisons — so the speed-up arithmetic of §8 can
  be reproduced.

Set-semantics functions return :class:`~repro.relational.relation.Relation`;
bag-producing steps (projection before dedup) return
:class:`~repro.relational.relation.MultiRelation`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import RelationError, SchemaError
from repro.relational.relation import EncodedTuple, MultiRelation, Relation
from repro.relational.schema import ColumnRef, Schema

__all__ = [
    "COMPARISON_OPS",
    "ComparisonCounter",
    "intersection",
    "difference",
    "union",
    "remove_duplicates",
    "project",
    "project_multi",
    "join",
    "equi_join_layout",
    "theta_join",
    "theta_join_layout",
    "division_layout",
    "divide",
    "divide_general",
    "select",
    "semijoin",
    "antijoin",
    "nested_loop_intersection",
    "nested_loop_join",
    "nested_loop_remove_duplicates",
    "nested_loop_divide",
]

#: The binary comparison operators a θ-join cell may be programmed with
#: (§6.3.2: "any sort of binary comparison (e.g. <, >, etc.)").
COMPARISON_OPS: dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class ComparisonCounter:
    """Counts the element comparisons performed by a sequential baseline.

    ``element_comparisons`` counts word-level comparisons; multiplying by
    the element width in bits gives the paper's bit-comparison count
    (§8 does exactly that: 1500 bit comparisons per 1500-bit tuple pair).
    """

    element_comparisons: int = 0
    tuple_comparisons: int = 0
    _element_bits: int = field(default=32, repr=False)

    def compare(self, a: int, b: int) -> bool:
        """One element equality test, counted."""
        self.element_comparisons += 1
        return a == b

    def compare_tuples(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """Short-circuiting tuple equality, counting element work."""
        self.tuple_comparisons += 1
        for x, y in zip(a, b):
            if not self.compare(x, y):
                return False
        return True

    def bit_comparisons(self, element_bits: int | None = None) -> int:
        """Element comparisons scaled to bit comparisons."""
        bits = self._element_bits if element_bits is None else element_bits
        return self.element_comparisons * bits


# ---------------------------------------------------------------------------
# Set-oriented reference implementations (oracles)
# ---------------------------------------------------------------------------


def intersection(a: Relation, b: Relation) -> Relation:
    """``A ∩ B`` over union-compatible relations (§4.1)."""
    a.schema.require_union_compatible(b.schema)
    members = set(b.tuples)
    return Relation(a.schema, (t for t in a.tuples if t in members))


def difference(a: Relation, b: Relation) -> Relation:
    """``A − B`` over union-compatible relations (§4.3)."""
    a.schema.require_union_compatible(b.schema)
    members = set(b.tuples)
    return Relation(a.schema, (t for t in a.tuples if t not in members))


def union(a: Relation, b: Relation) -> Relation:
    """``A ∪ B`` = remove-duplicates(A + B) (§5)."""
    a.schema.require_union_compatible(b.schema)
    return Relation(a.schema, list(a.tuples) + list(b.tuples))


def remove_duplicates(a: MultiRelation) -> Relation:
    """Collapse a multi-relation to a relation, keeping first occurrences.

    Mirrors the array's §5 policy: a tuple is removed iff an *earlier*
    tuple equals it, so the survivor of each duplicate group is the
    first one fed into the array.
    """
    return a.distinct()


def project_multi(a: Relation | MultiRelation, columns: Sequence[ColumnRef]) -> MultiRelation:
    """Column selection *without* dedup — the intermediate of §5.

    This is the multi-relation ``A_f`` the paper constructs "during the
    time when the original tuples are retrieved from storage".
    """
    positions = a.schema.resolve_many(columns)
    new_schema = a.schema.project(columns)
    rows = [tuple(row[i] for i in positions) for row in a.tuples]
    return MultiRelation(new_schema, rows)


def project(a: Relation | MultiRelation, columns: Sequence[ColumnRef]) -> Relation:
    """Projection: column selection followed by duplicate removal (§5)."""
    return project_multi(a, columns).distinct()


def select(
    a: Relation, column: ColumnRef, op: str, value: int
) -> Relation:
    """Simple selection σ — not systolic in the paper, provided for plans."""
    comparison = COMPARISON_OPS.get(op)
    if comparison is None:
        raise SchemaError(f"unknown comparison operator {op!r}")
    position = a.schema.resolve(column)
    return Relation(a.schema, (t for t in a.tuples if comparison(t[position], value)))


#: How many join layouts a schema keeps as the left side (all dropped
#: when full): one per right-hand schema object and column list.
LAYOUT_MEMO_SIZE = 64


def equi_join_layout(
    a: Relation, b: Relation, on: Sequence[tuple[ColumnRef, ColumnRef]]
) -> tuple[tuple[int, ...], tuple[int, ...], Schema, tuple[int, ...]]:
    """Resolve join columns, check domains, build the output schema.

    Returns ``(a_positions, b_positions, schema, b_keep)`` where
    ``b_keep`` lists the positions of B's columns that survive into the
    concatenation (the matching columns of B are dropped — the paper's
    ``|{CA,CB}`` operator keeps a single copy; it follows Codd [1] in
    omitting the redundant column, see footnote 2 of §6.1).

    A layout reads nothing but the two schemas and ``on``, so it is
    resolved once per right-hand schema object and column list and
    kept on the left schema (:attr:`Schema.join_layouts`; the entry
    holds B's schema, so its id is not reused while it lives).
    """
    on = tuple(map(tuple, on))
    layouts = a.schema.join_layouts
    key = (id(b.schema), on)
    kept = layouts.get(key)
    if kept is not None and kept[0] is b.schema:
        return kept[1]
    layout = _equi_join_layout(a.schema, b.schema, on)
    if len(layouts) >= LAYOUT_MEMO_SIZE:
        layouts.clear()
    layouts[key] = (b.schema, layout)
    return layout


def _equi_join_layout(
    a_schema: Schema,
    b_schema: Schema,
    on: tuple[tuple[ColumnRef, ColumnRef], ...],
) -> tuple[tuple[int, ...], tuple[int, ...], Schema, tuple[int, ...]]:
    if not on:
        raise SchemaError("a join requires at least one column pair")
    a_positions = tuple(a_schema.resolve_many([ca for ca, _ in on]))
    b_positions = tuple(b_schema.resolve_many([cb for _, cb in on]))
    for (ca, cb), pa, pb in zip(on, a_positions, b_positions):
        da = a_schema[pa].domain
        db = b_schema[pb].domain
        if da != db:
            raise SchemaError(
                f"join columns {ca!r}/{cb!r} are on different domains "
                f"({da.name!r} vs {db.name!r}); the join is not well-defined"
            )
    dropped = set(b_positions)
    b_keep = tuple(i for i in range(len(b_schema)) if i not in dropped)
    schema = (
        a_schema.concat(b_schema.project(b_keep)) if b_keep else a_schema
    )
    return a_positions, b_positions, schema, b_keep


def join(
    a: Relation, b: Relation, on: Sequence[tuple[ColumnRef, ColumnRef]]
) -> Relation:
    """Equi-join ``A |X|_{CA=CB} B`` (§6.1, §6.3.1).

    ``on`` is a list of ``(column_of_A, column_of_B)`` pairs; the result
    is the concatenation of matching tuples with B's join columns
    removed (one copy of each matched column is kept).
    """
    a_positions, b_positions, schema, b_keep = equi_join_layout(a, b, on)
    index: dict[tuple[int, ...], list[EncodedTuple]] = {}
    for row in b.tuples:
        index.setdefault(tuple(row[i] for i in b_positions), []).append(row)
    out: list[EncodedTuple] = []
    for row in a.tuples:
        key = tuple(row[i] for i in a_positions)
        for match in index.get(key, ()):
            out.append(row + tuple(match[i] for i in b_keep))
    return Relation(schema, out)


def theta_join_layout(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    ops: Sequence[str],
) -> tuple[tuple[int, ...], tuple[int, ...], Schema, tuple[int, ...]]:
    """Resolve θ-join columns and build the output schema.

    Only equality columns are redundant; columns compared with other
    operators are kept from both sides.  Returns the same shape as
    :func:`equi_join_layout`.
    """
    if len(ops) != len(on):
        raise SchemaError(
            f"need one operator per column pair: {len(ops)} ops, {len(on)} pairs"
        )
    for op in ops:
        if op not in COMPARISON_OPS:
            raise SchemaError(f"unknown comparison operator {op!r}")
    a_positions = tuple(a.schema.resolve_many([ca for ca, _ in on]))
    b_positions = tuple(b.schema.resolve_many([cb for _, cb in on]))
    dropped = {pb for pb, op in zip(b_positions, ops) if op == "=="}
    b_keep = tuple(i for i in range(len(b.schema)) if i not in dropped)
    schema = a.schema.concat(b.schema.project(b_keep)) if b_keep else a.schema
    return a_positions, b_positions, schema, b_keep


def theta_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    ops: Sequence[str],
) -> Relation:
    """θ-join: arbitrary binary comparisons per column pair (§6.3.2).

    For non-equality operators both compared columns are kept in the
    output (there is no redundant column to drop); equality columns are
    deduplicated as in :func:`join`.
    """
    a_positions, b_positions, schema, b_keep = theta_join_layout(a, b, on, ops)
    comparisons = [COMPARISON_OPS[op] for op in ops]
    out: list[EncodedTuple] = []
    for row_a in a.tuples:
        for row_b in b.tuples:
            if all(
                fn(row_a[pa], row_b[pb])
                for fn, pa, pb in zip(comparisons, a_positions, b_positions)
            ):
                out.append(row_a + tuple(row_b[i] for i in b_keep))
    return Relation(schema, out)


def division_layout(
    a: Schema,
    b: Schema,
    a_value: ColumnRef = 1,
    a_group: ColumnRef | None = None,
    b_value: ColumnRef = 0,
) -> tuple[int, int, int, Schema]:
    """Resolve division columns, check domains, build the quotient schema.

    Returns ``(group_pos, value_pos, divisor_pos, schema)``: in the
    dividend schema ``a`` the kept column A₁ (``a_group``, default: the
    other of two columns) and the matched column A₂ (``a_value``), in
    ``b`` the divisor column B₁ (``b_value``), and the quotient schema.
    The oracle, the array and every planner resolve a division here.
    """
    value_pos = a.resolve(a_value)
    if a_group is None:
        if len(a) != 2:
            raise SchemaError(
                "a_group may only be omitted for a binary dividend relation"
            )
        group_pos = 1 - value_pos
    else:
        group_pos = a.resolve(a_group)
        if group_pos == value_pos:
            raise SchemaError("a_group and a_value must be different columns")
    divisor_pos = b.resolve(b_value)
    if a[value_pos].domain != b[divisor_pos].domain:
        raise SchemaError(
            f"division columns are on different domains "
            f"({a[value_pos].domain.name!r} vs "
            f"{b[divisor_pos].domain.name!r})"
        )
    return group_pos, value_pos, divisor_pos, a.project([group_pos])


def divide(
    a: Relation,
    b: Relation,
    a_value: ColumnRef = 1,
    a_group: ColumnRef | None = None,
    b_value: ColumnRef = 0,
) -> Relation:
    """Relational division ``A ÷ B`` (§7).

    In the paper's restricted case A is binary with columns (A₁, A₂) and
    B unary with column B₁; ``x`` appears in the quotient iff ``(x, y)``
    is in A for *every* ``y`` in B₁.  Here ``a_group`` is the kept
    column (A₁, default: the other column of a binary A), ``a_value``
    the matched column (A₂), ``b_value`` the divisor column.
    """
    group_pos, value_pos, divisor_pos, quotient_schema = division_layout(
        a.schema, b.schema, a_value, a_group, b_value
    )
    required = {row[divisor_pos] for row in b.tuples}
    images: dict[int, set[int]] = {}
    order: list[int] = []
    for row in a.tuples:
        x = row[group_pos]
        if x not in images:
            images[x] = set()
            order.append(x)
        images[x].add(row[value_pos])
    members = [(x,) for x in order if required <= images[x]]
    return Relation(quotient_schema, members)


# ---------------------------------------------------------------------------
# Instrumented nested-loop baselines (the sequential processor of E14)
# ---------------------------------------------------------------------------


def nested_loop_intersection(
    a: Relation, b: Relation, counter: ComparisonCounter
) -> Relation:
    """Intersection by exhaustive pairwise comparison, counting work.

    This performs the same ``|A|·|B|`` tuple comparisons the array does
    (no hashing, no short-circuit across pairs) so its comparison count
    matches the paper's §8 arithmetic exactly when short-circuiting
    within a tuple is disabled by equal tuples.
    """
    a.schema.require_union_compatible(b.schema)
    out = []
    for row_a in a.tuples:
        member = False
        for row_b in b.tuples:
            if counter.compare_tuples(row_a, row_b):
                member = True
        if member:
            out.append(row_a)
    return Relation(a.schema, out)


def nested_loop_join(
    a: Relation,
    b: Relation,
    on: Sequence[tuple[ColumnRef, ColumnRef]],
    counter: ComparisonCounter,
) -> Relation:
    """Equi-join by exhaustive pairwise comparison, counting work."""
    a_positions, b_positions, schema, b_keep = equi_join_layout(a, b, on)
    out = []
    for row_a in a.tuples:
        for row_b in b.tuples:
            counter.tuple_comparisons += 1
            if all(
                counter.compare(row_a[pa], row_b[pb])
                for pa, pb in zip(a_positions, b_positions)
            ):
                out.append(row_a + tuple(row_b[i] for i in b_keep))
    return Relation(schema, out)


def nested_loop_remove_duplicates(
    a: MultiRelation, counter: ComparisonCounter
) -> Relation:
    """Dedup by comparing each tuple to all earlier ones, counting work."""
    kept: list[EncodedTuple] = []
    for row in a.tuples:
        duplicate = False
        for earlier in kept:
            if counter.compare_tuples(row, earlier):
                duplicate = True
        if not duplicate:
            kept.append(row)
    return Relation(a.schema, kept)


def nested_loop_divide(
    a: Relation, b: Relation, counter: ComparisonCounter
) -> Relation:
    """Division (binary ÷ unary) by exhaustive scanning, counting work."""
    if len(a.schema) != 2 or len(b.schema) != 1:
        raise RelationError(
            "nested_loop_divide implements the paper's restricted case: "
            "two-column dividend, one-column divisor"
        )
    if a.schema[1].domain != b.schema[0].domain:
        raise SchemaError("division columns are on different domains")
    order: list[int] = []
    seen: set[int] = set()
    for row in a.tuples:
        if row[0] not in seen:
            seen.add(row[0])
            order.append(row[0])
    out = []
    for x in order:
        covers_all = True
        for (y,) in b.tuples:
            found = False
            for row in a.tuples:
                if counter.compare(row[0], x) and counter.compare(row[1], y):
                    found = True
            if not found:
                covers_all = False
        if covers_all:
            out.append((x,))
    return Relation(a.schema.project([0]), out)


def divide_general(
    a: Relation,
    b: Relation,
    a_group: Sequence[ColumnRef],
    a_value: Sequence[ColumnRef],
    b_value: Sequence[ColumnRef] | None = None,
) -> Relation:
    """Division over column *lists* — §7's general case.

    "The extension from this to the general case is straightforward
    (as in the preceding section on the join)": group and value may
    each span several columns.  ``x`` (a group-column combination)
    belongs to the quotient iff it is paired in A with *every*
    value-column combination appearing in B.
    """
    if not a_group or not a_value:
        raise SchemaError("division needs non-empty group and value column lists")
    group_pos = a.schema.resolve_many(list(a_group))
    value_pos = a.schema.resolve_many(list(a_value))
    if set(group_pos) & set(value_pos):
        raise SchemaError("group and value column lists must be disjoint")
    if b_value is None:
        b_value = list(range(len(b.schema)))
    divisor_pos = b.schema.resolve_many(list(b_value))
    if len(divisor_pos) != len(value_pos):
        raise SchemaError(
            f"value/divisor column counts differ: {len(value_pos)} vs "
            f"{len(divisor_pos)}"
        )
    for pa, pb in zip(value_pos, divisor_pos):
        if a.schema[pa].domain != b.schema[pb].domain:
            raise SchemaError(
                f"division columns {pa}/{pb} are on different domains"
            )
    required = {tuple(row[p] for p in divisor_pos) for row in b.tuples}
    images: dict[EncodedTuple, set[EncodedTuple]] = {}
    order: list[EncodedTuple] = []
    for row in a.tuples:
        x = tuple(row[p] for p in group_pos)
        if x not in images:
            images[x] = set()
            order.append(x)
        images[x].add(tuple(row[p] for p in value_pos))
    quotient_schema = a.schema.project(list(a_group))
    return Relation(
        quotient_schema, (x for x in order if required <= images[x])
    )


def semijoin(
    a: Relation, b: Relation, on: Sequence[tuple[ColumnRef, ColumnRef]]
) -> Relation:
    """Semi-join ``A ⋉ B``: tuples of A with a join partner in B.

    Not named in the paper, but it *is* the §4 membership test applied
    to the join columns instead of whole tuples — the same hardware
    with projected feeds.
    """
    a_positions, b_positions, _, _ = equi_join_layout(a, b, on)
    keys = {tuple(row[p] for p in b_positions) for row in b.tuples}
    return Relation(
        a.schema,
        (row for row in a.tuples
         if tuple(row[p] for p in a_positions) in keys),
    )


def antijoin(
    a: Relation, b: Relation, on: Sequence[tuple[ColumnRef, ColumnRef]]
) -> Relation:
    """Anti-join ``A ▷ B``: tuples of A with *no* join partner in B.

    The §4.3 inverter applied to the semi-join bit.
    """
    a_positions, b_positions, _, _ = equi_join_layout(a, b, on)
    keys = {tuple(row[p] for p in b_positions) for row in b.tuples}
    return Relation(
        a.schema,
        (row for row in a.tuples
         if tuple(row[p] for p in a_positions) not in keys),
    )
