"""The operator table: what each plan-node type is, stated once.

In the paper every relational operation is one device box of Fig 9-1
with one §8 cost law.  Here each plan-node type has one
:class:`Operator` row, and every layer that runs, prices or types a
node reads it through :func:`operator_of`: the reference evaluator
(:mod:`repro.lang.compile`), the device (:mod:`repro.machine.device`),
the cost model and the physical planner (:mod:`repro.machine.physical`)
and the static inference below.  Which device box runs a node is not
repeated here: the node class states it
(:attr:`~repro.machine.plan.PlanNode.device_kind`).  A row's callables
take the node first and then one argument per child, left to right —
its input relations, schemas or row estimates.

:func:`infer_schema` and :func:`estimate_rows` tell the planners what a
plan produces before it runs: exact schemas (the executing algebra's
layouts, applied to empty relations) and System-R-style cardinalities
(selections keep a third, joins stay near the larger input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.arrays import (
    systolic_difference,
    systolic_divide,
    systolic_intersection,
    systolic_join,
    systolic_projection,
    systolic_remove_duplicates,
    systolic_theta_join,
    systolic_union,
)
from repro.errors import PlanError
from repro.machine.plan import (
    Base,
    Dedup,
    Difference,
    Divide,
    Intersect,
    Join,
    PlanNode,
    Project,
    Select,
    Union,
    walk,
)
from repro.perf.cost import OpCost, division_cost, join_cost
from repro.relational import algebra
from repro.relational.relation import Relation, project_rows
from repro.relational.schema import ColumnRef, Schema
from repro.systolic.engine.schedule import VARIANTS

__all__ = [
    "Operator", "OPERATORS", "operator_of", "infer_schema", "estimate_rows",
    "keyed_columns", "keyed_join_rows", "SELECTIVITY",
]

#: Fraction of tuples a selection is assumed to keep (System R's 1/3).
SELECTIVITY = 1 / 3


@dataclass(frozen=True)
class Operator:
    """One plan-node type, for every layer that runs, prices or types it."""

    #: the software oracle over :mod:`repro.relational.algebra`:
    #: ``(node, *inputs) → Relation``
    software: Callable[..., Relation]
    #: the whole-array runner of :mod:`repro.arrays`:
    #: ``(node, *inputs, backend=) → Relation``
    whole: Callable[..., Relation]
    #: the exact output schema: ``(node, *child schemas) → Schema``
    schema: Callable[..., Schema]
    #: the estimated output cardinality: ``(node, *child rows) → int``
    rows: Callable[..., int]
    #: the blocked runner's name in :mod:`repro.machine.device`; None
    #: for an operation that is not an array operation
    blocked: Optional[str] = None
    #: the blocked runner's operands: ``(node, *inputs) → (arguments
    #: before the capacity, keyword arguments)``
    operands: Callable[..., tuple] = lambda node, *inputs: (inputs, {})
    #: the streamed column width:
    #: ``(node, arity of the first input) → columns``
    columns: Callable[[PlanNode, int], int] = lambda node, arity: arity
    #: the §8 comparison shape, ``(n_a, n_b) → (rows of A, rows of B)``
    #: the intersection array meets; None when ``law`` prices it
    comparison: Optional[Callable[[int, int], tuple[int, int]]] = None
    #: the §8 cost law of any other array operation:
    #: ``(n_a, n_b, columns, max_rows, max_cols, variant) → OpCost``
    law: Optional[Callable[..., OpCost]] = None
    #: the exact cost over the actual inputs, where the law needs a
    #: count only the data holds:
    #: ``(node, inputs, max_rows, max_cols) → OpCost``
    exact_cost: Optional[Callable[..., OpCost]] = None
    #: the column pairs a join matches by equality, ``node → ((column
    #: of A, column of B), ...)``: where the planner knows the base
    #: relations' distinct counts of them, they refine ``rows`` (see
    #: :func:`estimate_rows`); None for any other operation
    matched: Optional[Callable[[PlanNode], Sequence[tuple]]] = None
    #: the grid geometries its blocked runs admit (§3.2's
    #: counter-streaming array, §8's fixed-relation variant); the
    #: physical planner chooses among them
    variants: tuple[str, ...] = VARIANTS

    @property
    def bit_level(self) -> bool:
        """Whether a §8 bit-level device runs it: the word→bit
        transformation is mechanical exactly for the equality
        comparisons."""
        return self.comparison is not None


def operator_of(node: PlanNode) -> Operator:
    """The row of ``node``'s type."""
    row = OPERATORS.get(type(node))
    if row is None:
        raise PlanError(
            f"unknown plan node type {type(node).__name__} "
            f"({node.describe()}): it has no operator row"
        )
    return row


def _union_compatible(node: PlanNode, left: Schema, right: Schema) -> Schema:
    left.require_union_compatible(right)
    return left


def _selection(node: Select, a: Relation, backend=None) -> Relation:
    return algebra.select(a, node.column, node.op, node.value)


def _selected_schema(node: Select, child: Schema) -> Schema:
    child.resolve(node.column)  # fail early on a bad reference
    return child


def _join(node: Join, a: Relation, b: Relation) -> Relation:
    if node.ops is None:
        return algebra.join(a, b, list(node.on))
    return algebra.theta_join(a, b, list(node.on), list(node.ops))


def _join_array(node: Join, a: Relation, b: Relation, backend=None) -> Relation:
    if node.ops is None:
        return systolic_join(a, b, list(node.on), backend=backend).relation
    return systolic_theta_join(
        a, b, list(node.on), list(node.ops), backend=backend
    ).relation


def _joined_schema(node: Join, left: Schema, right: Schema) -> Schema:
    # The layouts the executing algebra uses, applied to empty relations.
    left, right = Relation(left), Relation(right)
    if node.ops is None:
        return algebra.equi_join_layout(left, right, list(node.on))[2]
    return algebra.theta_join_layout(
        left, right, list(node.on), list(node.ops)
    )[2]


def _division_params(node: Divide) -> dict:
    return dict(a_value=node.a_value, a_group=node.a_group,
                b_value=node.b_value)


def _division_law(n_a, n_b, columns, max_rows, max_cols, variant) -> OpCost:
    # Distinct group count is data-dependent; the estimate assumes every
    # dividend pair names a fresh group (upper bound).  The row admits
    # the counter geometry only.
    return division_cost(n_a, max(1, n_a), n_b, max_rows, max_cols)


def _division_exact_cost(
    node: Divide, inputs: Sequence[Relation], max_rows: int, max_cols: int
) -> OpCost:
    a, b = inputs
    group_pos, _, divisor_pos, _ = algebra.division_layout(
        a.schema, b.schema, node.a_value, node.a_group, node.b_value
    )
    n_distinct = len(np.unique(a.array[:, group_pos]))
    n_divisor = len(np.unique(b.array[:, divisor_pos]))
    return division_cost(len(a), max(1, n_distinct), n_divisor,
                         max_rows, max_cols)


#: node class → its row.
OPERATORS: dict[type, Operator] = {
    Intersect: Operator(
        software=lambda node, a, b: algebra.intersection(a, b),
        whole=lambda node, a, b, backend=None: systolic_intersection(
            a, b, backend=backend).relation,
        schema=_union_compatible,
        rows=lambda node, a, b: min(a, b),
        blocked="blocked_intersection",
        comparison=lambda n_a, n_b: (n_a, n_b),
    ),
    Difference: Operator(
        software=lambda node, a, b: algebra.difference(a, b),
        whole=lambda node, a, b, backend=None: systolic_difference(
            a, b, backend=backend).relation,
        schema=_union_compatible,
        rows=lambda node, a, b: a,
        blocked="blocked_difference",
        comparison=lambda n_a, n_b: (n_a, n_b),
    ),
    Union: Operator(
        software=lambda node, a, b: algebra.union(a, b),
        whole=lambda node, a, b, backend=None: systolic_union(
            a, b, backend=backend).relation,
        schema=_union_compatible,
        rows=lambda node, a, b: a + b,
        blocked="blocked_union",
        comparison=lambda n_a, n_b: (n_a + n_b, n_a + n_b),
    ),
    Dedup: Operator(
        software=lambda node, a: algebra.remove_duplicates(a.to_multi()),
        whole=lambda node, a, backend=None: systolic_remove_duplicates(
            a.to_multi(), backend=backend).relation,
        schema=lambda node, child: child,
        rows=lambda node, n: n,
        blocked="blocked_remove_duplicates",
        operands=lambda node, a: ((a.to_multi(),), {}),
        comparison=lambda n_a, n_b: (n_a, n_a),
    ),
    Project: Operator(
        software=lambda node, a: algebra.project(a, list(node.columns)),
        whole=lambda node, a, backend=None: systolic_projection(
            a, list(node.columns), backend=backend).relation,
        schema=lambda node, child: child.project(
            child.resolve_many(list(node.columns))),
        rows=lambda node, n: n,
        # The column drop happens during retrieval (§5); the array only
        # deduplicates the reduced multi-relation.
        blocked="blocked_remove_duplicates",
        operands=lambda node, a: ((project_rows(a, list(node.columns)),), {}),
        columns=lambda node, arity: len(node.columns),
        comparison=lambda n_a, n_b: (n_a, n_a),
    ),
    Join: Operator(
        software=_join,
        whole=_join_array,
        schema=_joined_schema,
        # Equi-joins on a key stay near the larger input (§6.1); the
        # §6.2 degenerate blow-up is deliberately not assumed.
        rows=lambda node, a, b: max(a, b),
        blocked="blocked_join",
        operands=lambda node, a, b: ((a, b, list(node.on)), {
            "ops": list(node.ops) if node.ops is not None else None,
        }),
        columns=lambda node, arity: len(node.on),
        law=join_cost,
        matched=lambda node: tuple(
            pair for pair, op in zip(node.on, node.ops or ["=="] * len(node.on))
            if op == "=="
        ),
    ),
    Divide: Operator(
        software=lambda node, a, b: algebra.divide(
            a, b, **_division_params(node)),
        whole=lambda node, a, b, backend=None: systolic_divide(
            a, b, backend=backend, **_division_params(node)).relation,
        schema=lambda node, left, right: algebra.division_layout(
            left, right, node.a_value, node.a_group, node.b_value)[3],
        rows=lambda node, n, _: max(1, n // 2) if n else 0,
        blocked="blocked_divide",
        operands=lambda node, a, b: ((a, b), _division_params(node)),
        columns=lambda node, arity: 2,  # the (group, value) dividend pair
        law=_division_law,
        exact_cost=_division_exact_cost,
        # The §7 array streams the whole dividend past every block: it
        # has no relation to hold.
        variants=("counter",),
    ),
    Select: Operator(
        software=_selection,
        # Selection is not an array operation in the paper (§9: CPU or
        # logic-per-track disk); the software step stands in for both.
        whole=_selection,
        schema=_selected_schema,
        rows=lambda node, n: max(1, int(n * SELECTIVITY)) if n else 0,
    ),
}


def infer_schema(plan: PlanNode, schemas: Mapping[str, Schema]) -> Schema:
    """The exact output schema of a plan over named base schemas.

    Raises :class:`~repro.errors.PlanError` (or a schema error from the
    underlying layout check) when the plan is ill-typed — unknown base
    relation, unresolvable column, incompatible domains.
    """
    if isinstance(plan, Base):
        return _base(plan, schemas)
    row = operator_of(plan)
    return row.schema(
        plan, *(infer_schema(child, schemas) for child in plan.children)
    )


def estimate_rows(
    plan: PlanNode,
    cardinalities: Mapping[str, int],
    distinct: Optional[Callable[[str, ColumnRef], Optional[int]]] = None,
) -> int:
    """Estimated output cardinality of a plan over named base sizes.

    ``distinct(name, column)`` — the distinct values of a base
    relation's column, or None where they are not known — refines a
    join of two base relations to System R's
    ``|A|·|B| / Π max(V_A, V_B)`` over the columns it matches by
    equality (exact for a key matched against a key; a θ-join's other
    comparisons are not counted, so it stays an overestimate there);
    without it, or without a count, the row's ``rows`` estimate
    stands.
    """
    if isinstance(plan, Base):
        return _base(plan, cardinalities)
    row = operator_of(plan)
    counts = [
        estimate_rows(child, cardinalities, distinct)
        for child in plan.children
    ]
    if distinct is not None and _keyed_pairs(plan):
        keyed = _keyed_rows(plan, counts, distinct)
        if keyed is not None:
            return keyed
    return row.rows(plan, *counts)


def keyed_columns(plan: PlanNode) -> tuple[tuple[str, ColumnRef], ...]:
    """The ``(base name, column)`` pairs whose distinct counts
    :func:`estimate_rows` reads for ``plan``: the columns every join of
    two base relations matches by equality, in plan order."""
    return tuple(dict.fromkeys(
        (base.name, column)
        for node in walk(plan)
        for pair in _keyed_pairs(node)
        for base, column in zip(node.children, pair)
    ))


def _keyed_pairs(node: PlanNode) -> Sequence[tuple]:
    """The column pairs a join of two base relations matches by
    equality; empty for any other node."""
    if isinstance(node, Base):
        return ()
    matched = operator_of(node).matched
    if matched is None or not all(
        isinstance(child, Base) for child in node.children
    ):
        return ()
    return matched(node)


def _keyed_rows(node, counts, distinct) -> Optional[int]:
    """System R's equi-join size from the matched columns' distinct
    counts; None unless they are all known."""
    left, right = node.children
    return keyed_join_rows(
        node, *counts,
        lambda column: distinct(left.name, column),
        lambda column: distinct(right.name, column),
    )


def keyed_join_rows(
    node: PlanNode,
    n_a: int,
    n_b: int,
    distinct_a: Callable[[ColumnRef], Optional[int]],
    distinct_b: Callable[[ColumnRef], Optional[int]],
) -> Optional[int]:
    """System R's ``|A|·|B| / Π max(V_A, V_B)`` for a join of ``n_a`` ×
    ``n_b`` rows over the columns it matches by equality, their
    distinct values read through ``distinct_a`` / ``distinct_b`` (a
    column of the side → its count, or None); None for a node that
    matches no column by equality or where a count is unknown."""
    matched = operator_of(node).matched
    pairs = matched(node) if matched is not None else ()
    if not pairs:
        return None
    if not (n_a and n_b):
        return 0
    divisor = 1
    for a_column, b_column in pairs:
        v_a, v_b = distinct_a(a_column), distinct_b(b_column)
        if v_a is None or v_b is None:
            return None
        divisor *= max(v_a, v_b)
    return max(1, n_a * n_b // divisor)


def _base(plan: Base, catalog: Mapping):
    try:
        return catalog[plan.name]
    except KeyError:
        raise PlanError(
            f"no relation named {plan.name!r} in the catalog; "
            f"have {sorted(catalog)}"
        ) from None
