"""Plan rewrites for the §9 machine.

A transaction spends its time in device runs and disk reads, so the
classic algebraic rewrites pay off directly:

* **redundancy removal** — ``dedup(dedup(X)) → dedup(X)``,
  ``dedup(project(X)) → project(X)`` (projection already
  deduplicates, §5), ``X ∩ X → X``, ``X ∪ X → X``;
* **projection composition** — ``project(project(X, f), g) →
  project(X, f∘g)`` when the composition is statically resolvable;
* **selection pushdown** — σ commutes with ∩, ∪, −, and dedup, and
  sinks through a join to whichever side owns the selected column, so
  selections approach the base relations, where a logic-per-track
  disk (§9, ref [8]) applies them *during the read, for free*;
* **common-subplan sharing** — structurally identical subtrees become
  one object, which the machine computes exactly once.

All rewrites preserve set semantics; the tests re-execute original and
optimized plans on random catalogs and compare.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro import obs
from repro.errors import ReproError
from repro.machine.operators import infer_schema
from repro.obs import metrics
from repro.machine.plan import (
    Dedup,
    Difference,
    Divide,
    Intersect,
    Join,
    PlanNode,
    Project,
    Select,
    Union,
)
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.relational.schema import ColumnRef, Schema

__all__ = ["optimize", "share_common_subplans"]


def optimize(
    plan: PlanNode,
    schemas: Optional[Mapping[str, Schema]] = None,
) -> PlanNode:
    """Apply every rewrite bottom-up to a fixpoint, then share subtrees.

    ``schemas`` (base-relation name → schema) enables the rewrites that
    need static typing — pushing a selection through a join requires
    knowing which side owns the selected column.  Without it those
    rules simply don't fire.
    """
    metrics.inc("lang.optimize.calls")
    with obs.span("lang.optimize") as sp:
        passes = 0
        changed = True
        while changed:
            plan, changed = _rewrite(plan, schemas)
            passes += 1
        sp.set(passes=passes)
        return share_common_subplans(plan)


def _rewrite(
    node: PlanNode, schemas: Optional[Mapping[str, Schema]]
) -> tuple[PlanNode, bool]:
    """One bottom-up pass; returns (node, anything_changed)."""
    changed = False
    rebuilt = _rebuild_children(node, schemas)
    if rebuilt is not None:
        node, changed = rebuilt, True

    replacement = _rewrite_here(node, schemas)
    if replacement is not None:
        return replacement, True
    return node, changed


def _rebuild_children(
    node: PlanNode, schemas: Optional[Mapping[str, Schema]]
) -> Optional[PlanNode]:
    """Rewrite children; return a rebuilt node if any changed."""
    new_children = []
    any_changed = False
    for child in node.children:
        new_child, changed = _rewrite(child, schemas)
        new_children.append(new_child)
        any_changed = any_changed or changed
    if not any_changed:
        return None
    return node.with_children(new_children)


def _rewrite_here(
    node: PlanNode, schemas: Optional[Mapping[str, Schema]]
) -> Optional[PlanNode]:
    """Try each local rule once; None when nothing applies."""
    # Idempotence of set operators on identical (structural) inputs.
    if isinstance(node, (Intersect, Union)) and node.left == node.right:
        return node.left
    # dedup(dedup(X)) -> dedup(X)
    if isinstance(node, Dedup) and isinstance(node.child, Dedup):
        return node.child
    # dedup(project(...)) -> project(...): projection already dedups (§5).
    if isinstance(node, Dedup) and isinstance(node.child, Project):
        return node.child
    # dedup over a set-producing operator is a no-op.
    if isinstance(node, Dedup) and isinstance(
        node.child, (Intersect, Difference, Union, Divide)
    ):
        return node.child
    # project(project(X, f), g) -> project(X, f∘g) when resolvable.
    if isinstance(node, Project) and isinstance(node.child, Project):
        composed = _compose_projections(node.child.columns, node.columns)
        if composed is not None:
            return Project(node.child.child, composed)
    # Selection pushdown.
    if isinstance(node, Select):
        pushed = _push_select(node, schemas)
        if pushed is not None:
            return pushed
    return None


def _compose_projections(
    inner: tuple[ColumnRef, ...], outer: tuple[ColumnRef, ...]
) -> Optional[tuple[ColumnRef, ...]]:
    """Map the outer column list through the inner one, if possible."""
    composed: list[ColumnRef] = []
    inner_names = [c for c in inner if isinstance(c, str)]
    for ref in outer:
        if isinstance(ref, int):
            if not 0 <= ref < len(inner):
                return None  # would have raised at execution; leave as-is
            composed.append(inner[ref])
        else:
            if ref not in inner_names:
                return None  # positional inner columns hide the name
            composed.append(ref)
    return tuple(composed)


def _push_select(
    node: Select, schemas: Optional[Mapping[str, Schema]]
) -> Optional[PlanNode]:
    child = node.child

    def selected(target: PlanNode) -> Select:
        return Select(target, column=node.column, op=node.op,
                      value=node.value)

    # σ(A ∩ B) = σA ∩ B  (membership of a selected tuple still needs B,
    # but intersection keeps only A-side tuples, so filtering A suffices).
    if isinstance(child, Intersect):
        return Intersect(selected(child.left), child.right)
    # σ(A − B) = σA − B.
    if isinstance(child, Difference):
        return Difference(selected(child.left), child.right)
    # σ(A ∪ B) = σA ∪ σB.
    if isinstance(child, Union):
        return Union(selected(child.left), selected(child.right))
    # σ(dedup(X)) = dedup(σ(X)).
    if isinstance(child, Dedup):
        return Dedup(selected(child.child))
    # σ(A ⋈ B): the predicate names exactly one output column, which the
    # join layout traces to a column of A or of B — filter that side
    # before it ever streams through the join array.
    if isinstance(child, Join) and schemas is not None:
        return _push_select_through_join(node, child, schemas)
    return None


def _push_select_through_join(
    node: Select, child: Join, schemas: Mapping[str, Schema]
) -> Optional[PlanNode]:
    try:
        left_schema = infer_schema(child.left, schemas)
        right_schema = infer_schema(child.right, schemas)
        out_schema = infer_schema(child, schemas)
        position = out_schema.resolve(node.column)
    except ReproError:
        return None  # ill-typed here; leave it for execution to report
    if position < len(left_schema):
        # Output columns [0, |A|) are A's columns in order.
        return Join(
            Select(child.left, column=position, op=node.op, value=node.value),
            child.right, on=child.on, ops=child.ops,
        )
    # The remaining output columns are B's *kept* columns (equi-join
    # drops B's join columns, θ-join only the ``==`` ones) — map the
    # output position back to B's own column position.
    left_empty = Relation(left_schema)
    right_empty = Relation(right_schema)
    if child.ops is None:
        _, _, _, b_keep = algebra.equi_join_layout(
            left_empty, right_empty, list(child.on)
        )
    else:
        _, _, _, b_keep = algebra.theta_join_layout(
            left_empty, right_empty, list(child.on), list(child.ops)
        )
    b_position = b_keep[position - len(left_schema)]
    return Join(
        child.left,
        Select(child.right, column=b_position, op=node.op, value=node.value),
        on=child.on, ops=child.ops,
    )


def share_common_subplans(plan: PlanNode) -> PlanNode:
    """Make structurally equal subtrees the same object (CSE).

    The machine keys computed results by node identity, so shared
    objects are computed once and reused (§9's "results from
    subrelations must be stored ... before they are finally combined").
    """
    pool: dict[PlanNode, PlanNode] = {}

    def canon(node: PlanNode) -> PlanNode:
        rebuilt = node.with_children([canon(c) for c in node.children])
        existing = pool.get(rebuilt)
        if existing is not None:
            return existing
        pool[rebuilt] = rebuilt
        return rebuilt

    return canon(plan)
