"""Static inference over logical plans: output schemas and row estimates.

The physical planner (and the optimizer's join pushdown) need to know,
*before executing anything*, what each plan node produces: its schema —
to count processor columns and resolve selection targets — and a row
estimate — to size §8's block decomposition and the streaming times.

Schemas are exact: they reuse the same layout arithmetic the executing
algebra uses (:func:`~repro.relational.algebra.equi_join_layout` and
friends), applied to empty relations.  Cardinalities are estimates in
the System-R tradition (selections keep a third, joins stay around the
larger input); base relations report their true stored size.
"""

from __future__ import annotations

from typing import Mapping

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
)
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = ["infer_schema", "estimate_rows", "SELECTIVITY"]

#: Fraction of tuples a selection is assumed to keep (System R's 1/3).
SELECTIVITY = 1 / 3


def infer_schema(plan: PlanNode, schemas: Mapping[str, Schema]) -> Schema:
    """The exact output schema of a plan over named base schemas.

    Raises :class:`~repro.errors.PlanError` (or a schema error from the
    underlying layout check) when the plan is ill-typed — unknown base
    relation, unresolvable column, incompatible domains.
    """
    if isinstance(plan, Base):
        try:
            return schemas[plan.name]
        except KeyError:
            raise PlanError(
                f"no relation named {plan.name!r} in the catalog; "
                f"have {sorted(schemas)}"
            ) from None
    if isinstance(plan, (Intersect, Difference, Union)):
        left = infer_schema(plan.left, schemas)
        right = infer_schema(plan.right, schemas)
        left.require_union_compatible(right)
        return left
    if isinstance(plan, Dedup):
        return infer_schema(plan.child, schemas)
    if isinstance(plan, Select):
        child = infer_schema(plan.child, schemas)
        child.resolve(plan.column)  # fail early on a bad reference
        return child
    if isinstance(plan, Project):
        child = infer_schema(plan.child, schemas)
        return child.project(child.resolve_many(list(plan.columns)))
    if isinstance(plan, Join):
        left = Relation(infer_schema(plan.left, schemas))
        right = Relation(infer_schema(plan.right, schemas))
        if plan.ops is None:
            _, _, schema, _ = algebra.equi_join_layout(left, right,
                                                       list(plan.on))
        else:
            _, _, schema, _ = algebra.theta_join_layout(
                left, right, list(plan.on), list(plan.ops)
            )
        return schema
    if isinstance(plan, Divide):
        _, _, _, schema = algebra.division_layout(
            infer_schema(plan.left, schemas),
            infer_schema(plan.right, schemas),
            plan.a_value, plan.a_group, plan.b_value,
        )
        return schema
    raise PlanError(f"cannot infer the schema of {plan.describe()}")


def estimate_rows(plan: PlanNode, cardinalities: Mapping[str, int]) -> int:
    """Estimated output cardinality of a plan over named base sizes."""
    if isinstance(plan, Base):
        try:
            return cardinalities[plan.name]
        except KeyError:
            raise PlanError(
                f"no relation named {plan.name!r} in the catalog; "
                f"have {sorted(cardinalities)}"
            ) from None
    if isinstance(plan, Select):
        n = estimate_rows(plan.child, cardinalities)
        return max(1, int(n * SELECTIVITY)) if n else 0
    if isinstance(plan, (Dedup, Project)):
        return estimate_rows(plan.child, cardinalities)
    if isinstance(plan, Intersect):
        return min(estimate_rows(plan.left, cardinalities),
                   estimate_rows(plan.right, cardinalities))
    if isinstance(plan, Difference):
        return estimate_rows(plan.left, cardinalities)
    if isinstance(plan, Union):
        return (estimate_rows(plan.left, cardinalities)
                + estimate_rows(plan.right, cardinalities))
    if isinstance(plan, Join):
        # Equi-joins on a key stay near the larger input (§6.1); the
        # §6.2 degenerate blow-up is deliberately not assumed.
        return max(estimate_rows(plan.left, cardinalities),
                   estimate_rows(plan.right, cardinalities))
    if isinstance(plan, Divide):
        n = estimate_rows(plan.left, cardinalities)
        return max(1, n // 2) if n else 0
    raise PlanError(f"cannot estimate the cardinality of {plan.describe()}")
