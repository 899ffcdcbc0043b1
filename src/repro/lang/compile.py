"""Plan evaluation engines.

A parsed plan can execute three ways:

* ``software`` — the reference algebra (the host-CPU baseline);
* ``systolic`` — every operator on its pulse-level simulated array;
* the full machine — hand the plan to
  :class:`~repro.machine.system.SystolicDatabaseMachine` directly.

The first two are provided here as :func:`execute_plan` so tests can
assert all three agree.
"""

from __future__ import annotations

from typing import Mapping

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
)
from repro.relational import algebra
from repro.relational.relation import Relation

__all__ = ["execute_plan", "query"]


def execute_plan(
    plan: PlanNode,
    catalog: Mapping[str, Relation],
    engine: str = "software",
    backend=None,
    optimize: bool = True,
) -> Relation:
    """Evaluate a plan against named relations.

    ``engine`` selects ``"software"`` (reference algebra) or
    ``"systolic"`` (simulated arrays).  For the systolic engine,
    ``backend`` picks the array execution backend — ``"pulse"`` (the
    default: every latch stepped pulse by pulse), ``"lattice"``
    (vectorized wavefronts) or ``"bitplane"`` (§8's bit-level design on
    packed planes), all with identical results; see
    :mod:`repro.systolic.engine`.

    With ``optimize=True`` (the default) the plan is first rewritten by
    :func:`repro.lang.optimize.optimize` — with the catalog's schemas,
    so schema-aware rules like join pushdown fire.  All rewrites
    preserve set semantics; pass ``optimize=False`` to execute the plan
    exactly as written.
    """
    if engine not in ("software", "systolic"):
        raise PlanError(
            f"unknown engine {engine!r}; use 'software' or 'systolic' "
            f"(or run the plan on a SystolicDatabaseMachine)"
        )
    if optimize:
        from repro.lang.optimize import optimize as optimize_plan

        plan = optimize_plan(
            plan, schemas={name: rel.schema for name, rel in catalog.items()}
        )
    return _evaluate(plan, catalog, engine, backend)


def _evaluate(
    node: PlanNode,
    catalog: Mapping[str, Relation],
    engine: str,
    backend=None,
) -> Relation:
    if isinstance(node, Base):
        try:
            return catalog[node.name]
        except KeyError:
            raise PlanError(
                f"no relation named {node.name!r} in the catalog; "
                f"have {sorted(catalog)}"
            ) from None
    inputs = [
        _evaluate(child, catalog, engine, backend) for child in node.children
    ]
    if engine == "software":
        return _software_step(node, inputs)
    return _systolic_step(node, inputs, backend)


def _software_step(node: PlanNode, inputs: list[Relation]) -> Relation:
    if isinstance(node, Intersect):
        return algebra.intersection(inputs[0], inputs[1])
    if isinstance(node, Difference):
        return algebra.difference(inputs[0], inputs[1])
    if isinstance(node, Union):
        return algebra.union(inputs[0], inputs[1])
    if isinstance(node, Dedup):
        return algebra.remove_duplicates(inputs[0].to_multi())
    if isinstance(node, Project):
        return algebra.project(inputs[0], list(node.columns))
    if isinstance(node, Join):
        if node.ops is None:
            return algebra.join(inputs[0], inputs[1], list(node.on))
        return algebra.theta_join(
            inputs[0], inputs[1], list(node.on), list(node.ops)
        )
    if isinstance(node, Divide):
        return algebra.divide(
            inputs[0], inputs[1],
            a_value=node.a_value, a_group=node.a_group, b_value=node.b_value,
        )
    if isinstance(node, Select):
        return algebra.select(inputs[0], node.column, node.op, node.value)
    raise PlanError(f"no software implementation for {node.describe()}")


def _systolic_step(
    node: PlanNode, inputs: list[Relation], backend=None
) -> Relation:
    if isinstance(node, Intersect):
        return systolic_intersection(
            inputs[0], inputs[1], backend=backend
        ).relation
    if isinstance(node, Difference):
        return systolic_difference(
            inputs[0], inputs[1], backend=backend
        ).relation
    if isinstance(node, Union):
        return systolic_union(inputs[0], inputs[1], backend=backend).relation
    if isinstance(node, Dedup):
        return systolic_remove_duplicates(
            inputs[0].to_multi(), backend=backend
        ).relation
    if isinstance(node, Project):
        return systolic_projection(
            inputs[0], list(node.columns), backend=backend
        ).relation
    if isinstance(node, Join):
        if node.ops is None:
            return systolic_join(
                inputs[0], inputs[1], list(node.on), backend=backend
            ).relation
        return systolic_theta_join(
            inputs[0], inputs[1], list(node.on), list(node.ops),
            backend=backend,
        ).relation
    if isinstance(node, Divide):
        return systolic_divide(
            inputs[0], inputs[1],
            a_value=node.a_value, a_group=node.a_group, b_value=node.b_value,
            backend=backend,
        ).relation
    if isinstance(node, Select):
        # Selection is not an array operation in the paper (§9: CPU or
        # logic-per-track disk); the software step stands in for both.
        return algebra.select(inputs[0], node.column, node.op, node.value)
    raise PlanError(f"no systolic implementation for {node.describe()}")


def query(
    source: str,
    catalog: Mapping[str, Relation],
    engine: str = "systolic",
    backend=None,
    optimize: bool = True,
) -> Relation:
    """Parse and execute an expression in one call."""
    from repro.lang.parser import parse

    return execute_plan(
        parse(source), catalog, engine=engine, backend=backend,
        optimize=optimize,
    )
