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

from repro.errors import PlanError
from repro.machine.operators import operator_of
from repro.machine.plan import Base, PlanNode
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
    row = operator_of(node)
    if engine == "software":
        return row.software(node, *inputs)
    return row.whole(node, *inputs, backend=backend)


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
