"""The division array of §7 (Fig 7-2): dividend array + divisor array.

Restricted case, as in the paper: dividend A is (projected to) a binary
relation with columns (A₁, A₂); divisor B is unary.  The **dividend
array** has two processor columns and one row per *distinct* A₁ value
(identified, as §7 notes, by the remove-duplicates array — we call the
software-equivalent first-occurrence scan).  Pairs ``(x, y) ∈ A``
stream in from the bottom, ``x`` up the left column and ``y`` one step
behind up the right column.  A left processor matching its stored
element ships TRUE right, arriving exactly with the ``y``, which the
right processor then gates out toward the divisor array — or replaces
by an explicit null.

Each **divisor array** row is preloaded with all of B's elements; the
gated ``y`` stream flows along it, each processor latching a sticky
"seen my element" flag.  After the dividend has passed, an AND token
sweeps each row one pulse behind the last ``y``; a TRUE at the right
edge certifies that row's ``x`` is paired with *every* divisor element
— i.e. belongs to the quotient ``C₁``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arrays.base import ArrayRun, empty_run, run_plan
from repro.arrays.decode import quotient_bits
from repro.errors import SchemaError, SimulationError
from repro.relational.algebra import division_layout
from repro.relational.domain import Domain
from repro.relational.relation import Relation, project_rows
from repro.relational.schema import ColumnRef, Schema
from repro.systolic.engine import DivisionPlan
from repro.systolic.engine.schedule import DivisionSchedule

__all__ = [
    "DivisionSchedule",
    "DivisionResult",
    "systolic_divide",
    "systolic_divide_general",
]


@dataclass
class DivisionResult:
    """Outcome of a division-array run."""

    relation: Relation
    #: distinct A₁ values, in first-appearance (= dividend row) order
    distinct_x: list[int]
    #: quotient_bits[r] — TRUE iff distinct_x[r] belongs to the quotient
    quotient_bits: list[bool]
    run: ArrayRun


def division_operands(
    a: Relation,
    b: Relation,
    a_value: ColumnRef,
    a_group: ColumnRef | None,
    b_value: ColumnRef,
) -> tuple[Schema, np.ndarray, list[int], list[int]]:
    """Resolve the division columns and lay out the array's operands.

    Returns the quotient schema, the dividend's ``(x, y)`` pairs in
    tuple order as an ``(n, 2)`` matrix, the distinct ``x`` values in
    first-appearance (= dividend row) order, and the distinct divisor
    values in first-appearance order.
    """
    try:
        group_pos, value_pos, divisor_pos, schema = division_layout(
            a.schema, b.schema, a_value, a_group, b_value
        )
    except SchemaError as refusal:  # the arrays' error for bad operands
        raise SimulationError(str(refusal)) from None
    # §7: the distinct values are what the remove-duplicates array
    # leaves of a projection — first occurrences, in order.
    groups = project_rows(a, [group_pos]).distinct()
    divisor = project_rows(b, [divisor_pos]).distinct()
    return (
        schema, a.array[:, [group_pos, value_pos]],
        groups.array[:, 0].tolist(), divisor.array[:, 0].tolist(),
    )


def _first_seen_codes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """§2.3's composite dictionary: one dense code per distinct row of
    ``rows``, assigned in first-seen order.  Returns the code of every
    row and the distinct rows, indexed by code."""
    _, first, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    code_of = np.empty_like(by_first)
    code_of[by_first] = np.arange(len(by_first))
    return code_of[inverse.reshape(-1)], rows[first[by_first]]


def systolic_divide(
    a: Relation,
    b: Relation,
    a_value: ColumnRef = 1,
    a_group: ColumnRef | None = None,
    b_value: ColumnRef = 0,
    tagged: bool = False,
    backend=None,
) -> DivisionResult:
    """``A ÷ B`` on the division array (§7).

    Column conventions follow :func:`repro.relational.algebra.divide`:
    ``a_group`` is the kept column A₁ (default: the other column of a
    binary A), ``a_value`` the matched column A₂, ``b_value`` the
    divisor column B₁.  An empty divisor makes every distinct A₁ value
    qualify vacuously; an empty dividend yields an empty quotient —
    both short-circuit without running the array.
    """
    quotient_schema, pairs, distinct_x, divisor = division_operands(
        a, b, a_value, a_group, b_value
    )

    if not len(pairs):
        return DivisionResult(Relation(quotient_schema), [], [], empty_run())
    if not divisor:
        members = [(x,) for x in distinct_x]
        return DivisionResult(
            Relation(quotient_schema, members),
            distinct_x, [True] * len(distinct_x), empty_run(),
        )

    plan = DivisionPlan(pairs, distinct_x, divisor, tagged=tagged)
    result, run = run_plan(plan, backend)
    bits = quotient_bits(result, plan.schedule, tagged)
    members = [(x,) for x, keep in zip(distinct_x, bits) if keep]
    return DivisionResult(Relation(quotient_schema, members), distinct_x,
                          bits, run)


def systolic_divide_general(
    a: Relation,
    b: Relation,
    a_group: Sequence[ColumnRef],
    a_value: Sequence[ColumnRef],
    b_value: Sequence[ColumnRef] | None = None,
    tagged: bool = False,
    backend=None,
) -> DivisionResult:
    """§7's general case on the array, via composite-domain encoding.

    §2.3 makes every column combination itself a domain ("each member
    of the domain is uniquely and reversably encoded into an integer"),
    so multi-column groups and values reduce to the restricted
    binary ÷ unary shape: encode each combination to one code —
    consistently across dividend and divisor — run the Fig 7-2 array,
    and decode the quotient back to its columns.
    """
    if not a_group or not a_value:
        raise SimulationError(
            "division needs non-empty group and value column lists"
        )
    group_pos = a.schema.resolve_many(list(a_group))
    value_pos = a.schema.resolve_many(list(a_value))
    if set(group_pos) & set(value_pos):
        raise SimulationError("group and value column lists must be disjoint")
    if b_value is None:
        b_value = list(range(len(b.schema)))
    divisor_pos = b.schema.resolve_many(list(b_value))
    if len(divisor_pos) != len(value_pos):
        raise SimulationError(
            f"value/divisor column counts differ: {len(value_pos)} vs "
            f"{len(divisor_pos)}"
        )
    for pa, pb in zip(value_pos, divisor_pos):
        if a.schema[pa].domain != b.schema[pb].domain:
            raise SimulationError(
                f"division columns {pa}/{pb} are on different domains"
            )

    # Composite dictionaries (§2.3): combination -> dense code, the
    # value dictionary shared by the dividend and the divisor.
    group_codes, group_combos = _first_seen_codes(a.array[:, group_pos])
    value_codes, _ = _first_seen_codes(np.concatenate(
        [a.array[:, value_pos], b.array[:, divisor_pos]]
    ))
    encoded_a = Relation(
        Schema.of(
            ("g", Domain("division-group-composite")),
            ("v", Domain("division-value-composite")),
        ),
        np.column_stack([group_codes, value_codes[:len(a)]]),
    )
    encoded_b = Relation(
        Schema.of(("v", Domain("division-value-composite"))),
        value_codes[len(a):, None],
    )

    inner = systolic_divide(
        encoded_a, encoded_b, a_value=1, a_group=0, b_value=0,
        tagged=tagged, backend=backend,
    )
    quotient_schema = a.schema.project(list(a_group))
    members = group_combos[inner.relation.array[:, 0]]
    return DivisionResult(
        relation=Relation(quotient_schema, members),
        distinct_x=inner.distinct_x,
        quotient_bits=inner.quotient_bits,
        run=inner.run,
    )
