"""The remove-duplicates array of §5, and the operations built on it.

The hardware is the intersection array unchanged; only the input data
and initial-``t`` schedule differ: the multi-relation A is fed into
*both* sides of the array (A is union-compatible with itself), and the
initial ``t_ij`` is forced FALSE on the main diagonal and upper
triangle (``j ≥ i``), so the accumulated ``t_i = OR_{j<i} t_ij`` is
TRUE exactly when an *earlier* tuple equals ``a_i``.  Tuples with TRUE
``t_i`` are dropped — "the opposite of the intersection operation" (§5).

On top of remove-duplicates:

* **union** — ``A ∪ B = remove-duplicates(A + B)`` over the
  concatenation of two union-compatible relations;
* **projection** — drop columns while retrieving tuples (forming the
  multi-relation ``A_f``), then remove duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arrays.base import ArrayRun, build_grid_array, rows_where
from repro.arrays.intersection import membership_plan, run_membership
from repro.errors import SimulationError
from repro.relational.algebra import project_multi
from repro.relational.relation import MultiRelation, Relation
from repro.relational.schema import ColumnRef
from repro.systolic.engine import t_init_strict_lower
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    FixedRelationSchedule,
)
from repro.systolic.wiring import Network

__all__ = [
    "DedupResult",
    "build_remove_duplicates_array",
    "systolic_remove_duplicates",
    "systolic_union",
    "systolic_projection",
]


@dataclass
class DedupResult:
    """Outcome of a remove-duplicates run."""

    relation: Relation
    #: drop_vector[i] is the accumulated t_i: TRUE means a_i was removed.
    drop_vector: list[bool]
    run: ArrayRun


def build_remove_duplicates_array(
    a: MultiRelation,
    variant: str = "counter",
    tagged: bool = False,
) -> tuple[Network, CounterStreamSchedule | FixedRelationSchedule, dict[str, tuple[int, int]]]:
    """Assemble the §5 array: A against itself with triangular masking."""
    if not a:
        raise SimulationError(
            "the remove-duplicates array needs a non-empty multi-relation"
        )
    return build_grid_array(membership_plan(
        a.array, a.array, variant, tagged, "remove-duplicates-array",
        t_init_strict_lower,
    ))


def systolic_remove_duplicates(
    a: MultiRelation,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> DedupResult:
    """Collapse a multi-relation to a relation on the §5 array."""
    # The membership run of §4 with §5's triangular mask (the canonical
    # callable whose whole-grid mask the lattice engine broadcasts);
    # tuples with TRUE t_i are the ones dropped.
    drop, run = run_membership(
        a.array, a.array, variant, tagged, backend,
        "remove-duplicates-array", t_init_strict_lower,
    )
    return DedupResult(
        Relation(a.schema, rows_where(a, drop, keep=False)), drop, run
    )


def systolic_union(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> DedupResult:
    """``A ∪ B`` = remove-duplicates over the concatenation A + B (§5)."""
    a.schema.require_union_compatible(b.schema)
    concatenation = a.to_multi().concat(b)
    return systolic_remove_duplicates(
        concatenation, variant=variant, tagged=tagged, backend=backend,
    )


def systolic_projection(
    a: Relation | MultiRelation,
    columns: Sequence[ColumnRef],
    variant: str = "counter",
    tagged: bool = False,
    backend=None,
) -> DedupResult:
    """Projection over ``columns`` (§5).

    The column drop happens "during the time when the original tuples
    are retrieved from storage" — i.e. before feeding — producing the
    multi-relation ``A_f``, which the array then deduplicates.
    """
    reduced = project_multi(a, columns)
    return systolic_remove_duplicates(
        reduced, variant=variant, tagged=tagged, backend=backend,
    )
