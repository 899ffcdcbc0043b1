"""The two-dimensional comparison array of Fig 3-3.

Vertically concatenated linear comparison arrays, pipelining all
``n_A × n_B`` tuple comparisons: relation A streams down, relation B
streams up, and the boolean matrix ``T`` of §3.3 emerges from the right
edge — entry ``t_ij`` from the meeting row of pair (i, j) on its
schedule-determined exit pulse.

This array is the paper's "main hardware" (§4.3): intersection,
difference, remove-duplicates, union, and projection all reuse it,
varying only the initial-``t`` injections and what happens to the
output.  This module runs the array bare and returns ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arrays.base import ArrayRun, build_grid_array, run_plan
from repro.arrays.decode import pair_verdicts
from repro.errors import SimulationError
from repro.systolic.engine import GridPlan, TInit, t_init_true
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.systolic.wiring import Network

__all__ = ["ComparisonMatrixResult", "build_comparison_array", "compare_all_pairs"]


@dataclass
class ComparisonMatrixResult:
    """The matrix ``T`` of §3.3, plus operational detail."""

    t_matrix: list[list[bool]]
    schedule: CounterStreamSchedule
    run: ArrayRun

    def pairs_where_true(self) -> list[tuple[int, int]]:
        """All (i, j) with ``t_ij`` TRUE, row-major."""
        return [
            (i, j)
            for i, row in enumerate(self.t_matrix)
            for j, value in enumerate(row)
            if value
        ]


def comparison_plan(
    a_tuples, b_tuples, t_init: TInit, tagged: bool
) -> GridPlan:
    """The bare Fig 3-3 grid as a plan, one right-edge tap per row."""
    if not len(a_tuples) or not len(b_tuples):
        raise SimulationError("the comparison array needs non-empty relations")
    schedule = CounterStreamSchedule(
        n_a=len(a_tuples), n_b=len(b_tuples), arity=len(a_tuples[0])
    )
    return GridPlan(
        a_tuples, b_tuples, schedule, t_init=t_init, row_taps=True,
        tagged=tagged, name="comparison-array",
    )


def build_comparison_array(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    t_init: TInit = lambda i, j: True,
    tagged: bool = False,
) -> tuple[Network, CounterStreamSchedule, dict[str, tuple[int, int]]]:
    """Assemble the bare Fig 3-3 array with right-edge taps per row."""
    return build_grid_array(
        comparison_plan(a_tuples, b_tuples, t_init, tagged)
    )


def compare_all_pairs(
    a_tuples: Sequence[Sequence[int]],
    b_tuples: Sequence[Sequence[int]],
    t_init: TInit = t_init_true,
    tagged: bool = False,
    backend=None,
) -> ComparisonMatrixResult:
    """Run the 2-D array and collect the full boolean matrix ``T``.

    On the pulse engine collection uses the hardware discipline: each
    right-edge arrival is decoded to its (i, j) purely from (row, pulse)
    via the schedule.  The vectorized engines hand ``T`` back directly
    (see :mod:`repro.arrays.decode`).
    """
    plan = comparison_plan(a_tuples, b_tuples, t_init, tagged)
    result, run = run_plan(plan, backend)
    t_matrix = pair_verdicts(result, plan.schedule, tagged).tolist()
    return ComparisonMatrixResult(t_matrix, plan.schedule, run)
