"""The linear comparison array of Fig 3-1: one tuple comparison.

``m`` comparison processors in a row.  Elements ``a_k`` and ``b_k`` are
staggered so both reach processor ``k`` on pulse ``k``; the travelling
partial result enters processor 0 as TRUE (or any chosen seed — §3.1
notes a FALSE seed guarantees a FALSE answer, the hook §5 exploits) and
leaves processor ``m−1`` on pulse ``m−1`` as the tuple-equality bit.

§3.3 stacks these rows into the Fig 3-3 comparison array, so the linear
array is that array's one-row case — one tuple of A against one of B —
and runs, and is decoded, as that grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arrays.base import ArrayRun
from repro.arrays.comparison_array import compare_all_pairs
from repro.errors import SimulationError

__all__ = ["LinearComparisonResult", "compare_tuples"]


@dataclass
class LinearComparisonResult:
    """Outcome of one linear-array tuple comparison."""

    equal: bool
    result_pulse: int
    run: ArrayRun


def compare_tuples(
    a: Sequence[int],
    b: Sequence[int],
    seed: bool = True,
    tagged: bool = False,
    backend=None,
) -> LinearComparisonResult:
    """Compare two tuples on the linear array; ``m`` pulses end to end."""
    if len(a) != len(b):
        raise SimulationError(
            f"tuples must have equal arity: {len(a)} vs {len(b)}"
        )
    if not len(a):
        raise SimulationError("cannot compare zero-arity tuples")
    seed = bool(seed)
    grid = compare_all_pairs(
        [a], [b], lambda i, j: seed, tagged=tagged, backend=backend
    )
    return LinearComparisonResult(
        equal=grid.t_matrix[0][0],
        result_pulse=grid.schedule.t_exit_pulse(0, 0),
        run=grid.run,
    )
