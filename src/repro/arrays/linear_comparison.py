"""The linear comparison array of Fig 3-1: one tuple comparison.

``m`` comparison processors in a row.  Elements ``a_k`` and ``b_k`` are
staggered so both reach processor ``k`` on pulse ``k``; the travelling
partial result enters processor 0 as TRUE (or any chosen seed — §3.1
notes a FALSE seed guarantees a FALSE answer, the hook §5 exploits) and
leaves processor ``m−1`` on pulse ``m−1`` as the tuple-equality bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arrays.base import ArrayRun, execute
from repro.errors import SimulationError
from repro.systolic.engine import LinearPlan

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
    plan = LinearPlan(a, b, seed=seed, tagged=tagged)
    result = execute(plan, backend=backend)
    collector = result.collector("t")
    expected_pulse = plan.arity - 1
    token = collector.at(expected_pulse)
    if token is None:
        raise SimulationError(
            f"no result left the array on pulse {expected_pulse}; "
            f"arrivals: {collector.pulses()}"
        )
    return LinearComparisonResult(
        equal=bool(token.value),
        result_pulse=expected_pulse,
        run=ArrayRun(
            pulses=result.pulses, rows=1, cols=plan.arity, cells=result.cells,
            backend=result.engine,
        ),
    )
