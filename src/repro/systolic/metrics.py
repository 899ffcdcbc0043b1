"""Activity accounting for systolic networks.

§8 observes that "only half of the processors in a systolic array are
busy at any one time" in the counter-streaming designs, and that fixing
one relation in place removes the inefficiency.  Experiment E11
quantifies both claims; this module provides the bookkeeping, as a
simulator ``observer``.
"""

from __future__ import annotations

__all__ = ["ComparisonWorkMeter"]


class ComparisonWorkMeter:
    """Counts the cells *performing a comparison* on each pulse.

    §8's utilization remark is about useful work, not mere data
    presence: a comparator does work on a pulse exactly when it emits a
    partial result (``t_out``).  This observer (plug into the
    simulator's ``observer`` hook) tallies that per pulse, so the
    counter-streaming design's ≈½ busy fraction and the fixed-relation
    variant's ≈full busy fraction can both be measured.
    """

    def __init__(self, port: str = "t_out") -> None:
        self.port = port
        self.per_pulse: list[int] = []

    def __call__(self, pulse: int, inputs_by_cell, outputs_by_cell) -> None:
        working = sum(
            1
            for outputs in outputs_by_cell.values()
            if outputs.get(self.port) is not None
        )
        self.per_pulse.append(working)

    @property
    def peak(self) -> int:
        """Most cells comparing on any single pulse."""
        return max(self.per_pulse, default=0)

    def utilization(self, comparison_cells: int, steady: bool = True) -> float:
        """Fraction of comparison cells doing work.

        ``steady=True`` measures over the active window (the §8 claim
        is about the loaded array); ``steady=False`` averages over the
        whole run including fill and drain.
        """
        if comparison_cells <= 0:
            return 0.0
        if steady:
            active = [count for count in self.per_pulse if count > 0]
            return sum(active) / len(active) / comparison_cells if active else 0.0
        if not self.per_pulse:
            return 0.0
        return sum(self.per_pulse) / (len(self.per_pulse) * comparison_cells)
