"""Activity accounting for systolic networks.

§8 observes that "only half of the processors in a systolic array are
busy at any one time" in the counter-streaming designs, and that fixing
one relation in place removes the inefficiency.  Experiment E11
quantifies both claims; this module provides the bookkeeping.

A cell is *busy* on a pulse when it received at least one token (it had
work to latch and transform); otherwise it idled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ActivityMeter", "UtilizationReport", "ComparisonWorkMeter"]


@dataclass
class UtilizationReport:
    """Aggregate activity over a run."""

    pulses: int
    cells: int
    busy_cell_pulses: int

    @property
    def cell_pulses(self) -> int:
        """Total cell-pulse slots available."""
        return self.pulses * self.cells

    @property
    def utilization(self) -> float:
        """Fraction of cell-pulse slots that did work."""
        if self.cell_pulses == 0:
            return 0.0
        return self.busy_cell_pulses / self.cell_pulses

    def __repr__(self) -> str:
        return (
            f"UtilizationReport(pulses={self.pulses}, cells={self.cells}, "
            f"utilization={self.utilization:.3f})"
        )


@dataclass
class ActivityMeter:
    """Counts busy pulses per cell during a simulation."""

    busy_pulses: dict[str, int] = field(default_factory=dict)
    pulses_observed: int = 0

    def observe(self, pulse: int, busy_cells: set[str], all_cells: int) -> None:
        """Record one pulse's activity (called by the simulator)."""
        self.pulses_observed += 1
        self._cell_count = all_cells
        for name in busy_cells:
            self.busy_pulses[name] = self.busy_pulses.get(name, 0) + 1

    def report(self, cells: int | None = None) -> UtilizationReport:
        """Summarize activity across ``cells`` cells (default: as observed)."""
        if cells is None:
            cells = getattr(self, "_cell_count", len(self.busy_pulses))
        return UtilizationReport(
            pulses=self.pulses_observed,
            cells=cells,
            busy_cell_pulses=sum(self.busy_pulses.values()),
        )

    def busiest(self, top: int = 5) -> list[tuple[str, int]]:
        """The ``top`` busiest cells as ``(name, busy_pulses)`` pairs."""
        ranked = sorted(self.busy_pulses.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]


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

    def steady_state_mean(self) -> float:
        """Mean busy cells over the window where any work happened."""
        active = [count for count in self.per_pulse if count > 0]
        if not active:
            return 0.0
        return sum(active) / len(active)

    def utilization(self, comparison_cells: int, steady: bool = True) -> float:
        """Fraction of comparison cells doing work.

        ``steady=True`` measures over the active window (the §8 claim
        is about the loaded array); ``steady=False`` averages over the
        whole run including fill and drain.
        """
        if comparison_cells <= 0:
            return 0.0
        if steady:
            return self.steady_state_mean() / comparison_cells
        if not self.per_pulse:
            return 0.0
        return sum(self.per_pulse) / (len(self.per_pulse) * comparison_cells)
