"""A process-local metrics registry: counters, gauges, histograms.

One module-level :data:`metrics` registry is shared by every
instrumented layer.  It is **disabled by default** — a disabled
``inc``/``observe``/``set_gauge`` returns after one attribute check, so
hot paths pay (almost) nothing when nobody is measuring.

When enabled, every recorded name is validated against the declared
table in :mod:`repro.obs.names`: recording an undeclared name raises —
the registry is a *stable contract*, cross-checked against
``docs/OBSERVABILITY.md`` by ``tools/check_docs.py`` and exercised
end-to-end by ``tests/obs/test_metrics_names.py``.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import ReproError
from repro.obs.names import COUNTER, GAUGE, HISTOGRAM, METRICS

__all__ = ["HistogramSummary", "MetricsRegistry", "metrics"]


class HistogramSummary:
    """Streaming summary of observed values (no buckets kept)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float, count: int = 1) -> None:
        self.count += count
        self.total += value * count
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return f"HistogramSummary(count={self.count}, total={self.total})"


class MetricsRegistry:
    """Counters, gauges, and histogram summaries behind one switch."""

    def __init__(self, declared: Optional[dict] = None) -> None:
        self.declared = declared if declared is not None else METRICS
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}

    # -- control -----------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded value (the switch is untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def _check(self, name: str, kind: str) -> None:
        spec = self.declared.get(name)
        if spec is None:
            raise ReproError(
                f"metric {name!r} is not declared in repro.obs.names — "
                f"add it to METRICS (and docs/OBSERVABILITY.md)"
            )
        if spec[0] != kind:
            raise ReproError(
                f"metric {name!r} is declared as a {spec[0]}, recorded "
                f"as a {kind}"
            )

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add to a counter (cumulative, monotone)."""
        if not self.enabled:
            return
        self._check(name, COUNTER)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to its current level."""
        if not self.enabled:
            return
        self._check(name, GAUGE)
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Record one sample — or ``count`` equal ones — into a
        histogram summary."""
        if not self.enabled:
            return
        self._check(name, HISTOGRAM)
        with self._lock:
            summary = self._histograms.get(name)
            if summary is None:
                summary = self._histograms[name] = HistogramSummary()
            summary.observe(value, count)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[HistogramSummary]:
        return self._histograms.get(name)

    def collected_names(self) -> set[str]:
        """Every name that has recorded at least one value."""
        with self._lock:
            return (
                set(self._counters) | set(self._gauges)
                | set(self._histograms)
            )

    def snapshot(self) -> dict[str, dict]:
        """``{name: {"kind": ..., "value"/"summary": ...}}``, sorted."""
        with self._lock:
            out: dict[str, dict] = {}
            for name, value in self._counters.items():
                out[name] = {"kind": COUNTER, "value": value}
            for name, value in self._gauges.items():
                out[name] = {"kind": GAUGE, "value": value}
            for name, summary in self._histograms.items():
                out[name] = {"kind": HISTOGRAM, **summary.as_dict()}
            return dict(sorted(out.items()))

    def render(self) -> str:
        """The human summary table (the CLI's ``--metrics`` output)."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics recorded)"
        width = max(len(name) for name in snap)
        lines = [f"{'metric':<{width}}  {'kind':<9}  value"]
        for name, entry in snap.items():
            if entry["kind"] == HISTOGRAM:
                value = (
                    f"count={entry['count']} total={entry['total']:g} "
                    f"min={entry['min']:g} max={entry['max']:g}"
                )
            else:
                value = f"{entry['value']:g}"
            lines.append(f"{name:<{width}}  {entry['kind']:<9}  {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, {len(self.collected_names())} names)"


#: The process-local registry every instrumented layer records into.
metrics = MetricsRegistry()
