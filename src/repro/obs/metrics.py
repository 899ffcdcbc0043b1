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

import math
import threading
from typing import Optional

from repro.errors import ReproError
from repro.obs.names import COUNTER, GAUGE, HISTOGRAM, METRICS

__all__ = [
    "BUCKETS_PER_OCTAVE",
    "HistogramSummary",
    "MetricsRegistry",
    "metrics",
    "render_snapshot",
]

#: A histogram's buckets split each doubling of the value in four.
BUCKETS_PER_OCTAVE = 4


class HistogramSummary:
    """Streaming summary of observed values: count, total, extremes,
    and counts in fixed log-spaced buckets for the quantiles.

    A positive value lands in bucket ``floor(log2(value) *``
    :data:`BUCKETS_PER_OCTAVE` ``)``, every value ≤ 0 in one more, so
    :meth:`observe` is O(1) and two summaries' buckets add.  The
    ``q``-quantile is read as the geometric midpoint of the bucket
    holding the sample of rank ``floor(q * (count - 1))`` (0 for the
    non-positive bucket), clamped to ``[min, max]``: it lies within one
    bucket's ratio, ``2 ** (1 / BUCKETS_PER_OCTAVE)``, of that sample.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    #: Quantiles :meth:`as_dict` reports, by key.
    QUANTILES = {"p50": 0.5, "p90": 0.9, "p99": 0.99}

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        #: bucket index → count; None is the bucket of values ≤ 0.
        self.buckets: dict[Optional[int], int] = {}

    def observe(self, value: float, count: int = 1) -> None:
        self.count += count
        self.total += value * count
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        bucket = (
            math.floor(math.log2(value) * BUCKETS_PER_OCTAVE)
            if value > 0 else None
        )
        self.buckets[bucket] = self.buckets.get(bucket, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0 ≤ q ≤ 1), to within one bucket."""
        if not self.count:
            return None
        rank = q * (self.count - 1)
        seen = self.buckets.get(None, 0)
        value = 0.0
        if seen <= rank:
            for bucket in sorted(b for b in self.buckets if b is not None):
                seen += self.buckets[bucket]
                if seen > rank:
                    value = 2.0 ** ((bucket + 0.5) / BUCKETS_PER_OCTAVE)
                    break
        return min(max(value, self.minimum), self.maximum)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            **{key: self.quantile(q) for key, q in self.QUANTILES.items()},
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
        return render_snapshot(self.snapshot())

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, {len(self.collected_names())} names)"


def render_snapshot(snap: dict[str, dict]) -> str:
    """The human table of a :meth:`MetricsRegistry.snapshot` — the live
    registry's or one read back from a trace file."""
    if not snap:
        return "(no metrics recorded)"
    width = max(len(name) for name in snap)
    lines = [f"{'metric':<{width}}  {'kind':<9}  value"]
    for name, entry in snap.items():
        if entry["kind"] == HISTOGRAM:
            value = " ".join(
                f"{key}={entry[key]:g}" for key in (
                    "count", "total", "min", "max",
                    *HistogramSummary.QUANTILES,
                )
            )
        else:
            value = f"{entry['value']:g}"
        lines.append(f"{name:<{width}}  {entry['kind']:<9}  {value}")
    return "\n".join(lines)


#: The process-local registry every instrumented layer records into.
metrics = MetricsRegistry()
