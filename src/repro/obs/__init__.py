"""``repro.obs`` — the zero-dependency observability layer.

One subsystem, three surfaces, all off by default, and one layer map:

* **Spans** (:mod:`repro.obs.spans`): hierarchical host wall-clock
  intervals — ``with obs.span("compile", ops=6): ...`` — recorded by an
  ambient :class:`Tracer`.  Instrumentation points are free while
  tracing is off (the null tracer hands out one shared no-op context
  manager).  A span is opened where its work happens, so a child's
  interval lies inside its parent's; one that exits by exception stays
  in the tree with a volatile ``error`` attribute.
* **Metrics** (:mod:`repro.obs.metrics`): a process-local registry of
  counters/gauges/histograms whose names are declared once in
  :mod:`repro.obs.names` — the stable, docs-checked contract.
* **Layers** (:data:`repro.obs.names.SPAN_LAYERS`): one map from each
  span name to the layer of the request path its self time belongs to —
  wire, parse/optimize, compile, store scan, device blocking, engine
  kernel, tap decode, replay, exchange/merge (:data:`LAYERS`).
* **Exporters** (:mod:`repro.obs.export`): one trace file, the Chrome
  trace-event format (``chrome://tracing`` / Perfetto) with the metrics
  snapshot riding along, its reader, and human summary tables.

CLI: ``--trace FILE`` / ``--metrics`` on ``query``/``machine``/``serve``,
``repro trace summarize FILE``; ``--profile`` is a view over the same
spans.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    read_chrome_trace,
    summarize_file,
    summarize_spans,
    write_chrome_trace,
)
from repro.obs.metrics import HistogramSummary, MetricsRegistry, metrics
from repro.obs.names import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    LAYERS,
    METRICS,
    SPAN_LAYERS,
)
from repro.obs.spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    enabled,
    get_tracer,
    span,
    start,
    stop,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span",
    "enabled",
    "get_tracer",
    "start",
    "stop",
    "tracing",
    "metrics",
    "MetricsRegistry",
    "HistogramSummary",
    "METRICS",
    "SPAN_LAYERS",
    "LAYERS",
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "write_chrome_trace",
    "read_chrome_trace",
    "summarize_spans",
    "summarize_file",
]
