"""The trace file and its summaries.

One file format, for every ``--trace`` and for :mod:`repro.obs` callers:

* :func:`write_chrome_trace` / :func:`read_chrome_trace` — the Chrome
  trace-event format (``chrome://tracing`` / https://ui.perfetto.dev):
  every span becomes a complete ``"ph": "X"`` event on its recording
  thread's lane, so concurrent queries show up as genuinely
  overlapping bars, and the metrics snapshot rides along under
  ``otherData["repro.metrics"]``.  The reader nests the events by time
  containment, which recovers the logical tree.
* :func:`summarize_spans` / :func:`summarize_file` — the human rollup
  (count, total host ms, share per span name) the CLI prints for
  ``repro trace summarize``.

Timestamps are normalized so the earliest span starts at 0 µs.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Union

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, render_snapshot
from repro.obs.spans import Span, Tracer

__all__ = [
    "write_chrome_trace",
    "read_chrome_trace",
    "summarize_spans",
    "summarize_file",
]

PathOrFile = Union[str, os.PathLike, IO[str]]


def _roots(source: Union[Tracer, Iterable[Span]]) -> list[Span]:
    if isinstance(source, Tracer):
        return list(source.roots)
    return list(source)


def _open(path_or_file: PathOrFile, write: bool):
    if isinstance(path_or_file, (str, os.PathLike)):
        return open(path_or_file, "w" if write else "r"), True
    return path_or_file, False


def write_chrome_trace(
    source: Union[Tracer, Iterable[Span]],
    path_or_file: PathOrFile,
    metrics: MetricsRegistry | None = None,
) -> int:
    """Write a ``chrome://tracing`` / Perfetto trace; returns the event
    count.  Each span is a complete event on its thread's lane, its
    ``args`` the structural and volatile attributes together; thread
    ids are renumbered densely (0 = the lane that recorded first) and
    named via ``thread_name`` metadata.  Metrics, if given, ride along
    as ``otherData["repro.metrics"]``.
    """
    roots = _roots(source)
    base = min((sp.t0 for root in roots for sp in root.walk()), default=0.0)
    tids: dict[int, int] = {}
    events: list[dict] = []
    for root in roots:
        for span in root.walk():
            tid = tids.setdefault(span.tid, len(tids))
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.t0 - base) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {**span.attrs, **span.volatile},
            })
    for tid in tids.values():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": "host-main" if tid == 0 else f"host-{tid}"},
        })
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        document["otherData"] = {"repro.metrics": metrics.snapshot()}
    stream, close = _open(path_or_file, write=True)
    try:
        json.dump(document, stream)
    finally:
        if close:
            stream.close()
    return len(events)


def read_chrome_trace(
    path_or_file: PathOrFile,
) -> tuple[list[Span], dict[str, dict]]:
    """``(root_spans, metrics_snapshot)`` of a trace file.

    The Chrome format stores no parent links: the roots are the
    ``"ph": "X"`` events contained by no other on their thread, and the
    rest nest by containment per thread — which recovers the logical
    tree because a span's children happen inside its interval.  A
    span's ``attrs`` are its event's ``args`` (the volatile channel is
    merged in); the snapshot is empty when the run kept no metrics.
    """
    stream, close = _open(path_or_file, write=False)
    try:
        document = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ReproError(f"not a Chrome trace-event document: {exc}") from None
    finally:
        if close:
            stream.close()
    if not isinstance(document, dict):
        raise ReproError("not a Chrome trace-event document")
    spans = sorted(
        (
            Span(
                name=ev["name"],
                attrs=dict(ev.get("args", {})),
                t0=ev["ts"] / 1e6,
                t1=(ev["ts"] + ev["dur"]) / 1e6,
                tid=ev["tid"],
            )
            for ev in document.get("traceEvents", [])
            if ev.get("ph") == "X"
        ),
        key=lambda sp: (sp.tid, sp.t0, -sp.t1),
    )
    roots: list[Span] = []
    stack: list[Span] = []
    for span in spans:
        if stack and span.tid != stack[-1].tid:
            stack = []
        while stack and span.t0 >= stack[-1].t1 - 1e-12:
            stack.pop()
        (stack[-1].children if stack else roots).append(span)
        stack.append(span)
    return roots, document.get("otherData", {}).get("repro.metrics", {})


def summarize_spans(
    source: Union[Tracer, Iterable[Span]],
    top: int | None = None,
) -> str:
    """Aggregate spans by name into a host wall-clock table.

    ``share`` is each name's total against the union of root spans (so
    nested spans can sum past 100% — they overlap their parents).
    """
    roots = _roots(source)
    if not roots:
        return "(no spans recorded)"
    totals: dict[str, tuple[int, float]] = {}
    order: list[str] = []
    for root in roots:
        for span in root.walk():
            count, seconds = totals.get(span.name, (0, 0.0))
            if span.name not in totals:
                order.append(span.name)
            totals[span.name] = (count + 1, seconds + span.seconds)
    wall = sum(root.seconds for root in roots)
    names = sorted(order, key=lambda n: -totals[n][1])
    if top is not None:
        names = names[:top]
    width = max(len(name) for name in names)
    lines = [f"{'span':<{width}}  {'count':>6}  {'total':>11}  share"]
    for name in names:
        count, seconds = totals[name]
        share = (seconds / wall * 100.0) if wall > 0 else 0.0
        lines.append(
            f"{name:<{width}}  {count:>6}  {seconds * 1e3:>9.3f}ms  "
            f"{share:5.1f}%"
        )
    lines.append(f"{'wall':<{width}}  {'':>6}  {wall * 1e3:>9.3f}ms")
    return "\n".join(lines)


def summarize_file(path: PathOrFile, top: int | None = None) -> str:
    """The span table of a trace file, and its metrics table when the
    run kept metrics."""
    roots, snapshot = read_chrome_trace(path)
    out = summarize_spans(roots, top)
    if snapshot:
        out += "\n\n" + render_snapshot(snapshot)
    return out
