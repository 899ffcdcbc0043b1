"""Span and metric exporters: JSON lines, Chrome trace events, summaries.

Three pluggable views over one recorded :class:`~repro.obs.spans.Tracer`:

* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per span
  (id/parent links preserve the logical tree), plus one object per
  recorded metric; round-trips losslessly.
* :func:`write_chrome_trace` / :func:`read_chrome_trace` — the Chrome
  trace-event format (``chrome://tracing`` / https://ui.perfetto.dev):
  every span becomes a complete ``"ph": "X"`` event on its recording
  thread's lane, so concurrent queries show up as genuinely
  overlapping bars.
* :func:`summarize_spans` / :func:`summarize_file` — the human rollup
  (count, total host ms, share per span name) the CLI prints for
  ``--profile`` and ``repro trace summarize``.

Timestamps are normalized so the earliest span starts at 0 µs.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Union

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer

__all__ = [
    "write_jsonl",
    "read_jsonl",
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


def _base_time(roots: list[Span]) -> float:
    return min((sp.t0 for root in roots for sp in root.walk()), default=0.0)


def _open(path_or_file: PathOrFile, write: bool):
    if isinstance(path_or_file, (str, os.PathLike)):
        return open(path_or_file, "w" if write else "r"), True
    return path_or_file, False


# -- JSON lines --------------------------------------------------------------


def write_jsonl(
    source: Union[Tracer, Iterable[Span]],
    path_or_file: PathOrFile,
    metrics: MetricsRegistry | None = None,
) -> int:
    """One JSON object per span (and per metric); returns lines written.

    Span objects carry ``{"span", "id", "parent", "t0_us", "dur_us",
    "tid", "args"}`` plus, when present, the host-schedule channel
    (``"volatile"`` attributes, ``"volatile_children": true``); ids are
    depth-first preorder, so the tree — and its ``structure()`` —
    reconstructs exactly.  Metric objects carry ``{"metric", "kind",
    ...values}``.
    """
    roots = _roots(source)
    base = _base_time(roots)
    stream, close = _open(path_or_file, write=True)
    lines = 0
    try:
        next_id = 0

        def emit(span: Span, parent: int | None) -> None:
            nonlocal next_id, lines
            span_id = next_id
            next_id += 1
            record = {
                "span": span.name,
                "id": span_id,
                "parent": parent,
                "t0_us": (span.t0 - base) * 1e6,
                "dur_us": span.seconds * 1e6,
                "tid": span.tid,
                "args": span.attrs,
            }
            if span.volatile:
                record["volatile"] = span.volatile
            if span.volatile_children:
                record["volatile_children"] = True
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            lines += 1
            for child in span.children:
                emit(child, span_id)

        for root in roots:
            emit(root, None)
        if metrics is not None:
            for name, entry in metrics.snapshot().items():
                stream.write(
                    json.dumps({"metric": name, **entry}, sort_keys=True)
                    + "\n"
                )
                lines += 1
    finally:
        if close:
            stream.close()
    return lines


def read_jsonl(path_or_file: PathOrFile) -> tuple[list[Span], list[dict]]:
    """Rebuild ``(root_spans, metric_dicts)`` from a JSON-lines export."""
    stream, close = _open(path_or_file, write=False)
    try:
        spans: dict[int, Span] = {}
        roots: list[Span] = []
        metric_lines: list[dict] = []
        for line in stream:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "metric" in obj:
                metric_lines.append(obj)
                continue
            span = Span(
                name=obj["span"],
                attrs=dict(obj.get("args", {})),
                t0=obj["t0_us"] / 1e6,
                t1=(obj["t0_us"] + obj["dur_us"]) / 1e6,
                tid=obj.get("tid", 0),
                volatile=dict(obj.get("volatile", {})),
                volatile_children=bool(obj.get("volatile_children", False)),
            )
            spans[obj["id"]] = span
            parent = obj.get("parent")
            if parent is None:
                roots.append(span)
            else:
                spans[parent].children.append(span)
        return roots, metric_lines
    finally:
        if close:
            stream.close()


# -- Chrome trace events -----------------------------------------------------


def write_chrome_trace(
    source: Union[Tracer, Iterable[Span]],
    path_or_file: PathOrFile,
    metrics: MetricsRegistry | None = None,
) -> int:
    """Write a ``chrome://tracing`` / Perfetto trace; returns the event
    count.  Each span is a complete event on its thread's lane; thread
    ids are renumbered densely (0 = the lane that recorded first) and
    named via ``thread_name`` metadata.  Metrics, if given, ride along
    as one ``repro.metrics`` metadata event.
    """
    roots = _roots(source)
    base = _base_time(roots)
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
    for raw, tid in tids.items():
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


def read_chrome_trace(path_or_file: PathOrFile) -> list[dict]:
    """The ``"ph": "X"`` span events of a trace file, in file order."""
    stream, close = _open(path_or_file, write=False)
    try:
        document = json.load(stream)
    finally:
        if close:
            stream.close()
    if isinstance(document, list):  # the bare-array variant is also legal
        events = document
    else:
        events = document.get("traceEvents", [])
    return [ev for ev in events if ev.get("ph") == "X"]


# -- summaries ---------------------------------------------------------------


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


def summarize_file(path: str, top: int | None = None) -> str:
    """Summarize a trace file written by either exporter.

    Sniffs the format: JSON lines (one object per line) or a Chrome
    trace-event document.  Metric lines/metadata, when present, are
    appended as a second table.
    """
    with open(path) as stream:
        head = stream.read(1)
        stream.seek(0)
        if head == "{" or head == "[":
            try:
                document = json.load(stream)
            except json.JSONDecodeError:
                document = None
            if document is not None:
                return _summarize_chrome(document, top)
        stream.seek(0)
        roots, metric_lines = read_jsonl(stream)
    out = summarize_spans(roots, top)
    if metric_lines:
        out += "\n\nmetrics:\n" + "\n".join(
            f"  {m['metric']}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(m.items())
                if k not in ("metric",)
            )
            for m in metric_lines
        )
    return out


def _nest_by_containment(events: Iterable[dict]) -> list[Span]:
    """The root spans of a flat list of trace events.

    The Chrome format stores no parent links: the roots are the
    ``"ph": "X"`` events contained by no other on their thread, and the
    rest nest by containment per thread — which recovers the logical
    tree because a span's children happen inside its interval.
    """
    spans = [
        Span(
            name=ev.get("name", "?"),
            attrs=dict(ev.get("args", {})),
            t0=ev.get("ts", 0.0) / 1e6,
            t1=(ev.get("ts", 0.0) + ev.get("dur", 0.0)) / 1e6,
            tid=ev.get("tid", 0),
        )
        for ev in events
        if ev.get("ph") == "X"
    ]
    spans.sort(key=lambda sp: (sp.tid, sp.t0, -sp.t1))
    roots: list[Span] = []
    stack: list[Span] = []
    current_tid: int | None = None
    for span in spans:
        if span.tid != current_tid:
            current_tid = span.tid
            stack = []
        while stack and span.t0 >= stack[-1].t1 - 1e-12:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            roots.append(span)
        stack.append(span)
    return roots


def _summarize_chrome(document, top: int | None) -> str:
    if isinstance(document, list):
        events, other = document, {}
    elif isinstance(document, dict):
        events = document.get("traceEvents", [])
        other = document.get("otherData", {})
    else:
        raise ReproError("not a Chrome trace-event document")
    roots = _nest_by_containment(events)
    if not roots:
        return "(no spans recorded)"
    out = summarize_spans(roots, top)
    snapshot = other.get("repro.metrics") if isinstance(other, dict) else None
    if snapshot:
        out += "\n\nmetrics:\n" + "\n".join(
            f"  {name}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(entry.items())
            )
            for name, entry in sorted(snapshot.items())
        )
    return out
