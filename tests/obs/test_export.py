"""Exporters: JSON lines round-trip, Chrome trace schema, summaries."""

from __future__ import annotations

import io
import json

from repro import obs
from repro.obs import (
    MetricsRegistry,
    read_chrome_trace,
    read_jsonl,
    summarize_file,
    summarize_spans,
    write_chrome_trace,
    write_jsonl,
)

from .conftest import build_machine, join_project_plan


def traced_run():
    machine = build_machine()
    with obs.tracing() as tracer:
        machine.run(join_project_plan())
    return tracer


def enabled_registry() -> MetricsRegistry:
    registry = MetricsRegistry().enable()
    registry.inc("machine.disk.reads", 2)
    registry.set_gauge("machine.plan_cache.size", 1)
    registry.observe("engine.run.pulses", 42.0)
    return registry


class TestJsonl:
    def test_round_trip_preserves_structure(self):
        tracer = traced_run()
        buffer = io.StringIO()
        lines = write_jsonl(tracer, buffer)
        buffer.seek(0)
        roots, metric_lines = read_jsonl(buffer)
        assert lines == sum(1 for _ in tracer.walk())
        assert tuple(r.structure() for r in roots) == tuple(
            r.structure() for r in tracer.roots
        )
        assert metric_lines == []

    def test_round_trip_keeps_the_volatile_channel_apart(self):
        tracer = traced_run()
        buffer = io.StringIO()
        write_jsonl(tracer, buffer)
        buffer.seek(0)
        roots, _ = read_jsonl(buffer)
        (compiled,) = [
            sp for root in roots for sp in root.walk()
            if sp.name == "machine.compile"
        ]
        assert compiled.volatile == {"cached": False}
        assert compiled.volatile_children
        assert "cached" not in compiled.attrs

    def test_metric_lines_ride_along(self):
        tracer = obs.Tracer()
        with tracer.span("only"):
            pass
        buffer = io.StringIO()
        write_jsonl(tracer, buffer, metrics=enabled_registry())
        buffer.seek(0)
        roots, metric_lines = read_jsonl(buffer)
        assert len(roots) == 1
        names = {line["metric"] for line in metric_lines}
        assert names == {
            "machine.disk.reads", "machine.plan_cache.size",
            "engine.run.pulses",
        }


class TestChromeTrace:
    def test_schema(self, tmp_path):
        tracer = traced_run()
        path = str(tmp_path / "trace.json")
        events = write_chrome_trace(tracer, path, metrics=enabled_registry())
        document = json.loads(open(path).read())
        assert set(document) >= {"traceEvents", "displayTimeUnit"}
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert events == len(document["traceEvents"])
        assert len(complete) == sum(1 for _ in tracer.walk())
        (compiled,) = [e for e in complete if e["name"] == "machine.compile"]
        assert compiled["args"]["cached"] is False  # volatile rides in args
        for event in complete:
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        # Timestamps are normalized: the earliest event starts at 0.
        assert min(e["ts"] for e in complete) == 0.0
        # Thread lanes are named and densely renumbered from 0.
        tids = {e["tid"] for e in complete}
        assert tids == set(range(len(tids)))
        assert {e["args"]["name"] for e in metadata} >= {"host-main"}
        assert "repro.metrics" in document["otherData"]

    def test_read_back(self, tmp_path):
        tracer = traced_run()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, path)
        events = read_chrome_trace(path)
        assert {e["name"] for e in events} >= {
            "machine.run", "machine.op", "device.execute", "engine.run",
        }


class TestSummaries:
    def test_summarize_spans(self):
        tracer = traced_run()
        table = summarize_spans(tracer.roots)
        assert "machine.run" in table
        assert "engine.run" in table
        assert "wall" in table

    def test_summarize_file_sniffs_both_formats(self, tmp_path):
        tracer = traced_run()
        chrome = str(tmp_path / "chrome.json")
        jsonl = str(tmp_path / "spans.jsonl")
        write_chrome_trace(tracer, chrome, metrics=enabled_registry())
        write_jsonl(tracer, jsonl, metrics=enabled_registry())
        for path in (chrome, jsonl):
            summary = summarize_file(path)
            assert "machine.run" in summary
            assert "machine.disk.reads" in summary  # metrics table

    def test_summarize_top_limits_rows(self):
        tracer = traced_run()
        table = summarize_spans(tracer.roots, top=3)
        # header + 3 span rows + wall row
        assert len(table.splitlines()) == 5
