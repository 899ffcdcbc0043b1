"""The trace file: Chrome trace schema, read back, summaries."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    read_chrome_trace,
    summarize_file,
    summarize_spans,
    write_chrome_trace,
)

from .conftest import build_machine, exported_tree, join_project_plan


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
        roots, snapshot = read_chrome_trace(path)
        assert {sp.name for root in roots for sp in root.walk()} >= {
            "machine.run", "machine.op", "device.execute", "engine.run",
        }
        assert snapshot == {}

    def test_round_trip_preserves_structure(self, tmp_path):
        """Nesting the events by containment gives back every span, in
        the tracer's tree, with its attributes."""
        tracer = traced_run()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, path)
        roots, _ = read_chrome_trace(path)
        assert [exported_tree(root) for root in roots] == [
            exported_tree(root) for root in tracer.roots
        ]

    def test_metrics_ride_along(self):
        tracer = obs.Tracer()
        with tracer.span("only"):
            pass
        buffer = io.StringIO()
        registry = enabled_registry()
        write_chrome_trace(tracer, buffer, metrics=registry)
        buffer.seek(0)
        roots, snapshot = read_chrome_trace(buffer)
        assert len(roots) == 1
        assert snapshot == registry.snapshot()
        assert set(snapshot["engine.run.pulses"]) >= {"p50", "p90", "p99"}

    def test_a_file_of_another_format_is_refused(self, tmp_path):
        path = tmp_path / "spans.txt"
        for text in ('{"span": "a"}\n{"span": "b"}\n', "[]"):
            path.write_text(text)
            with pytest.raises(ReproError, match="Chrome trace-event"):
                read_chrome_trace(str(path))


class TestSummaries:
    def test_summarize_spans(self):
        tracer = traced_run()
        table = summarize_spans(tracer.roots)
        assert "machine.run" in table
        assert "engine.run" in table
        assert "wall" in table

    def test_summarize_file(self, tmp_path):
        tracer = traced_run()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(tracer, path, metrics=enabled_registry())
        summary = summarize_file(path)
        assert "machine.run" in summary
        assert "machine.disk.reads" in summary  # metrics table
        write_chrome_trace(tracer, path)
        assert "machine.disk.reads" not in summarize_file(path)

    def test_summarize_top_limits_rows(self):
        tracer = traced_run()
        table = summarize_spans(tracer.roots, top=3)
        # header + 3 span rows + wall row
        assert len(table.splitlines()) == 5
