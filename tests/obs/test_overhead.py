"""The off-by-default contract: disabled observability is (near) free."""

from __future__ import annotations

import time

from repro import obs
from repro.obs import metrics

from .conftest import build_machine, join_project_plan


def test_disabled_span_allocates_nothing():
    # The null tracer returns one shared context manager — entering an
    # instrumentation point when tracing is off creates no objects.
    assert obs.span("a", rows=1) is obs.span("b")


def test_disabled_machine_run_records_nothing():
    machine = build_machine()
    machine.run(join_project_plan())
    assert not obs.enabled()
    assert obs.get_tracer() is obs.NULL_TRACER
    assert metrics.collected_names() == set()


def test_disabled_span_smoke_bound():
    """200k no-op spans in well under a second — a generous ceiling
    that still catches an accidentally-eager instrumentation path
    (e.g. building Span objects while disabled)."""
    start = time.perf_counter()
    for _ in range(200_000):
        with obs.span("hot", key=1):
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"no-op span path took {elapsed:.2f}s"


def test_disabled_metrics_smoke_bound():
    start = time.perf_counter()
    for _ in range(200_000):
        metrics.inc("machine.disk.reads")
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"disabled metrics path took {elapsed:.2f}s"
    assert metrics.collected_names() == set()
