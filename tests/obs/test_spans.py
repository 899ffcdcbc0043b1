"""Span recording: nesting, detachment, and the determinism contract."""

from __future__ import annotations

from repro import obs
from repro.arrays import ArrayCapacity
from repro.machine import SystolicDevice
from repro.machine.plan import DEVICE_JOIN
from repro.obs import metrics
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.workloads import join_pair

from .conftest import build_machine, join_project_plan


class TestTracer:
    def test_spans_nest_on_one_thread(self):
        tracer = obs.Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", depth=1):
                pass
            with tracer.span("inner", depth=2):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in outer.children] == ["inner", "inner"]
        assert outer.children[0].attrs == {"depth": 1}

    def test_span_records_timing(self):
        tracer = obs.Tracer()
        with tracer.span("timed") as sp:
            pass
        assert sp.t1 >= sp.t0
        assert sp.seconds >= 0.0

    def test_set_adds_attributes(self):
        tracer = obs.Tracer()
        with tracer.span("op", fixed=1) as sp:
            sp.set(rows_out=7)
        assert sp.attrs == {"fixed": 1, "rows_out": 7}

    def test_detached_subtree_hides_the_stack(self):
        tracer = obs.Tracer()
        with tracer.span("replay"):
            with tracer.detached("task") as task:
                with tracer.span("inner"):
                    pass
        # The detached root is not a child of "replay" ...
        (replay,) = tracer.roots
        assert replay.children == []
        # ... but work inside it nested under the detached span.
        assert [child.name for child in task.children] == ["inner"]

    def test_adopt_grafts_under_the_open_span(self):
        tracer = obs.Tracer()
        with tracer.detached("task") as task:
            pass
        with tracer.span("op") as op:
            tracer.adopt(task)
        assert op.children == [task]

    def test_adopt_ignores_null_and_missing_spans(self):
        tracer = obs.Tracer()
        with tracer.span("op") as op:
            tracer.adopt(None)
        assert op.children == []

    def test_walk_and_find(self):
        tracer = obs.Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert [sp.name for sp in tracer.walk()] == ["a", "b", "b"]
        assert len(tracer.find("b")) == 2


class TestAmbient:
    def test_off_by_default(self):
        assert not obs.enabled()
        # The null tracer hands out one shared context manager.
        assert obs.span("x") is obs.span("y")

    def test_null_span_accepts_set(self):
        with obs.span("x") as sp:
            sp.set(anything=1)  # must not raise or record
            sp.set_volatile(cached=True)
            sp.mark_children_volatile()
        assert sp.attrs == {}

    def test_start_stop(self):
        tracer = obs.start()
        assert obs.enabled()
        assert obs.get_tracer() is tracer
        assert obs.start() is tracer  # idempotent
        assert obs.stop() is tracer
        assert not obs.enabled()

    def test_tracing_scope_restores_previous(self):
        outer = obs.start()
        with obs.tracing() as inner:
            assert obs.get_tracer() is inner
            with obs.span("scoped"):
                pass
        assert obs.get_tracer() is outer
        assert inner.find("scoped")
        assert not outer.find("scoped")


class TestStructure:
    def test_structure_excludes_timing_and_threads(self):
        a, b = obs.Tracer(), obs.Tracer()
        for tracer in (a, b):
            with tracer.span("op", rows=3):
                with tracer.span("inner"):
                    pass
        (ra,), (rb,) = a.roots, b.roots
        rb.tid = ra.tid + 1  # different threads, different clocks —
        rb.t0, rb.t1 = ra.t0 + 5, ra.t1 + 9
        assert ra.structure() == rb.structure()

    def test_volatile_channel_is_recorded_but_not_compared(self):
        """Host-schedule state (a cache hit, and the work a hit skips)
        is kept on the span and left out of the structure."""
        hit, miss = obs.Tracer(), obs.Tracer()
        with hit.span("compile", plans=1) as sp:
            sp.mark_children_volatile()
            sp.set_volatile(cached=True)
        with miss.span("compile", plans=1) as sp:
            sp.mark_children_volatile()
            with miss.span("planner"):
                pass
            sp.set_volatile(cached=False)
        (a,), (b,) = hit.roots, miss.roots
        assert a.structure() == b.structure()
        assert a.attrs == b.attrs == {"plans": 1}
        assert (a.volatile, b.volatile) == (
            {"cached": True}, {"cached": False}
        )
        assert [child.name for child in b.children] == ["planner"]

    def test_cache_hit_and_miss_compile_to_one_structure(self):
        machine = build_machine()
        structures, cached = [], []
        for _ in range(2):
            with obs.tracing() as tracer:
                machine.compile(join_project_plan())
            (compile_span,) = tracer.find("machine.compile")
            structures.append(compile_span.structure())
            cached.append(compile_span.volatile["cached"])
            assert "cached" not in compile_span.attrs
        assert cached == [False, True]
        assert structures[0] == structures[1]

    def test_machine_trace_covers_every_layer(self):
        machine = build_machine()
        with obs.tracing() as tracer:
            machine.run(join_project_plan())
        names = {sp.name for sp in tracer.walk()}
        for expected in (
            "machine.compile", "planner.compile", "machine.run",
            "machine.compute_phase", "machine.replay", "machine.op",
            "machine.chain", "host.task", "device.execute", "engine.run",
        ):
            assert expected in names, f"missing span {expected!r}"

    def test_host_tasks_adopted_under_their_ops(self):
        machine = build_machine()
        with obs.tracing() as tracer:
            machine.run(join_project_plan())
        # Every host.task subtree was grafted under a machine.op span —
        # none left floating at the root.
        assert not [r for r in tracer.roots if r.name == "host.task"]
        for op in tracer.find("machine.op"):
            if op.attrs.get("device") == "resident":
                continue
            assert [c.name for c in op.children].count("host.task") == 1


class TestBlockedRunIsOneSpan:
    """A device execution is one ``engine.run`` span that says how many
    block runs it stands for; the counters are those block runs',
    computed from the block-span law."""

    def test_span_and_computed_counters(self):
        a, b = join_pair(40, 30, 8, seed=31)
        node = join_project_plan().child
        per_engine = {}
        for backend in ("lattice", "bitplane", "pulse"):
            device = SystolicDevice(
                "join", DEVICE_JOIN, ArrayCapacity(max_rows=15, max_cols=8),
                backend=backend,
            )
            metrics.reset()
            metrics.enable()
            with obs.tracing() as tracer:
                run = device.execute(node, [a, b])
            metrics.disable()
            (execute,) = tracer.find("device.execute")
            (engine_run,) = tracer.find("engine.run")
            assert engine_run in execute.children
            assert engine_run.attrs == {
                "engine": backend, "plan": "BlockedPlan",
                "pulses": run.pulses, "cells": 15, "blocks": 20,
            }
            # 40 × 30 over 8-tuple blocks: 5 × 4 block runs, the last
            # B-block ragged (6 tuples).
            full = CounterStreamSchedule(8, 8, 1).comparison_pulses
            ragged = CounterStreamSchedule(8, 6, 1).comparison_pulses
            pulses = metrics.histogram("engine.run.pulses")
            assert (run.block_runs, run.pulses) == (20, 15 * full + 5 * ragged)
            assert metrics.counter("engine.runs") == 20
            assert metrics.counter("device.block_runs") == 20
            assert metrics.counter("device.busy_pulses") == run.pulses
            assert (pulses.count, pulses.total) == (20, run.pulses)
            assert (pulses.minimum, pulses.maximum) == (ragged, full)
            per_engine[backend] = run.relation.tuples
        assert len(set(per_engine.values())) == 1
