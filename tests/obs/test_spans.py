"""Span recording: nesting — in the tree and in time — and the determinism
contract."""

from __future__ import annotations

import io
import threading

from repro import obs
from repro.arrays import ArrayCapacity
from repro.errors import DeviceFaultError
from repro.machine import Base, EnginePool, Join, Select, SystolicDevice
from repro.machine.plan import DEVICE_JOIN
from repro.obs import metrics
from repro.serve import ServiceClient
from repro.store import RelationStore
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.workloads import join_pair

from tests.serve.test_serve import _ServerHarness
from .conftest import build_machine, exported_tree, join_project_plan


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

    def test_exception_is_recorded_in_the_volatile_channel(self):
        """A span that exits by exception stays in the tree and names
        what interrupted it — host-schedule state, so not structure."""
        tracer = obs.Tracer()
        try:
            with tracer.span("run") as run:
                with tracer.span("op", device="join0") as op:
                    raise DeviceFaultError("injected", device="join0")
        except DeviceFaultError:
            pass
        with tracer.span("op", device="join0") as clean:
            pass
        assert [root.name for root in tracer.roots] == ["run", "op"]
        assert run.children == [op]
        assert op.volatile == run.volatile == {"error": "DeviceFaultError"}
        assert op.t1 >= op.t0 and run.t1 >= op.t1
        assert clean.volatile == {}
        assert op.structure() == clean.structure()
        # The stack unwound: the next span is a root again.
        assert tracer._stack() == []

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
            "machine.op", "machine.chain", "device.execute", "engine.run",
        ):
            assert expected in names, f"missing span {expected!r}"

    def test_device_execute_is_a_direct_child_of_exactly_one_op(self):
        machine = build_machine()
        with obs.tracing() as tracer:
            machine.run(join_project_plan())
        parents = {}
        for sp in tracer.walk():
            for child in sp.children:
                if child.name == "device.execute":
                    parents.setdefault(id(child), []).append(sp)
        executes = tracer.find("device.execute")
        assert len(executes) == 2  # join, project
        for execute in executes:
            (op,) = parents[id(execute)]
            assert op.name == "machine.op"
            assert op.attrs["op"] == execute.attrs["op"]
            assert [c.name for c in op.children] == ["device.execute"]
        # Loads read the disk inside their op; nothing else nests there.
        for op in tracer.find("machine.op"):
            if op.attrs["kind"] == "load":
                assert op.children == []


def _transaction():
    """A pipelined chain, a join that re-partitions on shards, and a
    select (fused into the read where the relation is store-backed)."""
    return [
        join_project_plan(),
        Join(Base("R"), Base("S"), on=((1, 1),)),
        Select(Base("T"), 0, "<", 5000),
    ]


def _front_ends(tmp_path):
    """(label, loaded target): a machine, a pool session — T behind an
    attached store — and 2- and 3-shard sessions, T partitioned."""
    a, b = join_pair(40, 30, 8, seed=31)
    store = RelationStore(tmp_path / "relations")
    store.write("T", a, chunk_rows=10, index_columns=(0,))
    machine = build_machine()
    machine.attach_store(store)
    yield "machine", machine
    for shards in (1, 2, 3):
        session = EnginePool().session("acme", shards=shards)
        session.store("R", a)
        session.store("S", b)
        if shards == 1:
            session.catalog.attach_store(store)
        else:
            session.store("T", a)
        yield f"session, {shards} shard(s)", session


def test_a_store_backed_load_reads_inside_its_op(tmp_path):
    a, _ = join_pair(40, 30, 8, seed=31)
    store = RelationStore(tmp_path / "relations")
    store.write("T", a, chunk_rows=10, index_columns=(0,))
    machine = build_machine()
    machine.attach_store(store)
    with obs.tracing() as tracer:
        machine.run(Select(Base("T"), 0, "<", 5000))
    (read,) = tracer.find("store.read")
    (op,) = [sp for sp in tracer.find("machine.op") if read in sp.children]
    assert op.attrs["kind"] == "load"
    scan = store.open("T").read((0, "<", 5000))
    assert read.attrs == {
        "relation": "T", "chunks_read": scan.chunks_read,
        "chunks_total": 4, "rows_scanned": scan.rows_scanned,
    }
    assert 0 < scan.chunks_read < 4


class TestSpansNestInTime:
    """A span is opened where its work happens, so a child's interval
    lies inside its parent's — which is what lets a flat Chrome trace
    recover the tree."""

    def test_every_child_interval_lies_inside_its_parent(self, tmp_path):
        for label, target in _front_ends(tmp_path):
            with obs.tracing() as tracer:
                target.run_many(_transaction())
            names = {sp.name for sp in tracer.walk()}
            assert "machine.chain" in names, label
            if label == "machine" or "1 shard" in label:
                assert any(
                    sp.attrs["op"].startswith("load select")
                    for sp in tracer.find("machine.op")
                ), label
            else:
                assert any(
                    sp.attrs.get("kind") == "repartition"
                    for sp in tracer.find("shard.stage")
                ), label
            for parent in tracer.walk():
                assert parent.t0 <= parent.t1, (label, parent)
                for child in parent.children:
                    assert parent.t0 <= child.t0 <= child.t1 <= parent.t1, (
                        label, parent.name, child.name, child.attrs,
                    )

    def test_chrome_containment_recovers_the_logical_tree(self, tmp_path):
        """Reading a Chrome trace back — its flat events nested by time
        containment, lane by lane — gives the tracer's own tree, on
        every front end, connection-thread lanes of a server included."""

        def lanes(roots):
            """Each thread's root trees in time order; lanes unordered."""
            by_tid = {}
            for root in sorted(roots, key=lambda sp: sp.t0):
                by_tid.setdefault(root.tid, []).append(exported_tree(root))
            return sorted(by_tid.values(), key=repr)

        runs = [
            (label, lambda target=target: target.run_many(_transaction()))
            for label, target in _front_ends(tmp_path)
        ]
        runs.append(("server, 3 clients", _three_clients_on_a_server))
        for label, run in runs:
            with obs.tracing() as tracer:
                run()
            chrome = io.StringIO()
            obs.write_chrome_trace(tracer, chrome)
            chrome.seek(0)
            roots, _ = obs.read_chrome_trace(chrome)
            assert sum(1 for root in roots for _ in root.walk()) == len(
                list(tracer.walk())
            ), label
            assert lanes(roots) == lanes(tracer.roots), label
            if label.startswith("server"):
                assert len({root.tid for root in roots}) >= 3, label


def _three_clients_on_a_server():
    """Three tenants store and query at once, one connection thread
    (one trace lane) each."""
    a, b = join_pair(40, 30, 8, seed=31)
    errors = []

    def client(tenant):
        try:
            with ServiceClient(*harness.address, tenant=tenant) as db:
                db.store("R", a)
                db.store("S", b)
                for _ in range(3):
                    db.query("project(join(R, S, #0 == #0), #0, #1)")
        except Exception as exc:  # reported below, not lost in a thread
            errors.append(exc)

    with _ServerHarness() as harness:
        threads = [
            threading.Thread(target=client, args=(f"tenant{i}",))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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
