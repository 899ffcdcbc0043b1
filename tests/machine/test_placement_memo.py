"""The placement memo: a cached plan replays what an earlier run placed.

Every run of a plan starts on a fresh machine, so an op's placement —
its timeline step, the memory it fills, the crossbar links it holds —
is a function of the plan and of what the ops up to it resolved.  The
plan's :class:`~repro.machine.scheduler.PlacementMemo` records each
placement under those resolutions and replays it.  These tests hold a
replay (a hit) to the models it skips (a miss): a run with the memo
warm must report, trace and leave behind exactly what a run on a
plan-cache-less front end — every run a miss — does.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
import tempfile
import threading
from dataclasses import astuple
from pathlib import Path

import pytest

from repro import obs
from repro.faults import parse_faults
from repro.machine import (
    Base,
    EnginePool,
    Join,
    Project,
    Select,
    SystolicDatabaseMachine,
)
from repro.machine import execution
from repro.machine.physical import PhysicalPlan
from repro.machine.scheduler import PLACEMENT_MEMO_NODES, Placement
from repro.relational import Domain, Relation, Schema
from repro.workloads import join_pair

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "dump_observables.py"
_spec = importlib.util.spec_from_file_location("dump_observables", _TOOL)
dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump)


def _build(front_end: str, spec: dict, plan_cache_size: int):
    """``dump.build`` with the plan cache sized: 0 makes every run a
    memo miss (each compile is a new plan with an empty memo)."""
    options = {
        "memories": spec.get("memories", 4),
        "plan_cache_size": plan_cache_size,
    }
    if "devices" in spec:
        options["devices"] = spec["devices"]
    if "faults" in spec:
        options["faults"] = parse_faults(spec["faults"], seed=42)
    if dump.FRONT_ENDS[front_end] is None:
        target = SystolicDatabaseMachine(**options)
    else:
        shards, strategy = dump.FRONT_ENDS[front_end]
        target = EnginePool(**options).session(
            "acme", shards=shards, shard_strategy=strategy
        )
    for name, relation in spec.get("store", {}).items():
        target.store(name, relation)
    for name, relation in spec.get("preload", {}).items():
        target.preload(name, relation)
    if "attach" in spec:
        target.catalog.attach_store(spec["attach"])
    return target


def _plan_cache(target):
    return target._plan_cache if hasattr(target, "_plan_cache") else (
        target.pool.plan_cache
    )


def _memo_nodes(target) -> int:
    """Placements recorded over every physical plan the front end has
    cached (a sharded front end also caches its lowerings, which place
    nothing)."""
    return sum(
        plan.placements.nodes for plan in _plan_cache(target)._entries.values()
        if isinstance(plan, PhysicalPlan)
    )


def _observed(target, plans) -> dict:
    """One run's results, steps, explain() and ``machine.run`` trees."""
    with obs.tracing() as tracer:
        results, report = target.run_many(plans)
    compiled = target.compile(plans)
    explain = "\n".join(
        [physical.explain() for physical in compiled.physicals]
        if hasattr(compiled, "physicals") else [compiled.explain()]
    )
    return {
        "results": [(r.schema.names, r.tuples) for r in results],
        "steps": [astuple(step) for step in report.steps],
        "explain": explain,
        "runs": [sp.structure() for sp in tracer.find("machine.run")],
    }


with tempfile.TemporaryDirectory(prefix="memo-cells-") as _scratch:
    _CELLS = [
        (name, front_end)
        for name, spec in dump.transactions(Path(_scratch)).items()
        for front_end in dump.FRONT_ENDS
        if spec.get("shardable", True) or not front_end.startswith("shards")
    ]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    return dump.transactions(tmp_path_factory.mktemp("memo-store"))


@pytest.mark.parametrize(("name", "front_end"), _CELLS)
def test_a_repeated_run_replays_what_a_miss_computes(specs, name, front_end):
    """Every transaction of ``tools/dump_observables.py`` twice on every
    front end: the second run, on a warm memo, observes exactly what the
    second run of a plan-cache-less twin (all misses) observes — and,
    without faults to change what it resolves, exactly its own first
    run, recording nothing new."""
    spec = specs[name]
    cached, uncached = _build(front_end, spec, 64), _build(front_end, spec, 0)
    first = _observed(cached, spec["plans"])
    recorded = _memo_nodes(cached)
    second = _observed(cached, spec["plans"])
    _observed(uncached, spec["plans"])
    assert second == _observed(uncached, spec["plans"])
    assert recorded > 0
    if "faults" not in spec:
        assert second == first
        assert _memo_nodes(cached) == recorded


# -- a mid-plan miss ------------------------------------------------------------

_DOMAIN = Domain("memo-key", values=range(4096))
_PAIR = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))


def _keyed(keys, offset: int) -> Relation:
    return Relation(_PAIR, [(k, (k + offset) % 4096) for k in keys])


def _shown(machine, report) -> dict:
    """What the machine front end shows after a run: every memory's
    occupancy and resident relations, and the crossbar's links."""
    keys = {step.output_key for step in report.steps}
    keys |= {key for key, *_ in machine._resident.values()}
    return {
        "links": machine.crossbar.links,
        "memories": [
            (repr(memory), sorted(
                (key, memory.size_of(key), memory.load(key).tuples)
                for key in keys if memory.holds(key)
            ))
            for memory in machine.memories
        ],
    }


def _run(machine, plans):
    """A run's results and steps, and the report for :func:`_shown`."""
    results, report = machine.run_many(plans)
    return ([r.tuples for r in results], [astuple(s) for s in report.steps]), (
        report
    )


_JOIN = [Join(Base("A"), Base("B"), on=(("k", "k"),))]
_CHAIN = [Project(Join(Base("A"), Base("B"), on=(("k", "k"),)), ("k",))]


@pytest.mark.parametrize("plans", [_JOIN, _CHAIN], ids=["join", "chain"])
def test_a_mid_plan_miss_places_like_a_cold_run(plans):
    """Rewriting ``B`` at the same cardinality and schema keeps the plan
    (same cache key) and both loads' resolutions, but changes the
    join's rows: the run replays the loads, misses at the join, and
    reports and leaves behind what a plan-cache-less machine does."""
    a = _keyed(range(0, 40), 1)
    b_before, b_after = _keyed(range(20, 50), 2), _keyed(range(30, 60), 2)
    machine = SystolicDatabaseMachine()
    machine.store("A", a)
    machine.store("B", b_before)
    _run(machine, plans)
    memo = machine.compile(plans).placements
    recorded = memo.nodes

    machine.store("B", b_after)
    hits = machine.plan_cache_info()["hits"]
    replayed, report = _run(machine, plans)
    assert machine.plan_cache_info()["hits"] == hits + 1
    # One new placement: the join's (or the chain's) — the loads hit.
    assert memo.nodes == recorded + 1

    cold = SystolicDatabaseMachine(plan_cache_size=0)
    cold.store("A", a)
    cold.store("B", b_after)
    expected, cold_report = _run(cold, plans)
    assert replayed == expected
    assert _shown(machine, report) == _shown(cold, cold_report)


def test_a_hit_leaves_the_machine_showing_what_a_miss_does():
    """``memories`` / ``crossbar`` read after a replayed run are the
    state the models would have left: same links, same residents."""
    r, s = join_pair(40, 30, 8, seed=31)
    machines = [SystolicDatabaseMachine(), SystolicDatabaseMachine(
        plan_cache_size=0
    )]
    for machine in machines:
        machine.store("R", r)
        machine.store("S", s)
        machine.preload("P", r)
    plans = [Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1)),
             Join(Base("P"), Base("S"), on=((1, 1),))]
    warm, cold = machines
    _run(warm, plans)
    nodes = warm.compile(plans).placements.nodes
    replayed, report = _run(warm, plans)
    expected, cold_report = _run(cold, plans)
    assert replayed == expected
    assert warm.compile(plans).placements.nodes == nodes  # all hits
    assert _shown(warm, report) == _shown(cold, cold_report)
    assert len(warm.crossbar.links) > 0


def test_a_hit_builds_no_machine_state(monkeypatch):
    """A fully replayed run calls no memory, crossbar or roster model:
    the pool never builds the fresh state."""
    built = []
    init = execution.MachineState.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(execution.MachineState, "__init__", counting)
    session = EnginePool().session("acme")
    r, s = join_pair(40, 30, 8, seed=31)
    session.store("R", r)
    session.store("S", s)
    plans = [Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1))]
    first = session.run_many(plans)
    assert len(built) == 1
    assert session.run_many(plans)[1].steps == first[1].steps
    assert len(built) == 1


# -- concurrency, bounds, contents ----------------------------------------------


def _trie_size(memo) -> int:
    pending, size = list(memo._roots.values()), 0
    while pending:
        node = pending.pop()
        size += 1
        pending.extend(node.children.values())
    return size


def test_four_threads_on_one_cached_plan_report_identically():
    """Four threads (more than the cores) race the first recording, on
    a shortened switch interval, and then replay it: every report
    equals the plan-cache-less reference, and the memo counts exactly
    the nodes one thread alone records — no insert lost or doubled."""
    r, s = join_pair(60, 40, 10, seed=33)
    plans = [Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1)),
             Join(Base("R"), Base("S"), on=((1, 1),))]

    def session(plan_cache_size):
        opened = EnginePool(plan_cache_size=plan_cache_size).session("acme")
        opened.store("R", r)
        opened.store("S", s)
        return opened

    results, report = session(0).run_many(plans)
    expected = ([x.tuples for x in results], report.steps)
    alone = session(64)
    alone.run_many(plans)
    recorded = alone.compile(plans).placements.nodes

    shared = session(64)
    barrier = threading.Barrier(4, timeout=30)
    seen, errors = [], []

    def worker():
        try:
            barrier.wait()
            for _ in range(10):
                got, rep = shared.run_many(plans)
                seen.append(([x.tuples for x in got], rep.steps))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(seen) == 40
    assert all(outcome == expected for outcome in seen)
    memo = shared.compile(plans).placements
    assert memo.nodes == _trie_size(memo) == recorded


_ONE = Schema.of(("x", Domain("memo-cap", values=range(4096))))


def test_distinct_resolutions_stop_recording_at_the_cap():
    """1 000 runs whose selection keeps a different row count each time:
    the memo fills to its cap and then records nothing, while every run
    still reports what a plan-cache-less machine does."""
    plans = [Select(Base("A"), "x", "<", 2000)]
    machine = SystolicDatabaseMachine()
    cold = SystolicDatabaseMachine(plan_cache_size=0)
    for shift in range(1000):
        rows = Relation(_ONE, [(x,) for x in range(shift, shift + 2000)])
        machine.store("A", rows)
        outcome, _ = _run(machine, plans)
        if shift % 97 == 0 or shift >= 995:
            cold.store("A", rows)
            assert outcome == _run(cold, plans)[0]
    memo = machine.compile(plans).placements
    assert memo.nodes == PLACEMENT_MEMO_NODES


def test_the_memo_holds_no_relation_and_shares_frozen_steps():
    """The trie holds keys, sizes and steps only; a recorded step sits
    in every report that replays it, so it cannot be changed."""
    r, s = join_pair(40, 30, 8, seed=31)
    machine = SystolicDatabaseMachine()
    machine.store("R", r)
    machine.store("S", s)
    plans = [Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1))]
    _, first = machine.run_many(plans)
    _, second = machine.run_many(plans)
    assert all(a is b for a, b in zip(first.steps, second.steps))
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.steps[0].end = 0.0

    memo = machine.compile(plans).placements
    pending = list(memo._roots.items())
    leaves = []
    while pending:
        key, node = pending.pop()
        leaves.append(key)
        leaves.append(node.value)
        pending.extend(node.children.items())

    def atoms(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                yield from atoms(item)
        elif isinstance(value, dict):
            for item in value.items():
                yield from atoms(item)
        elif isinstance(value, Placement):
            yield from atoms(astuple(value))
        else:
            yield value

    kinds = {type(atom) for leaf in leaves for atom in atoms(leaf)}
    assert kinds <= {int, float, str, bool, type(None)}
