#!/usr/bin/env python3
"""E18 — the cost-based physical planner on a 3-op transaction.

``divide(project(join(JA, JB)), D)`` compiles to a PhysicalPlan whose
three array stages fuse into one §9 pipelined chain: intermediates
stream device → switch → device and never touch a memory.  The chain's
simulated span must match ``machine.pipelining.analyze_chain``'s
Σ fill + max stream law exactly, and beat the store-and-forward
discipline where every stage runs to completion before the next.

Run standalone to (re)generate ``BENCH_planner.json`` at the repo
root — CI's benchmark smoke job does exactly this::

    python benchmarks/bench_planner.py [--out BENCH_planner.json]

or run under pytest-benchmark with the rest of the experiment suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

if not __package__:  # run as a script: the repository root, for benchmarks.*
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.probed import Probed
from repro.machine import (
    Base,
    Divide,
    EnginePool,
    Intersect,
    Join,
    Project,
    StageCost,
    SystolicDatabaseMachine,
    analyze_chain,
)
from repro.machine.physical import actual_cost
from repro.relational import algebra
from repro.workloads import division_example, join_pair, overlapping_pair

CHAIN_LABELS = ("join[key==key]", "project[a0,b0]", "divide")


def _scenario(n_a: int, n_b: int, n_keys: int, seed: int):
    ja, jb = join_pair(n_a, n_b, n_keys, seed=seed)
    catalog = {"JA": ja, "JB": jb, "D": algebra.project(jb, ["b0"])}
    plan = Divide(
        Project(Join(Base("JA"), Base("JB"), on=(("key", "key"),)),
                ("a0", "b0")),
        Base("D"), a_value="b0", a_group="a0",
    )
    return catalog, plan


def _machine(catalog):
    machine = SystolicDatabaseMachine()
    for name, relation in catalog.items():
        machine.preload(name, relation)
    return machine


def _law_stages(machine, catalog, plan, report, variants):
    """Independent stage costs: stand-alone times from the
    store-and-forward run, fills from the schedule arithmetic of the
    variant each stage runs in the chain (``variants``: label → the
    pipelined plan's choice, made for the chain and so not always the
    store-and-forward plan's)."""
    joined = algebra.join(catalog["JA"], catalog["JB"], [("key", "key")])
    inputs = {
        CHAIN_LABELS[0]: [catalog["JA"], catalog["JB"]],
        CHAIN_LABELS[1]: [joined],
        CHAIN_LABELS[2]: [algebra.project(joined, ["a0", "b0"]),
                          catalog["D"]],
    }
    nodes = {
        CHAIN_LABELS[0]: plan.left.child,
        CHAIN_LABELS[1]: plan.left,
        CHAIN_LABELS[2]: plan,
    }
    stages = []
    for label in CHAIN_LABELS:
        [step] = [s for s in report.steps if s.label == label]
        device = next(d for d in machine.devices if d.name == step.device)
        cost = actual_cost(nodes[label], inputs[label],
                           device.capacity.max_rows, device.capacity.max_cols,
                           variant=variants[label])
        fill = min(device.technology.pulses_to_seconds(cost.fill_pulses),
                   step.duration)
        stages.append(StageCost(name=label, fill=fill,
                                stream=step.duration - fill))
    return stages


def run_scenario(n_a: int, n_b: int, n_keys: int, seed: int) -> dict:
    """Run the transaction both ways; check the E17 law holds for real."""
    catalog, plan = _scenario(n_a, n_b, n_keys, seed)

    pipelined = _machine(catalog)
    physical = pipelined.compile(plan)
    (result_p,), report_p = pipelined.run_physical(physical)

    forward = _machine(catalog)
    result_s, report_s = forward.run(plan, pipeline=False)

    expected = algebra.divide(
        algebra.project(
            algebra.join(catalog["JA"], catalog["JB"], [("key", "key")]),
            ["a0", "b0"],
        ),
        catalog["D"], a_value="b0", a_group="a0",
    )
    assert result_p == expected and result_s == expected

    variants = {op.label: op.variant for op in physical.ops}
    timing = analyze_chain(
        _law_stages(forward, catalog, plan, report_s, variants)
    )
    chain_steps = [s for s in report_p.steps if s.device != "disk"]
    chain_span = (max(s.end for s in chain_steps)
                  - min(s.start for s in chain_steps))
    assert abs(chain_span - timing.pipelined) < 1e-12, (
        f"chain span {chain_span} != law {timing.pipelined}"
    )
    assert report_p.makespan < report_s.makespan

    fused = max((len(c) for c in physical.chains), default=1)
    return {
        "n_a": n_a, "n_b": n_b, "n_keys": n_keys,
        "chain_stages": fused,
        "pipelined_ms": round(report_p.makespan * 1e3, 6),
        "store_and_forward_ms": round(report_s.makespan * 1e3, 6),
        "law_pipelined_ms": round(timing.pipelined * 1e3, 6),
        "predicted_ms": round(physical.predicted_makespan * 1e3, 6),
        "speedup": round(report_s.makespan / report_p.makespan, 3),
    }


def _tenant_plans():
    """One tenant's 3-query mix (join/project, intersect, divide).

    Fresh node objects per call: tenants share base *names* (so the
    shared timeline dedups the disk loads) but never plan subtrees (so
    no computation is accidentally shared)."""
    return [
        Project(Join(Base("JA"), Base("JB"), on=(("key", "key"),)),
                ("a0", "b0")),
        Intersect(Base("A"), Base("B")),
        Divide(Base("DA"), Base("DB"), a_value="A2", a_group="A1"),
    ]


def _store_service_bases(store) -> None:
    ja, jb = join_pair(48, 40, 24, seed=21)
    oa, ob = overlapping_pair(36, 30, 18, arity=2, seed=22)
    da, db, _ = division_example()
    store("JA", ja)
    store("JB", jb)
    store("A", oa)
    store("B", ob)
    store("DA", da)
    store("DB", db)


def run_multi_tenant(tenants: int = 4) -> dict:
    """Aggregate throughput: 4 concurrent tenant sessions vs one.

    The deterministic measure is *simulated*: all tenants' transactions
    absorbed into one shared §9 timeline (base loads dedup, devices and
    disk overlap) versus serializing every query through one session
    (each on its own fresh machine state, so every query re-loads its
    bases).  Host wall-clock through the actual EnginePool is reported
    alongside, but it is machine-dependent (core count, GIL) and not
    gated.
    """
    per_tenant = len(_tenant_plans())

    # -- simulated: one shared timeline vs one-at-a-time ------------------
    shared = SystolicDatabaseMachine()
    _store_service_bases(shared.store)
    all_plans = [p for _ in range(tenants) for p in _tenant_plans()]
    shared_results, shared_report = shared.run_many(all_plans)
    shared_ms = shared_report.makespan * 1e3

    serial_ms = 0.0
    serial_results = []
    for plan in all_plans:
        machine = SystolicDatabaseMachine()
        _store_service_bases(machine.store)
        result, report = machine.run(plan)
        serial_results.append(result)
        serial_ms += report.makespan * 1e3
    assert shared_results == serial_results
    throughput = serial_ms / shared_ms

    # -- host wall-clock through the pool (informational) ------------------
    def pooled_session(pool, tenant):
        session = pool.session(tenant)
        _store_service_bases(session.store)
        return session

    def tenant_work(session):
        for plan in _tenant_plans():
            session.run(plan)

    with Probed() as probed:
        pool = EnginePool(max_concurrent=tenants)
        one = pooled_session(pool, "solo")
        start = time.perf_counter()
        for _ in range(tenants):
            for plan in _tenant_plans():
                one.run(plan)
        one_session_s = time.perf_counter() - start

        pool = EnginePool(max_concurrent=tenants)
        sessions = [
            pooled_session(pool, f"tenant{i}") for i in range(tenants)
        ]
        start = time.perf_counter()
        threads = [threading.Thread(target=tenant_work, args=(s,))
                   for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        concurrent_s = time.perf_counter() - start
    cache = pool.plan_cache_info()
    assert cache["hits"] > 0, "tenants never shared a compiled plan"

    return {
        "tenants": tenants,
        "queries_per_tenant": per_tenant,
        "serialized_sim_ms": round(serial_ms, 6),
        "shared_timeline_sim_ms": round(shared_ms, 6),
        "throughput_x": round(throughput, 3),
        "one_session_wall_ms": round(one_session_s * 1e3, 3),
        "concurrent_wall_ms": round(concurrent_s * 1e3, 3),
        "probe_seconds": probed.seconds,
        "plan_cache_hits": cache["hits"],
        "plan_cache_misses": cache["misses"],
    }


def run_plan_cache() -> dict:
    """Compile-cache hit vs cold planner run on the E18 transaction."""
    with Probed() as probed:
        catalog, plan = _scenario(80, 70, 40, seed=6)
        machine = _machine(catalog)

        start = time.perf_counter()
        cold_plan = machine.compile(plan)
        cold_s = time.perf_counter() - start

        best_hit = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            hit_plan = machine.compile(plan)
            best_hit = min(best_hit, time.perf_counter() - start)
    assert hit_plan is cold_plan, "structurally identical plan missed"
    info = machine.plan_cache_info()
    assert info["hits"] == 5 and info["misses"] == 1
    return {
        "cold_compile_ms": round(cold_s * 1e3, 6),
        "cached_compile_ms": round(best_hit * 1e3, 6),
        "speedup": round(cold_s / best_hit, 1),
        "probe_seconds": probed.seconds,
        "hits": info["hits"],
        "misses": info["misses"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_planner.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    entries = [
        run_scenario(40, 35, 20, seed=5),
        run_scenario(80, 70, 40, seed=6),
        run_scenario(160, 140, 80, seed=7),
    ]
    plan_cache = run_plan_cache()
    multi_tenant = run_multi_tenant(tenants=4)
    report = {
        "description": "cost-based physical planner: pipelined chain vs "
                       "store-and-forward on divide(project(join)) "
                       '(see docs/PLANNER.md and docs/PERF.md, "compile")',
        "entries": entries,
        "plan_cache": plan_cache,
        "multi_tenant": {
            "description": "4 tenant sessions' transactions on one "
                           "shared §9 timeline vs serialized through "
                           "one session (simulated, deterministic); "
                           "wall-clock via EnginePool is informational",
            "entry": multi_tenant,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for e in entries:
        print(f"E18 |JA|={e['n_a']:>3}  chain={e['chain_stages']} stages  "
              f"s&f {e['store_and_forward_ms']:>8.3f} ms  "
              f"pipelined {e['pipelined_ms']:>8.3f} ms  "
              f"{e['speedup']:.2f}x  (law {e['law_pipelined_ms']:.3f} ms)")
    print(f"plan cache  cold {plan_cache['cold_compile_ms']:.3f} ms  "
          f"hit {plan_cache['cached_compile_ms']:.6f} ms  "
          f"{plan_cache['speedup']:.0f}x")
    mt = multi_tenant
    print(f"multi-tenant  {mt['tenants']} tenants x "
          f"{mt['queries_per_tenant']} queries  "
          f"serialized {mt['serialized_sim_ms']:>9.3f} ms  "
          f"shared {mt['shared_timeline_sim_ms']:>9.3f} ms  "
          f"{mt['throughput_x']:.2f}x  (wall: 1 session "
          f"{mt['one_session_wall_ms']:.0f} ms, concurrent "
          f"{mt['concurrent_wall_ms']:.0f} ms)")
    print(f"wrote {args.out}")
    assert all(e["speedup"] > 1.0 for e in entries)
    assert plan_cache["speedup"] > 10
    assert multi_tenant["throughput_x"] >= 2.0, (
        f"aggregate multi-tenant throughput below 2x: "
        f"{multi_tenant['throughput_x']}"
    )
    return 0


def test_planner_pipelines_the_transaction(benchmark, experiment_report):
    """E18: compiled chain obeys Σ fill + max stream and beats s&f."""
    entry = run_scenario(40, 35, 20, seed=5)
    catalog, plan = _scenario(40, 35, 20, seed=5)
    machine = _machine(catalog)
    benchmark(lambda: machine.compile(plan))
    experiment_report(
        "E18 cost-based planner: 3-op transaction, pipelined vs s&f",
        [
            ("fused chain", "3 array stages", f"{entry['chain_stages']} stages"),
            ("store-and-forward", "Σ (fill + stream)",
             f"{entry['store_and_forward_ms']:.3f} ms"),
            ("pipelined chain", "Σ fill + max stream",
             f"{entry['pipelined_ms']:.3f} ms"),
            ("law (analyze_chain)", "== simulated span",
             f"{entry['law_pipelined_ms']:.3f} ms"),
            ("speedup", "> 1x", f"{entry['speedup']:.2f}x"),
        ],
    )
    assert entry["chain_stages"] == 3
    assert entry["speedup"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
