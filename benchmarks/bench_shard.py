#!/usr/bin/env python3
"""E20 — shard-aware execution: a co-partitioned million-tuple equi-join
scales near-linearly across a cluster of 1/2/4 systolic machines.

Both relations are hash-partitioned on the join key, so the shard
planner proves the join distributive and every shard runs the complete
§6 pipeline on its own machine with **zero cross-shard traffic**.  The
cluster's simulated makespan is the slowest shard's makespan; with the
array work and the disk load both dividing by the shard count, the
aggregate simulated throughput grows near-linearly (the residual gap is
the per-shard disk-revolution floor).

A second, informational section exercises the costed exchange path: a
θ-join (broadcast) and a non-key equi-join (re-partition both sides)
through the simulated interconnect.

The scaling ``entries`` are *simulated* and deterministic — same seed,
same cost model, same timeline on every machine.  Two more entries are
host-timed and gated on the probed clock: ``warm_lowering_ms``, what a
repeated sharded query spends lowering — a warm ``ShardedExecutor.plan``
of ``bulk_join``'s non-key join, a plan-cache hit over memoized shard
snapshots (timeit, the fastest of 5 × 2 000) — and
``warm_exchange_op_ms``, that join's whole warm ``run_many`` on 2
shards, whose lanes derive no record and no planning context from what
the exchange hands them (timeit, the fastest of 5 × 200).  The scaling
runs' host wall-clock lives in the informational ``host_execution``
section and is not gated.

Run standalone to (re)generate ``BENCH_shard.json`` at the repo root —
CI's benchmark smoke job does exactly this::

    python benchmarks/bench_shard.py [--out BENCH_shard.json]

or run under pytest-benchmark with the rest of the experiment suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import timeit
from pathlib import Path

if not __package__:  # run as a script: the repository root, for benchmarks.*
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.probed import Probed
from repro.arrays import ArrayCapacity
from repro.machine import Base, BaseRecord, EnginePool, Join, PlanningContext
from repro.shard import (
    BROADCAST,
    REPARTITION,
    ShardedCatalog,
    ShardedExecutor,
)
from repro.systolic.engine import LatticeEngine
from repro.workloads import join_pair

SHARD_COUNTS = (1, 2, 4)


def _pool(rows: int) -> EnginePool:
    """A lattice-backed pool whose single join array holds ``rows``
    tuples, so each shard's join streams in a handful of long,
    GIL-releasing blocks."""
    capacity = ArrayCapacity(max_rows=rows, max_cols=8)
    return EnginePool(
        devices=(("join", 1, capacity),),
        capacity=capacity,
        memory_bytes=512 * 1024 * 1024,
        backend=LatticeEngine(chunk_bytes=128 * 1024 * 1024),
    )


def run_scaling(n_a: int, n_b: int, rows: int = 4096):
    """The tentpole measurement: one equi-join, shard counts 1/2/4.

    Every configuration must return the identical relation; sharded
    configurations must plan zero exchanges (the inputs co-partition);
    and the compile-time prediction must equal the simulated makespan
    exactly — for a base-relation join every cardinality the cost model
    sees is catalog truth, so prediction and simulation coincide.
    """
    ja, jb = join_pair(n_a, n_b, n_b, universe=n_a + n_b, seed=19)
    plan = Join(Base("JA"), Base("JB"), on=(("key", "key"),))

    entries, walls = [], []
    baseline = None
    base_ms = 0.0
    for shards in SHARD_COUNTS:
        session = _pool(rows).session("bench", shards=shards)
        session.store("JA", ja, key="key")
        session.store("JB", jb, key="key")
        compiled = session.compile(plan)
        with Probed() as probed:
            start = time.perf_counter()
            results, report = session.run_many([plan])
            wall = time.perf_counter() - start

        if baseline is None:
            baseline = results
            base_ms = report.makespan * 1e3
        assert results == baseline, f"shards={shards} changed the result"
        if shards > 1:
            assert report.shards == shards
            assert report.exchange_seconds == 0.0, (
                "co-partitioned join crossed the interconnect"
            )
        sim_ms = report.makespan * 1e3
        predicted_ms = compiled.predicted_makespan * 1e3
        assert abs(predicted_ms - sim_ms) <= 1e-6 * sim_ms, (
            f"prediction {predicted_ms} drifted from simulation {sim_ms}"
        )
        entries.append({
            "rows_a": n_a,
            "rows_b": n_b,
            "shards": shards,
            "sim_makespan_ms": round(sim_ms, 6),
            "predicted_ms": round(predicted_ms, 6),
            "throughput_x": round(base_ms / sim_ms, 3),
        })
        walls.append({
            "shards": shards,
            "wall_ms": round(wall * 1e3, 3),
            "probe_seconds": probed.seconds,
            "result_rows": len(results[0]),
        })
    return entries, walls


def run_warm_lowering(shards: int = 2) -> dict:
    """A warm lowering: ``bulk_join``'s pool and data, its non-key join
    (an exchange, its strategy priced), lowered once and then looked up
    — every later ``plan`` must hand back the cached ``ShardedPlan``."""
    ja, jb = join_pair(4096, 64, 64, universe=4096 + 64, seed=11)
    catalog = ShardedCatalog(shards=shards)
    catalog.store("JA", ja, key="key")
    catalog.store("JB", jb, key="key")
    executor = ShardedExecutor(_pool(1023), catalog)
    plans = [Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))]
    cold = executor.plan(plans)
    assert cold.exchanges, "the non-key join planned no exchange"
    with Probed() as probed:
        best = min(timeit.repeat(
            lambda: executor.plan(plans), number=2000, repeat=5
        )) / 2000
    assert executor.plan(plans) is cold, "a warm lowering missed the cache"
    return {
        "case": "warm_lowering",
        "rows_a": len(ja),
        "rows_b": len(jb),
        "shards": shards,
        "warm_lowering_ms": round(best * 1e3, 6),
        "probe_seconds": probed.seconds,
    }


def _derivations(run) -> tuple[int, int]:
    """The ``BaseRecord``s and ``PlanningContext``s ``run()`` builds."""
    counts = {"records": 0, "contexts": 0}
    of, new = BaseRecord.of.__func__, PlanningContext.__new__

    def counted_of(cls, *args, **kwargs):
        counts["records"] += 1
        return of(cls, *args, **kwargs)

    def counted_new(cls, *args, **kwargs):
        counts["contexts"] += 1
        return new(cls, *args, **kwargs)

    BaseRecord.of = classmethod(counted_of)
    PlanningContext.__new__ = counted_new
    try:
        run()
    finally:
        BaseRecord.of, PlanningContext.__new__ = classmethod(of), new
    return counts["records"], counts["contexts"]


def run_warm_exchange_op(shards: int = 2, number: int = 200) -> dict:
    """A warm sharded op through an exchange: ``bulk_join``'s pool and
    data, its non-key join run whole (``Session.run_many``).  After the
    first run its lanes receive what the snapshot keeps records of, so
    a warm op derives no record and no planning context."""
    ja, jb = join_pair(4096, 64, 64, universe=4096 + 64, seed=11)
    session = _pool(1023).session("warm-exchange", shards=shards)
    session.store("JA", ja, key="key")
    session.store("JB", jb, key="key")
    plans = [Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))]
    _, report = session.run_many(plans)
    assert report.exchanges, "the non-key join planned no exchange"
    derived = _derivations(lambda: session.run_many(plans))
    assert derived == (0, 0), f"a warm op derived {derived}"
    with Probed() as probed:
        best = min(timeit.repeat(
            lambda: session.run_many(plans), number=number, repeat=5
        )) / number
    return {
        "case": "warm_exchange_op",
        "rows_a": len(ja),
        "rows_b": len(jb),
        "shards": shards,
        "warm_exchange_op_ms": round(best * 1e3, 6),
        "probe_seconds": probed.seconds,
    }


def run_exchange(shards: int = 4) -> list[dict]:
    """Informational: joins that *cannot* stay shard-local.

    A non-key equi-join re-partitions both sides by the joined column;
    a θ-join broadcasts the smaller side.  Results must still match the
    single machine exactly, with the interconnect time on the timeline.
    """
    ja, jb = join_pair(2048, 2048, 1024, seed=23)
    theta_a, theta_b = join_pair(128, 128, 64, seed=29)
    cases = [
        ("repartition", {"A": ja, "B": jb},
         Join(Base("A"), Base("B"), on=(("a0", "b0"),)), REPARTITION),
        ("broadcast", {"A": theta_a, "B": theta_b},
         Join(Base("A"), Base("B"), on=(("a0", "b0"),), ops=("<=",)),
         BROADCAST),
    ]
    entries = []
    for name, catalog, plan, kind in cases:
        solo = _pool(4096).session(f"solo-{name}")
        cluster = _pool(4096).session(f"cluster-{name}", shards=shards)
        for store in (solo.store, cluster.store):
            for rel_name, relation in catalog.items():
                store(rel_name, relation, key="key")
        expected, solo_report = solo.run_many([plan])
        got, report = cluster.run_many([plan])
        assert got == expected, f"{name} join diverged when sharded"
        assert kind in {step.kind for step in report.exchanges}, (
            f"{name} join did not plan a {kind} exchange"
        )
        assert report.exchange_seconds > 0.0
        entries.append({
            "case": name,
            "shards": shards,
            "exchanges": len(report.exchanges),
            "solo_sim_ms": round(solo_report.makespan * 1e3, 6),
            "sharded_sim_ms": round(report.makespan * 1e3, 6),
            "interconnect_ms": round(report.exchange_seconds * 1e3, 6),
        })
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_shard.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    entries, walls = run_scaling(1 << 20, 64)
    lowering = run_warm_lowering()
    warm_op = run_warm_exchange_op()
    exchange = run_exchange()
    report = {
        "description": "shard-aware execution: co-partitioned "
                       "million-tuple equi-join on 1/2/4 systolic "
                       "machines, simulated makespans, and the host time "
                       "of a warm lowering and of a warm op through an "
                       "exchange (see docs/SHARDING.md)",
        "entries": [*entries, lowering, warm_op],
        "host_execution": {
            "description": "host wall-clock per configuration "
                           "(machine-dependent, not regression-gated)",
            "entries": walls,
        },
        "exchange": {
            "description": "joins that need the interconnect: "
                           "re-partition vs broadcast, 4 shards vs one "
                           "machine (simulated, informational)",
            "entries": exchange,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    for e in entries:
        print(f"E20 shards={e['shards']}  |A|={e['rows_a']:>8}  "
              f"sim {e['sim_makespan_ms']:>10.3f} ms  "
              f"{e['throughput_x']:.2f}x")
    print(f"warm lowering  {lowering['shards']} shards  "
          f"{lowering['warm_lowering_ms'] * 1e3:.2f} us")
    print(f"warm exchange op  {warm_op['shards']} shards  "
          f"{warm_op['warm_exchange_op_ms']:.3f} ms")
    for e in exchange:
        print(f"exchange {e['case']:<11}  solo {e['solo_sim_ms']:>9.3f} ms  "
              f"{e['shards']} shards {e['sharded_sim_ms']:>9.3f} ms  "
              f"(interconnect {e['interconnect_ms']:.3f} ms)")
    print(f"wrote {args.out}")

    by_shards = {e["shards"]: e["throughput_x"] for e in entries}
    assert by_shards[2] >= 1.5, (
        f"2-shard throughput below 1.5x: {by_shards[2]}"
    )
    assert by_shards[4] >= 3.0, (
        f"4-shard throughput below 3x: {by_shards[4]}"
    )
    return 0


def test_sharded_join_scales(benchmark, experiment_report):
    """E20: sharding a co-partitioned equi-join divides the makespan."""
    entries, _ = run_scaling(1 << 14, 64, rows=1024)
    by_shards = {e["shards"]: e for e in entries}

    session = _pool(1024).session("bench-compile", shards=4)
    ja, jb = join_pair(1 << 14, 64, 64, universe=(1 << 14) + 64, seed=19)
    session.store("JA", ja, key="key")
    session.store("JB", jb, key="key")
    plan = Join(Base("JA"), Base("JB"), on=(("key", "key"),))
    benchmark(lambda: session.compile(plan))

    experiment_report(
        "E20 shard-aware execution: 16k-row co-partitioned equi-join",
        [
            ("1 machine", "baseline",
             f"{by_shards[1]['sim_makespan_ms']:.3f} ms"),
            ("2 shards", "~2x",
             f"{by_shards[2]['sim_makespan_ms']:.3f} ms "
             f"({by_shards[2]['throughput_x']:.2f}x)"),
            ("4 shards", "~4x",
             f"{by_shards[4]['sim_makespan_ms']:.3f} ms "
             f"({by_shards[4]['throughput_x']:.2f}x)"),
            ("cross-shard traffic", "0 bytes", "0 bytes"),
        ],
    )
    assert by_shards[4]["throughput_x"] > by_shards[2]["throughput_x"] >= 1.0
    assert by_shards[4]["sim_makespan_ms"] < by_shards[1]["sim_makespan_ms"]


def test_warm_exchange_op_derives_nothing():
    """The warm op's own assertions, timed over a few runs only."""
    entry = run_warm_exchange_op(number=2)
    assert entry["warm_exchange_op_ms"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
