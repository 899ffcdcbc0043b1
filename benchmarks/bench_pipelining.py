"""E17 — §9's streaming pipeline: operator chains without store-and-forward.

"The data is pipelined from the memories through the switch and through
the processor array.  The output of the array is pipelined back into
another memory."  When chained operators stream into each other
instead, fills serialize but streams overlap — the transaction finishes
in Σ fill + max stream rather than Σ (fill + stream).
"""

from __future__ import annotations

from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.machine.pipelining import StageCost, analyze_chain
from repro.perf import PAPER_CONSERVATIVE


def _chain_for(n: int) -> list[StageCost]:
    """select → join → dedup over n-tuple relations, costs from schedules."""
    join = CounterStreamSchedule(n_a=n, n_b=n, arity=1)
    dedup = CounterStreamSchedule(n_a=n, n_b=n, arity=3)
    return [
        StageCost("join", fill=join.rows, stream=join.comparison_pulses),
        StageCost("dedup", fill=dedup.rows, stream=dedup.total_pulses),
        StageCost("intersect", fill=dedup.rows, stream=dedup.total_pulses),
    ]


def test_pipelined_chain(benchmark, experiment_report):
    """E17: chain makespans under both disciplines."""
    rows = []
    for n in (100, 1_000, 10_000):
        timing = analyze_chain(_chain_for(n))
        saf_ms = PAPER_CONSERVATIVE.pulses_to_seconds(
            timing.store_and_forward) * 1e3
        pipe_ms = PAPER_CONSERVATIVE.pulses_to_seconds(timing.pipelined) * 1e3
        rows.append((
            f"3-op chain, n = {n:>6}",
            f"store&fwd {saf_ms:8.3f} ms",
            f"pipelined {pipe_ms:8.3f} ms ({timing.speedup:.2f}x)",
        ))
    timing = benchmark(lambda: analyze_chain(_chain_for(10_000)))
    experiment_report("E17 §9 pipelined operator chains", rows)
    # Counter-stream fills scale with n too, capping this chain at ~1.7×.
    assert timing.speedup > 1.5
    assert timing.bottleneck.name in ("dedup", "intersect")
