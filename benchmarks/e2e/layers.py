"""Per-layer metrics and the layer table, computed from a traced pass.

Timings are medians of self time per operation (or per span where the
name says so); counts are totals per round and repeat exactly for a
given seed.  Every name here must be declared in ``BENCHMARK.json`` —
the runner refuses to start otherwise.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable, Optional, Sequence

from benchmarks.e2e.harness import PassResult, Workload, percentile
from benchmarks.e2e.trace import Span, self_times, wall_times

__all__ = ["EXACT", "PER_LAYER", "Trace", "layer_table", "per_layer"]

ENGINES = ("lattice", "bitplane", "pulse")

PER_LAYER = (
    "serve.decode_ms", "serve.encode_ms", "serve.transport_self_ms",
    "serve.reply_bytes",
    "lang.parse_ms", "lang.optimize_ms",
    "machine.compile_cold_ms", "machine.compile_cached_ms",
    "machine.plan_cache_hit_ratio", "machine.execute_ms",
    "machine.replay_self_ms", "machine.device_self_ms",
    "machine.block_runs", "machine.sim_pulses", "machine.redispatches",
    "arrays.blocking_self_ms", "arrays.decode_self_ms",
    *(f"engine.{e}.run_ms" for e in ENGINES),
    *(f"engine.{e}.pulses_per_host_s" for e in ENGINES),
    "engine.runs", "engine.sim_pulses",
    "store.full_scan_ms", "store.scan_eq_ms", "store.scan_range_ms",
    "store.write_ms", "store.read_self_ms",
    "store.chunks_read", "store.chunks_pruned", "store.rows_scanned",
    "store.prune_ratio", "store.bytes_on_disk_per_user_byte",
    "relational.construct_ms_per_mrow", "relational.reference_ms",
    "shard.partition_ms", "shard.plan_ms", "shard.exchange_merge_self_ms",
    "shard.host_scaling_2x", "shard.exchange_sim_ms", "shard.exchanges",
    "perf.prediction_error_ratio",
    "bench.calibration_ms", "bench.calibration_drift_ratio",
    "bench.trace_overhead_ratio",
)

#: the counts: these repeat exactly for a given seed and ``--seconds``.
EXACT = (
    "serve.reply_bytes", "machine.plan_cache_hit_ratio",
    "machine.block_runs", "machine.sim_pulses", "machine.redispatches",
    "engine.runs", "engine.sim_pulses",
    "store.chunks_read", "store.chunks_pruned", "store.rows_scanned",
    "store.prune_ratio", "store.bytes_on_disk_per_user_byte",
    "shard.exchange_sim_ms", "shard.exchanges",
    "perf.prediction_error_ratio",
)


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Trace:
    """A traced pass's spans, indexed the ways the metrics ask for them."""

    def __init__(self, spans: list[Span], rounds: int) -> None:
        self.spans = spans
        self.rounds = max(1, rounds)
        self.selfs = self_times(spans)
        self.walls = wall_times(spans)
        self.kind_of = {
            s.op_id: s.attrs["kind"] for s in spans if s.name == "bench.op"
        }
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def named(self, *names: str) -> list[Span]:
        return [s for name in names for s in self.by_name.get(name, ())]

    def per_op_ms(
        self, names: Sequence[str], inclusive: bool = False,
        kind: Optional[str] = None,
    ) -> float:
        """Median over ops (that have such spans) of their summed time."""
        totals: dict[int, float] = defaultdict(float)
        for span in self.named(*names):
            if kind is not None and self.kind_of.get(span.op_id) != kind:
                continue
            totals[span.op_id] += (
                span.duration if inclusive else self.selfs[span.id]
            )
        return _median(totals.values()) * 1e3

    def per_span_ms(self, name: str, **attrs) -> float:
        """Median inclusive duration of the spans matching ``attrs``."""
        return _median(
            s.duration for s in self.by_name.get(name, ())
            if all(s.attrs.get(k) == v for k, v in attrs.items())
        ) * 1e3

    def per_round(self, names: Sequence[str], attr: str) -> float:
        """A count summed over spans, per round of the fixed op list."""
        total = sum(s.attrs.get(attr, 0) for s in self.named(*names))
        return total / self.rounds


def per_layer(
    t: Trace,
    untraced: PassResult,
    traced: PassResult,
    workload: Workload,
    oracle_seconds: Sequence[float],
    calibrations_ms: Sequence[float],
) -> dict[str, float]:
    """Every per-layer metric, 0.0 where the workload bypasses the layer."""
    out: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)

    out["serve.decode_ms"] = t.per_op_ms(["serve.decode"])
    out["serve.encode_ms"] = t.per_op_ms(["serve.encode", "serve.encode_reply"])
    out["serve.transport_self_ms"] = t.per_op_ms(["serve.transport"])
    replies = t.named("serve.encode_reply")
    if replies:
        out["serve.reply_bytes"] = (
            sum(s.attrs["bytes"] for s in replies) / len(replies)
        )
    out["lang.parse_ms"] = t.per_op_ms(["lang.parse"])
    out["lang.optimize_ms"] = t.per_op_ms(["lang.optimize"])

    out["machine.compile_cold_ms"] = t.per_span_ms(
        "machine.compile", cached=False
    )
    out["machine.compile_cached_ms"] = t.per_span_ms(
        "machine.compile", cached=True
    )
    lookups = [s for s in t.named("machine.compile") if "cached" in s.attrs]
    if lookups:
        out["machine.plan_cache_hit_ratio"] = (
            sum(s.attrs["cached"] for s in lookups) / len(lookups)
        )
    out["machine.execute_ms"] = t.per_op_ms(["machine.execute"], inclusive=True)
    out["machine.replay_self_ms"] = t.per_op_ms(["machine.execute"])
    out["machine.device_self_ms"] = t.per_op_ms(["machine.device"])
    out["machine.block_runs"] = t.per_round(["machine.device"], "block_runs")
    out["machine.sim_pulses"] = t.per_round(["machine.device"], "pulses")
    out["machine.redispatches"] = float(sum(
        1 for s in t.named("machine.device") if s.attrs.get("error")
    ))

    out["arrays.blocking_self_ms"] = t.per_op_ms(["arrays.blocked"])
    out["arrays.decode_self_ms"] = t.per_op_ms(["arrays.systolic"])
    engine_names = [f"engine.{e}.run" for e in ENGINES]
    for engine, name in zip(ENGINES, engine_names):
        out[f"engine.{engine}.run_ms"] = t.per_op_ms([name])
        busy = sum(s.duration for s in t.named(name))
        if busy:
            pulses = sum(s.attrs["pulses"] for s in t.named(name))
            out[f"engine.{engine}.pulses_per_host_s"] = pulses / busy
    out["engine.runs"] = len(t.named(*engine_names)) / t.rounds
    out["engine.sim_pulses"] = t.per_round(engine_names, "pulses")

    out["store.full_scan_ms"] = t.per_span_ms("store.read", mode="full")
    out["store.scan_eq_ms"] = t.per_span_ms("store.read", mode="eq")
    out["store.scan_range_ms"] = t.per_span_ms("store.read", mode="range")
    out["store.write_ms"] = t.per_span_ms("store.write")
    out["store.read_self_ms"] = _median(
        t.selfs[s.id] for s in t.named("store.read")
        if s.attrs.get("mode") == "full"
    ) * 1e3
    reads = ["store.read"]
    out["store.chunks_read"] = t.per_round(reads, "chunks_read")
    total_chunks = t.per_round(reads, "chunks_total")
    out["store.chunks_pruned"] = total_chunks - out["store.chunks_read"]
    out["store.rows_scanned"] = t.per_round(reads, "rows_scanned")
    if total_chunks:
        out["store.prune_ratio"] = out["store.chunks_pruned"] / total_chunks

    boxed = t.named("relational.construct")
    boxed_rows = sum(s.attrs.get("rows", 0) for s in boxed)
    if boxed_rows:
        out["relational.construct_ms_per_mrow"] = (
            sum(s.duration for s in boxed) * 1e3 / (boxed_rows / 1e6)
        )
    out["relational.reference_ms"] = _median(oracle_seconds) * 1e3

    out["shard.plan_ms"] = t.per_op_ms(["shard.plan"])
    out["shard.exchange_merge_self_ms"] = t.per_op_ms(
        ["machine.execute"], kind="join_repartition_2shard"
    )
    solo = untraced.latencies_ms("join_1shard")
    pair = untraced.latencies_ms("join_2shard")
    if solo and pair:
        out["shard.host_scaling_2x"] = (
            percentile(solo, 0.5) / percentile(pair, 0.5)
        )
    out["shard.exchange_sim_ms"] = t.per_round(
        ["machine.execute"], "exchange_sim_ms"
    )
    out["shard.exchanges"] = t.per_round(["machine.execute"], "exchanges")

    out["perf.prediction_error_ratio"] = getattr(
        workload, "prediction_error", 0.0
    )
    out.update(workload.setup_metrics)

    out["bench.calibration_ms"] = _median(calibrations_ms)
    out["bench.calibration_drift_ratio"] = max(
        (abs(b - a) / a for a, b in zip(calibrations_ms, calibrations_ms[1:])),
        default=0.0,
    )
    if untraced.attempted and traced.attempted:
        out["bench.trace_overhead_ratio"] = (
            (traced.busy / traced.attempted)
            / (untraced.busy / untraced.attempted)
        )
    return out


def layer_table(t: Trace) -> dict:
    """Where operation time went, by span name and by operation kind.

    A share is the span name's part of the operations' summed
    wall-clock (:func:`~benchmarks.e2e.trace.wall_times`: seconds that
    two shards spent side by side are split between them).
    ``coverage`` is the sum of the shares: 1.0 when every span lies
    inside its parent and none is counted twice.
    """
    roots = t.by_name["bench.op"]
    layer_of = {s.name: s.layer for s in t.spans}
    by_name: dict[str, float] = defaultdict(float)
    by_kind: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in t.spans:
        kind = t.kind_of.get(span.op_id)
        if kind is None:
            continue  # work outside any operation
        by_name[span.name] += t.walls[span.id]
        by_kind[kind][span.name] += t.walls[span.id]
    op_wall = sum(s.duration for s in roots) or 1.0
    kind_wall: dict[str, float] = defaultdict(float)
    for root in roots:
        kind_wall[root.attrs["kind"]] += root.duration

    def largest_first(seconds: dict[str, float]) -> list[tuple[str, float]]:
        return sorted(seconds.items(), key=lambda kv: -kv[1])

    return {
        "ops": len(roots),
        "coverage": sum(by_name.values()) / op_wall,
        "rows": [
            {
                "span": name, "layer": layer_of[name],
                "self_ms_per_op": seconds * 1e3 / max(1, len(roots)),
                "share": seconds / op_wall,
            }
            for name, seconds in largest_first(by_name)
        ],
        "by_kind": {
            kind: {
                name: seconds / (kind_wall[kind] or 1.0)
                for name, seconds in largest_first(names)
            }
            for kind, names in sorted(by_kind.items())
        },
    }
