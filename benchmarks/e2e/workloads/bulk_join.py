"""``bulk_join`` — a block-decomposed equi-join, one machine vs two shards.

In-process :class:`~repro.machine.EnginePool` with a single lattice
join device (the ``bench_shard`` pool shape).  The same join runs three
ways through the same device/engine path: on one machine, on two
co-partitioned shards, and on two shards joined on a non-key column so
that both sides cross the costed exchange.
"""

from __future__ import annotations

import time

from repro.arrays import ArrayCapacity
from repro.machine import Base, EnginePool, Join
from repro.relational import algebra
from repro.systolic.engine import LatticeEngine
from repro.workloads import join_pair

from benchmarks.e2e.harness import Op, Outcome, Workload, digest_rows

__all__ = ["BulkJoin"]

ROWS_A = 4096
ROWS_B = 64
#: join-device height: 512-tuple blocks, so |JA| streams in 8 block runs.
DEVICE_ROWS = 1023
REPEATS = 4  # of each kind per round

KEY_JOIN = Join(Base("JA"), Base("JB"), on=(("key", "key"),))
NONKEY_JOIN = Join(Base("JA"), Base("JB"), on=(("a0", "b0"),))


class BulkJoin(Workload):
    name = "bulk_join"

    def setup(self) -> None:
        self.ja, self.jb = join_pair(
            ROWS_A, ROWS_B, ROWS_B, universe=ROWS_A + ROWS_B, seed=self.seed
        )
        capacity = ArrayCapacity(max_rows=DEVICE_ROWS, max_cols=8)
        pool = EnginePool(
            devices=(("join", 1, capacity),),
            capacity=capacity,
            memory_bytes=512 * 1024 * 1024,
            backend=LatticeEngine(chunk_bytes=128 * 1024 * 1024),
        )
        self.solo = pool.session("solo", shards=1, parallel=True)
        self.pair = pool.session("pair", shards=2, parallel=True)
        self.solo.store("JA", self.ja)
        self.solo.store("JB", self.jb)
        started = time.perf_counter()
        self.pair.store("JA", self.ja, key="key")
        self.pair.store("JB", self.jb, key="key")
        self.setup_metrics["shard.partition_ms"] = (
            (time.perf_counter() - started) * 1e3
        )
        # Cold compiles: every later op hits the plan cache.  Exchange-free
        # plans are costed from catalog truth, so their prediction must
        # equal the simulated makespan exactly.
        self.predicted = {
            "join_1shard": self.solo.compile(KEY_JOIN).predicted_makespan,
            "join_2shard": self.pair.compile(KEY_JOIN).predicted_makespan,
        }
        self.prediction_error = 0.0

    def describe(self) -> str:
        return (
            f"|JA|={ROWS_A} |JB|={ROWS_B}, one {DEVICE_ROWS}-row lattice "
            f"join device, {REPEATS} of each kind per round"
        )

    def _check(self, kind: str, exchanges: bool, raw) -> Outcome:
        results, report = raw
        exchanged = len(getattr(report, "exchanges", ()))
        if bool(exchanged) != exchanges:
            raise AssertionError(
                f"{kind}: planned {exchanged} exchanges, expected "
                f"{'some' if exchanges else 'none'}"
            )
        predicted = self.predicted.get(kind)
        if predicted is not None:
            error = abs(predicted - report.makespan) / report.makespan
            self.prediction_error = max(self.prediction_error, error)
            if error > 1e-6:
                raise AssertionError(
                    f"{kind}: predicted {predicted} s, simulated "
                    f"{report.makespan} s"
                )
        relation = results[0]
        return Outcome(
            rows=len(relation),
            digest=digest_rows(relation.tuples),
            sim_ms=report.makespan * 1e3,
        )

    def ops(self) -> list[Op]:
        def reference(on):
            def run() -> tuple[int, str]:
                expected = algebra.join(self.ja, self.jb, [on])
                return len(expected), digest_rows(expected.tuples)
            return run

        key_ref = reference(("key", "key"))
        nonkey_ref = reference(("a0", "b0"))
        kinds = [
            ("join_1shard", self.solo, KEY_JOIN, False, key_ref, "key"),
            ("join_2shard", self.pair, KEY_JOIN, False, key_ref, "key"),
            ("join_repartition_2shard", self.pair, NONKEY_JOIN, True,
             nonkey_ref, "nonkey"),
        ]
        ops = []
        for kind, session, plan, exchanges, ref, key in kinds:
            def run(session=session, plan=plan):
                return session.run_many([plan])

            def reduce(raw, kind=kind, exchanges=exchanges) -> Outcome:
                return self._check(kind, exchanges, raw)

            ops.extend(
                Op(kind, run, reduce, ref, key) for _ in range(REPEATS)
            )
        return ops
