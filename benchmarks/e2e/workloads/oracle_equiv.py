"""``oracle_equiv`` — the cost model of the equivalence suites.

No machine: one operation is one differential check through the public
``repro.arrays`` runners.  The ``eq_*`` kinds run identical inputs on
the pulse, lattice and bitplane engines and require the same relation
and the same pulse count from all three; ``fast_pair`` runs only the
two vectorized engines on a problem the pulse engine could not finish.
"""

from __future__ import annotations

from repro import arrays
from repro.perf.technology import PAPER_CONSERVATIVE
from repro.relational import algebra
from repro.relational.relation import MultiRelation
from repro.workloads import (
    division_workload,
    join_pair,
    overlapping_pair,
    random_relation,
)

from benchmarks.e2e.harness import Op, Outcome, Workload, digest_rows

__all__ = ["OracleEquiv"]

ALL_ENGINES = ("pulse", "lattice", "bitplane")
FAST_ENGINES = ("lattice", "bitplane")
EQ_REPEATS = 5  # of each eq_* kind per round
FAST_REPEATS = 8
FAST_ROWS = 1024


class OracleEquiv(Workload):
    name = "oracle_equiv"

    def setup(self) -> None:
        seed = self.seed
        self.inter = overlapping_pair(24, 24, 8, arity=3, seed=seed)
        # Every tuple twice: a fixed shape, so the pulse engine's work
        # (quadratic in the row count) does not move with the seed.
        distinct = random_relation(12, 3, seed=seed)
        self.dups = MultiRelation(distinct.schema, distinct.tuples * 2)
        self.join = join_pair(32, 32, 10, seed=seed)
        self.dividend, self.divisor, _ = division_workload(
            16, 4, 5, seed=seed
        )
        self.fast = overlapping_pair(
            FAST_ROWS, FAST_ROWS, FAST_ROWS // 3, arity=3, universe=100_000,
            seed=seed,
        )

    def describe(self) -> str:
        return (
            f"eq_* on {'/'.join(ALL_ENGINES)}: intersect 24x24x3, dedup "
            f"{len(self.dups)}x3, join 32x32, divide {len(self.dividend)} "
            f"pairs / {len(self.divisor)}; fast_pair on "
            f"{'/'.join(FAST_ENGINES)}: intersect {FAST_ROWS}x{FAST_ROWS}x3"
        )

    @staticmethod
    def _agreed(kind: str, engines, results) -> Outcome:
        """Every engine must give the same relation and pulse count."""
        relation, pulses = results[0].relation, results[0].run.pulses
        for backend, result in zip(engines[1:], results[1:]):
            if (result.relation, result.run.pulses) != (relation, pulses):
                raise AssertionError(
                    f"{kind}: {backend} gave {len(result.relation)} rows in "
                    f"{result.run.pulses} pulses, {engines[0]} gave "
                    f"{len(relation)} in {pulses}"
                )
        return Outcome(
            rows=len(relation),
            digest=digest_rows(relation.tuples),
            sim_ms=PAPER_CONSERVATIVE.pulses_to_seconds(pulses) * 1e3,
        )

    def ops(self) -> list[Op]:
        a, b = self.inter
        ja, jb = self.join
        fa, fb = self.fast
        # Looked up on the module at call time, where the traced pass
        # puts its shims.
        kinds = [
            ("eq_intersect_24", ALL_ENGINES, EQ_REPEATS,
             lambda be: arrays.systolic_intersection(a, b, backend=be),
             lambda: algebra.intersection(a, b)),
            ("eq_dedup_24", ALL_ENGINES, EQ_REPEATS,
             lambda be: arrays.systolic_remove_duplicates(
                 self.dups, backend=be),
             lambda: algebra.remove_duplicates(self.dups)),
            ("eq_join_32", ALL_ENGINES, EQ_REPEATS,
             lambda be: arrays.systolic_join(
                 ja, jb, [("key", "key")], backend=be),
             lambda: algebra.join(ja, jb, [("key", "key")])),
            ("eq_divide_16", ALL_ENGINES, EQ_REPEATS,
             lambda be: arrays.systolic_divide(
                 self.dividend, self.divisor, backend=be),
             lambda: algebra.divide(self.dividend, self.divisor)),
            (f"fast_pair_{FAST_ROWS}", FAST_ENGINES, FAST_REPEATS,
             lambda be: arrays.systolic_intersection(fa, fb, backend=be),
             lambda: algebra.intersection(fa, fb)),
        ]
        ops = []
        for kind, engines, repeats, runner, oracle in kinds:
            def run(engines=engines, runner=runner) -> list:
                return [runner(backend) for backend in engines]

            def reduce(results, kind=kind, engines=engines) -> Outcome:
                return self._agreed(kind, engines, results)

            def reference(oracle=oracle) -> tuple[int, str]:
                expected = oracle()
                return len(expected), digest_rows(expected.tuples)

            ops.extend(
                Op(kind, run, reduce, reference, kind) for _ in range(repeats)
            )
        return ops
