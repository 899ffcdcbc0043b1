"""Self-verification sweep: every array against the reference algebra.

``python -m repro selftest`` (or :func:`run_selftest`) runs each
systolic operator — both geometry variants where they exist, with
ghost-tag schedule verification on — over seeded random workloads and
checks every answer against the software oracle.  This is the 30-second
"is this installation computing what the paper says" check a downstream
user runs before trusting the library.

The §8 blocked operators get the audit their serving path does not
pay for: a vectorized engine answers a whole blocked problem from one
kernel run, and re-running blocks through the tap decoders beside it
costs several times the operation (docs/PERF.md, "tap decode"), so
the comparison lives here — each operator on a device a third of the
problem's size and narrower than its tuples, under both grid variants (counter
blocks, and §8's held B blocks with A streamed past), the one-run
kernel against every block run read off its tagged taps, against the
software oracle, and the pulse total against :mod:`repro.perf.cost`.  Three more cases have a
fixed size whatever the sweep's: an intersection with ``n · n · 3``
compared elements above the lattice engine's packing floor, so the
packed-key kernel is audited too (its blocks, one device each, stay
below the floor), and an intersection and a remove-duplicates with
twice as many rows a side as the larger of the two vectorized engines'
rank crossovers, so each engine's ranked membership kernel is held to
block runs that compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from repro.arrays import (
    ArrayCapacity,
    blocked_difference,
    blocked_intersection,
    blocked_join,
    blocked_remove_duplicates,
    blocked_union,
    systolic_difference,
    systolic_divide,
    systolic_dynamic_theta_join,
    systolic_intersection,
    systolic_join,
    systolic_projection,
    systolic_remove_duplicates,
    systolic_theta_join,
    systolic_union,
)
from repro.arrays.decode import blocked_verdicts, blockwise_verdicts
from repro.arrays.hexagonal import hex_compare_all_pairs
from repro.arrays import compare_all_pairs
from repro.patterns import match_pattern
from repro.perf.cost import comparison_cost, join_cost
from repro.relational import algebra
from repro.systolic.engine import (
    BitplaneEngine,
    BlockedPlan,
    LatticeEngine,
    resolve_backend,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine.lattice import _PACK_MIN_ELEMENTS
from repro.systolic.engine.schedule import VARIANTS
from repro.workloads import (
    division_workload,
    join_pair,
    overlapping_pair,
    relation_with_duplicates,
)

__all__ = ["CheckResult", "SelfTestReport", "run_selftest"]


@dataclass
class CheckResult:
    """One operator check: name, verdict, and a short detail line."""

    name: str
    passed: bool
    detail: str


@dataclass
class SelfTestReport:
    """All checks from one sweep."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff every check passed."""
        return all(check.passed for check in self.checks)

    def summary(self) -> str:
        """Human-readable scoreboard."""
        lines = []
        for check in self.checks:
            mark = "ok " if check.passed else "FAIL"
            lines.append(f"  [{mark}] {check.name:<28} {check.detail}")
        verdict = "ALL CHECKS PASSED" if self.passed else "CHECKS FAILED"
        lines.append(f"{verdict} ({len(self.checks)} checks)")
        return "\n".join(lines)


def _check(
    report: SelfTestReport, name: str, thunk: Callable[[], str]
) -> None:
    try:
        detail = thunk()
        report.checks.append(CheckResult(name, True, detail))
    except Exception as exc:  # noqa: BLE001 — a self-test reports, not raises
        report.checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))


def run_selftest(
    seed: int = 0, size: int = 8, backend=None
) -> SelfTestReport:
    """Run the sweep; deterministic per (seed, size).

    ``backend`` selects the array execution backend for every systolic
    operator (``"pulse"`` default, or ``"lattice"``).
    """
    report = SelfTestReport()
    a, b = overlapping_pair(size, size, size // 2, arity=3, seed=seed)
    multi = relation_with_duplicates(size, 2.0, arity=2, seed=seed + 1)
    ja, jb = join_pair(size, size - 1, size // 2, seed=seed + 2)
    da, db, quotient_size = division_workload(size // 2, 3, size // 4,
                                              seed=seed + 3)

    def agree(result, oracle, extra: str = "") -> str:
        if result != oracle:
            raise AssertionError(
                f"array produced {len(result)} tuples, oracle {len(oracle)}"
            )
        return f"{len(result)} tuples{extra}"

    for variant in ("counter", "fixed"):
        _check(report, f"intersection [{variant}]", lambda v=variant: agree(
            systolic_intersection(
                a, b, variant=v, tagged=True, backend=backend
            ).relation,
            algebra.intersection(a, b),
        ))
        _check(report, f"difference [{variant}]", lambda v=variant: agree(
            systolic_difference(
                a, b, variant=v, tagged=True, backend=backend
            ).relation,
            algebra.difference(a, b),
        ))
        _check(report, f"remove-duplicates [{variant}]", lambda v=variant: agree(
            systolic_remove_duplicates(
                multi, variant=v, tagged=True, backend=backend
            ).relation,
            algebra.remove_duplicates(multi),
        ))
    _check(report, "union", lambda: agree(
        systolic_union(a, b, tagged=True, backend=backend).relation,
        algebra.union(a, b),
    ))
    _check(report, "projection", lambda: agree(
        systolic_projection(
            a, ["c0", "c1"], tagged=True, backend=backend
        ).relation,
        algebra.project(a, ["c0", "c1"]),
    ))
    _check(report, "equi-join", lambda: agree(
        systolic_join(
            ja, jb, [("key", "key")], tagged=True, backend=backend
        ).relation,
        algebra.join(ja, jb, [("key", "key")]),
    ))
    _check(report, "theta-join (preloaded <)", lambda: agree(
        systolic_theta_join(
            ja, jb, [("key", "key")], ["<"], tagged=True, backend=backend
        ).relation,
        algebra.theta_join(ja, jb, [("key", "key")], ["<"]),
    ))
    _check(report, "theta-join (streamed ops)", lambda: agree(
        systolic_dynamic_theta_join(
            ja, jb, [("key", "key")], ["<="], tagged=True, backend=backend
        ).relation,
        algebra.theta_join(ja, jb, [("key", "key")], ["<="]),
    ))
    _check(report, "division", lambda: agree(
        systolic_divide(da, db, tagged=True, backend=backend).relation,
        algebra.divide(da, db),
        extra=f" (expected quotient {quotient_size})",
    ))
    _check(report, "hexagonal comparison", lambda: agree_matrix(
        hex_compare_all_pairs(a.tuples, b.tuples, backend=backend).t_matrix,
        compare_all_pairs(a.tuples, b.tuples, backend=backend).t_matrix,
    ))
    _check(report, "pattern-match chip", _pattern_check)
    _blocked_checks(report, a, b, multi, ja, jb, size, seed, backend)
    return report


def _device(size: int, max_cols: int) -> ArrayCapacity:
    """About three blocks a side of ``size`` tuples, the last ragged."""
    return ArrayCapacity(2 * (size // 3 + 1) - 1, max_cols=max_cols)


def _blocked_checks(
    report, a, b, multi, ja, jb, size: int, seed: int, backend
) -> None:
    """One check per §8 blocked operator (see the module docstring),
    one intersection large enough that the vectorized engines compare
    it with the packed-key kernel, and an intersection and a
    remove-duplicates large enough that both of them rank it."""
    engine = resolve_backend(backend)
    wide = _device(size, max_cols=2)    # tuples have 3 columns
    narrow = _device(size, max_cols=1)  # the θ-join has 2
    both = a.to_multi().concat(b)
    n = math.isqrt(_PACK_MIN_ELEMENTS // 3) + 1  # n·n·3 above the floor
    big_a, big_b = overlapping_pair(n, n, n // 2, arity=3, seed=seed)
    big = _device(n, max_cols=2)
    r = 2 * max(LatticeEngine._RANK_MIN_ROWS, BitplaneEngine._RANK_MIN_ROWS)
    rank_a, rank_b = overlapping_pair(r, r, r // 2, arity=3, seed=seed)
    rank_multi = relation_with_duplicates(r // 2, 2.0, seed=seed + 4)
    ranked = _device(r, max_cols=2)
    on, ops = [("key", "key"), ("a0", "b0")], ["<=", "!="]
    seeded, lower = dict(t_init=t_init_true), dict(t_init=t_init_strict_lower)

    def audited(operator, oracle, cost, capacity, a_matrix, b_matrix, reduce,
                grid) -> str:
        expected = oracle()
        runs = []
        for variant in VARIANTS:
            relation, blocked = operator(variant)
            if relation != expected:
                raise AssertionError(
                    f"{variant} array produced {len(relation)} tuples, "
                    f"oracle {len(expected)}"
                )
            plan = BlockedPlan(
                a_matrix, b_matrix, capacity.max_rows, capacity.max_cols,
                reduce, variant=variant, **grid,
            )
            run = engine.run(plan)
            by_blocks, pulses = blockwise_verdicts(
                plan,
                lambda grid_plan: engine.run(replace(grid_plan, tagged=True)),
            )
            if not np.array_equal(blocked_verdicts(run, plan), by_blocks):
                raise AssertionError(
                    f"{variant}: the one-run kernel and the block runs' "
                    f"taps disagree"
                )
            predicted = cost(
                plan.n_a, plan.n_b, plan.arity, capacity.max_rows,
                capacity.max_cols, variant,
            )
            if (len({blocked.total_pulses, run.pulses, pulses,
                     predicted.total_pulses}) != 1
                    or blocked.block_runs != predicted.block_runs):
                raise AssertionError(
                    f"{variant} pulses: operator {blocked.total_pulses}, "
                    f"kernel {run.pulses}, block runs {pulses}, perf.cost "
                    f"{predicted.total_pulses}"
                )
            runs.append(
                f"{variant} {blocked.block_runs} block runs, {pulses} pulses"
            )
        return f"{len(expected)} tuples, " + "; ".join(runs)

    for name, *case in (
        ("intersection",
         lambda v: blocked_intersection(a, b, wide, backend=backend,
                                        variant=v),
         lambda: algebra.intersection(a, b),
         comparison_cost, wide, a.array, b.array, "rows", seeded),
        ("difference",
         lambda v: blocked_difference(a, b, wide, backend=backend,
                                      variant=v),
         lambda: algebra.difference(a, b),
         comparison_cost, wide, a.array, b.array, "rows", seeded),
        ("remove-duplicates",
         lambda v: blocked_remove_duplicates(multi, wide, backend=backend,
                                             variant=v),
         lambda: algebra.remove_duplicates(multi),
         comparison_cost, wide, multi.array, multi.array, "rows", lower),
        ("union",
         lambda v: blocked_union(a, b, wide, backend=backend, variant=v),
         lambda: algebra.union(a, b),
         comparison_cost, wide, both.array, both.array, "rows", lower),
        ("equi-join",
         lambda v: blocked_join(ja, jb, on[:1], narrow, backend=backend,
                                variant=v),
         lambda: algebra.join(ja, jb, on[:1]),
         join_cost, narrow, ja.array[:, :1], jb.array[:, :1], "pairs",
         dict(ops=("==",))),
        ("theta-join",
         lambda v: blocked_join(ja, jb, on, narrow, ops=ops,
                                backend=backend, variant=v),
         lambda: algebra.theta_join(ja, jb, on, ops),
         join_cost, narrow, ja.array[:, :2], jb.array[:, :2], "pairs",
         dict(ops=tuple(ops))),
        (f"intersection {n}x{n}",
         lambda v: blocked_intersection(big_a, big_b, big, backend=backend,
                                        variant=v),
         lambda: algebra.intersection(big_a, big_b),
         comparison_cost, big, big_a.array, big_b.array, "rows", seeded),
        (f"intersection {r}x{r}",
         lambda v: blocked_intersection(rank_a, rank_b, ranked,
                                        backend=backend, variant=v),
         lambda: algebra.intersection(rank_a, rank_b),
         comparison_cost, ranked, rank_a.array, rank_b.array, "rows", seeded),
        (f"remove-duplicates {r}x{r}",
         lambda v: blocked_remove_duplicates(rank_multi, ranked,
                                             backend=backend, variant=v),
         lambda: algebra.remove_duplicates(rank_multi),
         comparison_cost, ranked, rank_multi.array, rank_multi.array, "rows",
         lower),
    ):
        _check(report, f"blocked {name}", partial(audited, *case))


def agree_matrix(got, want) -> str:
    """Compare two T matrices; detail line reports the TRUE count."""
    if got != want:
        raise AssertionError("hexagonal and orthogonal T matrices differ")
    return f"{sum(map(sum, got))} TRUE entries"


def _pattern_check() -> str:
    text = "reproducibility is systolic"
    matches = match_pattern(text, "s?st").matches
    expected = [
        i for i in range(len(text) - 3)
        if text[i] == "s" and text[i + 2 : i + 4] == "st"
    ]
    if matches != expected:
        raise AssertionError(f"{matches} != {expected}")
    return f"{len(matches)} matches"
