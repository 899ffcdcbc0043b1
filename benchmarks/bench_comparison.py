"""E1 + E2 — the comparison arrays of Fig 3-1 and Fig 3-3.

Paper claims reproduced:

* a linear array compares an m-element tuple pair in exactly m pulses
  (§3.1);
* the 2-D array pipelines all n_A·n_B comparisons and finishes in
  O(n + m) pulses, not O(n²·m) (§3.2);
* the data movement matches the Fig 3-4 snapshot discipline.
"""

from __future__ import annotations

from repro.arrays import compare_all_pairs, compare_tuples
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.workloads import random_relation


def test_linear_comparison_pulse_count(benchmark, experiment_report):
    """E1: one tuple comparison in m pulses."""
    arity = 8
    a = list(range(arity))

    result = benchmark(lambda: compare_tuples(a, a))
    assert result.equal
    experiment_report("E1  Fig 3-1 linear comparison array (m = 8)", [
        ("pulses to compare one pair", "m = 8", str(result.run.pulses)),
        ("result exits on pulse", "m - 1 = 7", str(result.result_pulse)),
        ("processors used", "m = 8", str(result.run.cells)),
    ])


def test_two_dimensional_pipelining(benchmark, experiment_report):
    """E2: n² comparisons in O(n + m) pulses on the Fig 3-3 array."""
    n, arity = 12, 4
    a = random_relation(n, arity, seed=101)
    b = random_relation(n, arity, seed=202)
    schedule = CounterStreamSchedule(n, n, arity)

    result = benchmark(lambda: compare_all_pairs(a.tuples, b.tuples))

    total_pairs = n * n
    sequential_steps = total_pairs * arity  # one comparison per step
    experiment_report(f"E2  Fig 3-3 2-D comparison array ({n}×{n}, m={arity})", [
        ("tuple pairs compared", str(total_pairs), str(total_pairs)),
        ("pulses (pipelined)", f"O(n+m) = {schedule.comparison_pulses}",
         str(result.run.pulses)),
        ("sequential element steps", str(sequential_steps),
         str(sequential_steps)),
        ("pipelining speedup", "~n²m/(4n+m)",
         f"{sequential_steps / result.run.pulses:.1f}x"),
        ("processor rows", f"2n-1 = {2 * n - 1}", str(result.run.rows)),
    ])
    assert result.run.pulses == schedule.comparison_pulses
    # The whole point: quadratic work in linear pulses.
    assert result.run.pulses < total_pairs


def test_comparison_scaling_is_linear_in_n(benchmark, experiment_report):
    """E2b: doubling n doubles pulses (and quadruples comparisons)."""
    arity = 3
    pulses = {}
    for n in (4, 8, 16):
        a = random_relation(n, arity, seed=n)
        b = random_relation(n, arity, seed=n + 1)
        pulses[n] = compare_all_pairs(a.tuples, b.tuples).run.pulses

    benchmark(lambda: compare_all_pairs(
        random_relation(16, arity, seed=16).tuples,
        random_relation(16, arity, seed=17).tuples,
    ))
    experiment_report("E2b pulse count vs n (m = 3)", [
        (f"n = {n}", f"3n+m-3 = {3 * n + arity - 3}", str(p))
        for n, p in pulses.items()
    ])
    for n in (4, 8):
        assert pulses[2 * n] < 2.2 * pulses[n]
