"""E3 + E4 — the intersection array of Fig 4-1, and difference (§4.3).

Claims reproduced: the intersection array computes A ∩ B with the full
|A|·|B| pairwise comparison in O(n) pulses; the 3×3 walkthrough of
Fig 4-1 behaves as drawn; difference is the same hardware with the
output bit inverted.
"""

from __future__ import annotations

from repro.arrays import systolic_difference, systolic_intersection
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.relational import algebra
from repro.workloads import overlapping_pair, three_by_three_pair


def test_fig_41_walkthrough(benchmark, experiment_report):
    """E3: the paper's 3×3 running example."""
    a, b = three_by_three_pair()
    result = benchmark(lambda: systolic_intersection(a, b))
    assert result.relation == algebra.intersection(a, b)
    experiment_report("E3  Fig 4-1 intersection array (3×3 example)", [
        ("|A ∩ B|", "1", str(len(result.relation))),
        ("t vector", "F,T,F",
         ",".join("T" if t else "F" for t in result.t_vector)),
        ("array rows (2n-1)", "5", str(result.run.rows)),
        ("columns (m + accumulator)", "4", str(result.run.cols)),
        ("pulses", str(CounterStreamSchedule(3, 3, 3).total_pulses),
         str(result.run.pulses)),
    ])


def test_intersection_sweep(benchmark, experiment_report):
    """E3b: correctness and pulse counts across sizes and selectivities."""
    rows = []
    for n, overlap in ((8, 0), (8, 4), (8, 8), (16, 8), (24, 12)):
        a, b = overlapping_pair(n, n, overlap, arity=3, seed=n + overlap)
        result = systolic_intersection(a, b)
        assert result.relation == algebra.intersection(a, b)
        assert len(result.relation) == overlap
        schedule = CounterStreamSchedule(n, n, 3)
        rows.append((
            f"n={n:>2} overlap={overlap:>2}",
            f"{schedule.total_pulses} pulses",
            f"{result.run.pulses} pulses, |C|={len(result.relation)}",
        ))
    a, b = overlapping_pair(16, 16, 8, arity=3, seed=99)
    benchmark(lambda: systolic_intersection(a, b))
    experiment_report("E3b intersection sweep (pulses are O(n), not O(n²m))",
                      rows)


def test_difference_is_inverted_intersection(benchmark, experiment_report):
    """E4: §4.3 — same array, keep the FALSE rows."""
    a, b = overlapping_pair(10, 10, 4, arity=2, seed=77)
    inter = systolic_intersection(a, b)
    diff = benchmark(lambda: systolic_difference(a, b))
    assert diff.relation == algebra.difference(a, b)
    assert diff.t_vector == inter.t_vector  # identical hardware output
    experiment_report("E4  difference via inverted accumulation (§4.3)", [
        ("|A|", "10", str(len(a))),
        ("|A ∩ B|", "4", str(len(inter.relation))),
        ("|A − B|", "6", str(len(diff.relation))),
        ("t vectors identical", "yes",
         "yes" if diff.t_vector == inter.t_vector else "NO"),
        ("partition of A", "|∩| + |−| = |A|",
         f"{len(inter.relation)} + {len(diff.relation)} = "
         f"{len(inter.relation) + len(diff.relation)}"),
    ])


def test_semijoin_on_membership_hardware(benchmark, experiment_report):
    """E4b: semi-/anti-join — the §4 hardware fed with key columns only.

    Not an operator the paper names, but exactly its membership test
    applied to join columns: the array narrows from the full tuple
    width to the key width, and the §4.3 inverter flips semi into anti.
    """
    from repro.arrays.intersection import systolic_antijoin, systolic_semijoin
    from repro.relational.algebra import antijoin, semijoin
    from repro.workloads import join_pair

    a, b = join_pair(14, 10, 6, payload_arity=4, seed=88)
    on = [("key", "key")]
    semi = benchmark(lambda: systolic_semijoin(a, b, on))
    anti = systolic_antijoin(a, b, on)
    assert semi.relation == semijoin(a, b, on)
    assert anti.relation == antijoin(a, b, on)
    experiment_report("E4b semi-/anti-join on the §4 membership hardware", [
        ("|A| (5 columns wide)", "14", str(len(a))),
        ("|A ⋉ B|", "6", str(len(semi.relation))),
        ("|A ▷ B|", "8", str(len(anti.relation))),
        ("array width (keys only + acc)", "2", str(semi.run.cols)),
        ("partition of A", "⋉ + ▷ = |A|",
         f"{len(semi.relation)} + {len(anti.relation)} = "
         f"{len(semi.relation) + len(anti.relation)}"),
    ])
