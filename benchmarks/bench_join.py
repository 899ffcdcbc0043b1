"""E6 — the join array of Fig 6-1 and its §6.3 generalizations.

Claims reproduced: the array emits exactly the TRUE t_ij's off its
right edge; multi-column joins use one processor column per joined
column; non-equi-joins are the same array with a preloaded comparison
operator; output size can reach |A|·|B| in the degenerate case.
"""

from __future__ import annotations

from repro.arrays import systolic_join, systolic_theta_join
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.relational import Relation, algebra
from repro.workloads import integer_schema, join_pair


def test_single_column_equi_join(benchmark, experiment_report):
    """E6: the Fig 6-1 single-column join."""
    a, b = join_pair(12, 10, 6, seed=66)
    result = benchmark(lambda: systolic_join(a, b, [("key", "key")]))
    assert result.relation == algebra.join(a, b, [("key", "key")])
    schedule = CounterStreamSchedule(12, 10, 1)
    experiment_report("E6  Fig 6-1 join array (single column)", [
        ("t_ij produced", "120", str(12 * 10)),
        ("TRUE matches", "6", str(len(result.matches))),
        ("pulses", str(schedule.comparison_pulses), str(result.run.pulses)),
        ("processor columns", "1", str(result.run.cols)),
    ])


def test_degenerate_join_reaches_product_size(benchmark, experiment_report):
    """E6b: §6.2 — |C| may be as large as |A|·|B|."""
    schema = integer_schema(2)
    a = Relation(schema, [(1, i) for i in range(8)])
    b = Relation(schema, [(1, 100 + j) for j in range(8)])
    result = benchmark(lambda: systolic_join(a, b, [(0, 0)]))
    experiment_report("E6b degenerate join (all keys equal)", [
        ("|A|·|B|", "64", str(len(a) * len(b))),
        ("|C|", "64", str(len(result.relation))),
    ])
    assert len(result.relation) == 64


def test_multi_column_join(benchmark, experiment_report):
    """E6c: §6.3.1 — one processor column per joined column pair."""
    schema = integer_schema(3)
    a = Relation(schema, [(i % 3, i % 2, i) for i in range(12)])
    b = Relation(schema, [(j % 3, j % 2, 100 + j) for j in range(9)])
    on = [(0, 0), (1, 1)]
    result = benchmark(lambda: systolic_join(a, b, on))
    assert result.relation == algebra.join(a, b, on)
    experiment_report("E6c join over two columns (§6.3.1)", [
        ("processor columns", "2", str(result.run.cols)),
        ("matches", str(len(algebra.join(a, b, on))),
         str(len(result.matches))),
    ])


def test_non_equi_join(benchmark, experiment_report):
    """E6d: §6.3.2 — a greater-than-join on the same hardware."""
    schema = integer_schema(2)
    a = Relation(schema, [(i, 0) for i in range(0, 20, 2)])
    b = Relation(schema, [(j, 1) for j in range(5, 15, 3)])
    result = benchmark(
        lambda: systolic_theta_join(a, b, [(0, 0)], [">"])
    )
    expected = algebra.theta_join(a, b, [(0, 0)], [">"])
    assert result.relation == expected
    experiment_report("E6d greater-than-join (§6.3.2)", [
        ("operator preloaded", ">", ">"),
        ("matches", str(len(expected)), str(len(result.matches))),
        ("output arity (no column dropped)", "4",
         str(result.relation.arity)),
    ])
