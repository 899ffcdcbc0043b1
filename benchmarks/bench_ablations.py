"""Ablations — what breaks (or slows) when a design rule is violated.

DESIGN.md calls out the load-bearing choices in the paper's schedules;
each ablation here removes one and measures the consequence:

* **two-pulse tuple spacing** (§3.2) — at one pulse, counter-moving
  tuples collide in the latches;
* **meeting-aligned t injection** (§3.1) — shift the stagger by one
  pulse and the partial result arrives without its element pair;
* **triangular masking** (§5) — feed all-TRUE inits to the dedup array
  and every tuple matches itself, so *everything* is dropped;
* **fixed-variant density** (§8) — feeding the fixed array at the
  counter-stream's two-pulse spacing still works but wastes half the
  pulses.
"""

from __future__ import annotations

import pytest

from repro.arrays.intersection import membership_plan
from repro.errors import SimulationError
from repro.systolic.cells import ComparisonCell
from repro.systolic.engine import GridPlan, t_init_true
from repro.systolic.engine.materialize import materialize
from repro.systolic.engine.plan import cmp_name
from repro.systolic.engine.schedule import CounterStreamSchedule, FixedRelationSchedule
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import ConstantFeeder, PeriodicFeeder, ScheduleFeeder
from repro.systolic.values import Token
from repro.systolic.wiring import Network
from repro.workloads import overlapping_pair, relation_with_duplicates


def test_tuple_spacing_violation_detected(benchmark, experiment_report):
    """Feeding tuples 1 pulse apart makes counter-moving tokens collide."""
    a, b = overlapping_pair(4, 4, 2, arity=1, seed=170)
    schedule = CounterStreamSchedule(4, 4, 1)

    def broken_run():
        # A network built by hand, both feeds overdriven: period 1
        # instead of the required 2.
        dense = Network("dense")
        for row in range(schedule.rows):
            dense.add(ComparisonCell(cmp_name(row, 0), require_t=False))
        for row in range(schedule.rows - 1):
            dense.connect(cmp_name(row, 0), "a_out", cmp_name(row + 1, 0), "a_in")
            dense.connect(cmp_name(row + 1, 0), "b_out", cmp_name(row, 0), "b_in")
        dense.feed(cmp_name(0, 0), "a_in",
                   PeriodicFeeder([Token(v[0]) for v in a.tuples], 0, 1))
        dense.feed(cmp_name(0, 0), "b_in",  # same end: collide head-on
                   PeriodicFeeder([Token(v[0]) for v in b.tuples], 0, 1))
        SystolicSimulator(dense).run(schedule.total_pulses)

    with pytest.raises(SimulationError, match="two tokens|already driven"):
        broken_run()

    result = benchmark(lambda: SystolicSimulator(
        _intersection_network(a, b)
    ).run(schedule.total_pulses))
    experiment_report("ABL1 tuple spacing (two pulses, §3.2)", [
        ("spacing = 1 pulse", "latch collision",
         "detected (SimulationError)"),
        ("spacing = 2 pulses", "correct", "correct"),
    ])
    assert result is not None


def _intersection_network(a, b):
    network, _ = materialize(membership_plan(
        a.array, b.array, "counter", False, "intersection-array"
    ))
    return network


class _LateInits(CounterStreamSchedule):
    """§3.1's stagger shifted by one pulse: every t init arrives late."""

    def t_init_pulse(self, i: int, j: int) -> int:
        return super().t_init_pulse(i, j) + 1


def test_misaligned_t_injection_detected(benchmark, experiment_report):
    """Shifting the t-inits one pulse breaks §3.1's right-place-right-time."""
    a, b = overlapping_pair(3, 3, 1, arity=2, seed=171)
    schedule = CounterStreamSchedule(3, 3, 2)

    def misaligned():
        network, _ = materialize(GridPlan(
            a.tuples, b.tuples, _LateInits(3, 3, 2), t_init=t_init_true,
            row_taps=True,
        ))
        SystolicSimulator(network).run(schedule.comparison_pulses + 2)

    with pytest.raises(SimulationError, match="mis-staggered|missed this meeting"):
        misaligned()

    benchmark(lambda: SystolicSimulator(
        _intersection_network(a, b)
    ).run(schedule.total_pulses))
    experiment_report("ABL2 t-injection alignment (§3.1)", [
        ("inits shifted +1 pulse", "partial result meets no pair",
         "detected (SimulationError)"),
        ("inits on meeting pulses", "correct", "correct"),
    ])


def test_triangular_mask_is_load_bearing(benchmark, experiment_report):
    """Dedup without the §5 mask drops every tuple (self-matches)."""
    multi = relation_with_duplicates(6, 2.0, arity=2, seed=172)
    schedule = CounterStreamSchedule(len(multi), len(multi), 2)

    def run_with_init(t_init):
        network, _ = materialize(membership_plan(
            multi.array, multi.array, "counter", False,
            "remove-duplicates-array", t_init,
        ))
        simulator = SystolicSimulator(network).run(schedule.total_pulses)
        drop = {}
        for pulse, token in simulator.collector("t_i"):
            drop[schedule.tuple_from_accumulator_exit(pulse)] = bool(token.value)
        return [drop[i] for i in range(len(multi))]

    masked = run_with_init(lambda i, j: j < i)
    unmasked = run_with_init(lambda i, j: True)
    benchmark(lambda: run_with_init(lambda i, j: j < i))

    kept_masked = sum(1 for d in masked if not d)
    kept_unmasked = sum(1 for d in unmasked if not d)
    experiment_report("ABL3 triangular masking in dedup (§5)", [
        ("with mask (j < i)", "6 distinct kept", f"{kept_masked} kept"),
        ("without mask", "0 kept (every tuple equals itself)",
         f"{kept_unmasked} kept"),
    ])
    assert kept_masked == 6
    assert kept_unmasked == 0


def test_fixed_variant_feeding_density(benchmark, experiment_report):
    """Feeding the fixed array at 2-pulse spacing works but wastes pulses."""
    a, b = overlapping_pair(12, 6, 3, arity=2, seed=173)
    schedule = FixedRelationSchedule(12, 6, 2)

    def run_with_period(period):
        # Built by hand, with the chosen A period and per-meeting inits.
        net = Network(f"fixed-period-{period}")
        rows, cols = schedule.rows, schedule.arity
        for row in range(rows):
            for col in range(cols):
                net.add(ComparisonCell(cmp_name(row, col)))
                net.feed(cmp_name(row, col), "b_in",
                         ConstantFeeder(Token(b.tuples[row][col])))
        for row in range(rows):
            for col in range(cols):
                if row + 1 < rows:
                    net.connect(cmp_name(row, col), "a_out",
                                cmp_name(row + 1, col), "a_in")
                if col + 1 < cols:
                    net.connect(cmp_name(row, col), "t_out",
                                cmp_name(row, col + 1), "t_in")
        for col in range(cols):
            net.feed(cmp_name(0, col), "a_in", PeriodicFeeder(
                [Token(row[col]) for row in a.tuples], start=col,
                period=period,
            ))
        for row in range(rows):
            net.feed(cmp_name(row, 0), "t_in", ScheduleFeeder({
                period * i + row: Token(True) for i in range(len(a))
            }))
        net.tap("last", cmp_name(rows - 1, cols - 1), "t_out")
        pulses = period * (len(a) - 1) + rows + cols + 2
        simulator = SystolicSimulator(net)
        simulator.run(pulses)
        return len(simulator.collector("last")), pulses

    dense_results, dense_pulses = run_with_period(1)
    sparse_results, sparse_pulses = run_with_period(2)
    benchmark(lambda: run_with_period(1))
    experiment_report("ABL4 fixed-variant feeding density (§8)", [
        ("period 1 (dense)", "correct, fewest pulses",
         f"{dense_results} results in {dense_pulses} pulses"),
        ("period 2 (counter-stream spacing)", "correct, ~2× pulses",
         f"{sparse_results} results in {sparse_pulses} pulses"),
    ])
    assert dense_results == sparse_results  # same last-row result count
    assert sparse_pulses > 1.5 * dense_pulses
