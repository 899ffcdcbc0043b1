"""E13 — the integrated systolic system of Fig 9-1 (§9).

Claims reproduced: a multi-operation transaction pipelines through the
crossbar from memories to devices and back; independent operations run
concurrently ("due to the crossbar structure, several operations may be
run concurrently"); the tree machine (ref [9]) is a comparable but
differently-shaped alternative.
"""

from __future__ import annotations

from repro.lang import parse
from repro.machine import SystolicDatabaseMachine, TreeMachine
from repro.relational import algebra
from repro.workloads import join_pair, overlapping_pair


def _loaded_machine():
    machine = SystolicDatabaseMachine()
    a, b = overlapping_pair(40, 36, 14, arity=3, seed=130)
    ja, jb = join_pair(32, 28, 12, seed=131)
    machine.store("A", a)
    machine.store("B", b)
    machine.store("JA", ja)
    machine.store("JB", jb)
    return machine, a, b, ja, jb


def test_transaction_concurrency(benchmark, experiment_report):
    """E13: independent ops overlap on the crossbar."""

    def run():
        machine, a, b, ja, jb = _loaded_machine()
        plans = [
            parse("intersect(A, B)"),
            parse("join(JA, JB, key == key)"),
            parse("difference(A, B)"),
        ]
        results, report = machine.run_many(plans)
        return machine, results, report, a, b, ja, jb

    machine, results, report, a, b, ja, jb = benchmark(run)
    assert results[0] == algebra.intersection(a, b)
    assert results[1] == algebra.join(ja, jb, [("key", "key")])
    assert results[2] == algebra.difference(a, b)

    experiment_report("E13 Fig 9-1 machine: 3-operation transaction", [
        ("operations + loads scheduled", "7", str(len(report.steps))),
        ("makespan", "< serial sum",
         f"{report.makespan * 1e3:.2f} ms"),
        ("serial sum", "-", f"{report.serial_seconds * 1e3:.2f} ms"),
        ("concurrency speedup", "> 1",
         f"{report.concurrency_speedup:.2f}x"),
        ("peak concurrent crossbar links", ">= 2",
         str(machine.crossbar.concurrency_profile())),
        ("crossbar reconfigurations", "per §9, one per op stream",
         str(machine.crossbar.configurations())),
    ])
    assert report.makespan <= report.serial_seconds
    assert machine.crossbar.concurrency_profile() >= 2


def test_pipeline_through_multiple_devices(benchmark, experiment_report):
    """E13b: one plan crossing join → comparison devices."""

    def run():
        machine, *_ , ja, jb = _loaded_machine()
        plan = parse("project(join(JA, JB, key == key), key, a0)")
        result, report = machine.run(plan)
        return result, report, ja, jb

    result, report, ja, jb = benchmark(run)
    expected = algebra.project(
        algebra.join(ja, jb, [("key", "key")]), ["key", "a0"]
    )
    assert result == expected
    devices = [step.device for step in report.steps]
    experiment_report("E13b multi-device pipeline (join → project)", [
        ("devices visited", "disk, join0, comparison0",
         ", ".join(sorted(set(devices)))),
        ("result tuples", str(len(expected)), str(len(result))),
        ("makespan", "-", f"{report.makespan * 1e3:.2f} ms"),
    ])


def test_tree_machine_comparison(benchmark, experiment_report):
    """E13c: §9's comparison target — Song's tree machine.

    Same answers; the architectural contrast the paper defers to future
    work: the tree serializes result extraction through its root, while
    the systolic join array emits matches along its whole edge.
    """
    _, a, b, ja, jb = _loaded_machine()
    tree = TreeMachine(leaves=64)

    inter_run = benchmark(lambda: tree.intersection(a, b))
    join_run = tree.join(ja, jb, [(0, 0)])
    assert inter_run.relation == algebra.intersection(a, b)
    assert join_run.relation == algebra.join(ja, jb, [(0, 0)])

    from repro.systolic.engine.schedule import CounterStreamSchedule

    systolic_pulses = CounterStreamSchedule(len(a), len(b), a.arity).total_pulses
    experiment_report("E13c tree machine (ref [9]) vs systolic array", [
        ("intersection answers agree", "yes", "yes"),
        ("tree cycles (intersection)", "-", str(inter_run.cycles)),
        ("systolic pulses (intersection)", "-", str(systolic_pulses)),
        ("tree join pays per-match extraction", "+|C| cycles",
         f"+{len(join_run.relation)} cycles"),
        ("tree comparisons", str(len(a) * len(b)),
         str(inter_run.comparisons)),
    ])


def test_device_scaling_throughput(benchmark, experiment_report):
    """E13d: more devices of a kind absorb a burst of transactions.

    Four comparison-heavy plans arrive together; the §9 machine with
    one intersection device serializes them, with two it overlaps.
    """
    from repro.machine import SystolicDatabaseMachine
    from repro.machine.plan import (
        DEVICE_COMPARISON, DEVICE_DIVISION, DEVICE_JOIN,
    )

    def burst(comparison_devices: int):
        machine = SystolicDatabaseMachine(
            memories=12,
            devices=(
                (DEVICE_COMPARISON, comparison_devices),
                (DEVICE_JOIN, 1),
                (DEVICE_DIVISION, 1),
            ),
        )
        # Disjoint inputs, already resident in memories (outputs of an
        # earlier transaction, §9) — so the devices, not the single
        # disk channel or shared memory ports, are the bottleneck.
        for index in range(4):
            a, b = overlapping_pair(120, 110, 40, arity=3, seed=132 + index)
            machine.preload(f"A{index}", a)
            machine.preload(f"B{index}", b)
        plans = [
            parse(f"intersect(A{index}, B{index})") for index in range(4)
        ]
        _, report = machine.run_many(plans)
        device_busy = {
            name: busy for name, busy in report.device_busy_seconds().items()
            if name.startswith("comparison")
        }
        return report.makespan, len(device_busy)

    single_span, _ = burst(1)
    double_span, used = burst(2)
    benchmark(lambda: burst(2))
    experiment_report("E13d device scaling (4 comparison ops in a burst)", [
        ("1 comparison device", "ops serialize",
         f"{single_span * 1e3:.3f} ms makespan"),
        ("2 comparison devices", "ops overlap",
         f"{double_span * 1e3:.3f} ms makespan ({used} devices used)"),
        ("improvement", "~2x", f"{single_span / double_span:.2f}x"),
    ])
    assert double_span < single_span
    assert used == 2


def test_transaction_arrivals(benchmark, experiment_report):
    """E13e: §9's "set of transactions" arriving over time."""
    from repro.machine import SystolicDatabaseMachine

    def staggered():
        machine = SystolicDatabaseMachine()
        a, b = overlapping_pair(30, 30, 10, arity=2, seed=133)
        machine.store("A", a)
        machine.store("B", b)
        plans = [
            parse("intersect(A, B)"),
            parse("difference(A, B)"),
            parse("union(A, B)"),
        ]
        arrivals = [0.0, 0.040, 0.080]
        _, report = machine.run_many(plans, arrivals=arrivals)
        return report, arrivals

    report, arrivals = benchmark(staggered)
    rows = []
    labels = ["intersect", "difference", "union"]
    for label, arrival in zip(labels, arrivals):
        step = next(s for s in report.steps if s.label == label)
        rows.append((
            f"{label} arrives at {arrival * 1e3:.0f} ms",
            "starts after arrival",
            f"starts {step.start * 1e3:.1f} ms, ends {step.end * 1e3:.1f} ms",
        ))
        assert step.start >= arrival
    experiment_report("E13e staggered transaction arrivals (§9)", rows)
