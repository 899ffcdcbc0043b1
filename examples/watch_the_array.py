#!/usr/bin/env python3
"""Watch data pulse through the comparison array — Fig 3-4, animated.

Rebuilds the paper's 3×3 running example on the two-dimensional
comparison array, records every pulse with the trace recorder, and
renders the Fig 3-4-style grid for each step: relation A's elements
marching down, B's marching up, partial results rippling right.

Run:  python examples/watch_the_array.py
"""

from repro.arrays import compare_all_pairs
from repro.arrays.comparison_array import comparison_plan
from repro.systolic.engine import t_init_true
from repro.systolic.engine.materialize import materialize
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.trace import TraceRecorder, render_grid
from repro.workloads import three_by_three_pair


def label(ports) -> str:
    """Render a cell's contents like the paper: a over b, t to the side."""
    parts = []
    if "a_in" in ports:
        parts.append(f"a:{ports['a_in'].value}")
    if "b_in" in ports:
        parts.append(f"b:{ports['b_in'].value}")
    if "t_in" in ports:
        parts.append("T" if ports["t_in"].value else "F")
    return "/".join(parts)


def main() -> None:
    a, b = three_by_three_pair()
    print("relation A:", a.tuples)
    print("relation B:", b.tuples)
    print("(A and B share exactly one tuple — watch its T survive)\n")

    plan = comparison_plan(a.tuples, b.tuples, t_init_true, tagged=True)
    network, layout = materialize(plan)
    schedule = plan.schedule
    recorder = TraceRecorder()
    simulator = SystolicSimulator(network, observer=recorder)
    simulator.run(schedule.comparison_pulses)

    for pulse in range(schedule.comparison_pulses):
        snapshot = recorder.at(pulse)
        if not snapshot:
            continue
        print(f"--- pulse {pulse} "
              f"({sum(len(v) for v in snapshot.values())} tokens in flight)")
        print(render_grid(snapshot, layout, fmt=label))
        print()

    print("T matrix read off the right edge:")
    result = compare_all_pairs(a.tuples, b.tuples)
    for i, row in enumerate(result.t_matrix):
        print(f"  t[{i}] = {['T' if v else 'F' for v in row]}")


if __name__ == "__main__":
    main()
