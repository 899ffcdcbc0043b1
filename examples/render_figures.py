#!/usr/bin/env python3
"""Print the paper's figures, drawn from the live simulated hardware.

Every schematic below is rendered from an actually-constructed network
(the same objects the simulator drives), so diagram and implementation
cannot disagree.

Run:  python examples/render_figures.py
"""

from repro.arrays.comparison_array import comparison_plan
from repro.arrays.intersection import membership_plan
from repro.arrays.join import join_plan
from repro.figures import (
    division_schematic,
    grid_schematic,
    machine_schematic,
    network_summary,
)
from repro.machine import SystolicDatabaseMachine
from repro.systolic.engine import DivisionPlan, t_init_true
from repro.systolic.engine.materialize import materialize
from repro.workloads import division_example, three_by_three_pair


def banner(text: str) -> None:
    print()
    print(f"--- {text} " + "-" * max(0, 60 - len(text)))


def main() -> None:
    a, b = three_by_three_pair()

    banner("Fig 3-3: two-dimensional comparison array (3x3 relations)")
    network, layout = materialize(
        comparison_plan(a.tuples, b.tuples, t_init_true, tagged=False)
    )
    print(grid_schematic(layout))
    print()
    print(network_summary(network))

    banner("Fig 4-1: intersection array (comparison + accumulation column)")
    network, layout = materialize(membership_plan(
        a.array, b.array, "counter", False, "intersection-array"
    ))
    print(grid_schematic(layout))
    print()
    print(network_summary(network))

    banner("Fig 6-1: join array (single join column)")
    network, layout = materialize(join_plan(
        [(row[0],) for row in a.tuples], [(row[0],) for row in b.tuples],
        ["=="], "counter", tagged=False,
    ))
    print(grid_schematic(layout))

    banner("Fig 7-2: division array (the Fig 7-1 example)")
    dividend, divisor, _ = division_example()
    groups = dividend.schema[0].domain
    values = dividend.schema[1].domain
    distinct_x, seen = [], set()
    for x, _y in dividend.tuples:
        if x not in seen:
            seen.add(x)
            distinct_x.append(groups.decode(x))
    network, layout = materialize(DivisionPlan(
        list(dividend.tuples), [groups.encode(x) for x in distinct_x],
        [row[0] for row in divisor.tuples],
    ))
    print(division_schematic(
        distinct_x, [values.decode(v[0]) for v in divisor.tuples]
    ))
    print()
    print(network_summary(network))

    banner("Fig 9-1: the integrated systolic database machine")
    print(machine_schematic(SystolicDatabaseMachine()))


if __name__ == "__main__":
    main()
