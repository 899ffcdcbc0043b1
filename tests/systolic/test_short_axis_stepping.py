"""The register stepper's moving registers, walked along their short axis.

``t`` moves right a column a pulse, the ``t_i`` accumulators down a row a
pulse and division's AND sweep right a divisor cell a pulse, so
``registers._advance`` steps each a whole position at a time when the
window has more pulses than the path has positions, and a whole pulse at
a time otherwise.  These tests hold both branches to the cell network —
for ``t`` on the comparison and θ grids, the accumulator and the sweep,
on paths longer and shorter than the window, carried across several
windows — and pin down the two things a run no longer recomputes: the
canonical seeds, evaluated in bulk, and the counter-stream meetings,
listed once per schedule class and size.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.systolic.engine import (
    DivisionPlan,
    GridPlan,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine import registers
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    FixedRelationSchedule,
)
from tests.systolic.test_register_stepper import (
    assert_equals_reference,
    both_errors,
    faulty,
    membership,
    under_budgets,
)


def rows(n, arity, shift=0):
    return [tuple((3 * i + 2 * k + shift) % 4 for k in range(arity))
            for i in range(n)]


def grid(schedule, n_a, n_b, arity, **shape):
    shape.setdefault("tagged", True)
    if "ops" not in shape:
        shape.setdefault("t_init", t_init_true)
    return GridPlan(
        rows(n_a, arity), rows(n_b, arity, 1),
        schedule(n_a, n_b, arity), **shape,
    )


#: Plans whose moving registers take both branches under the budgets
#: of ``under_budgets`` (one pulse, a few, the default): paths of 1 to
#: 13 positions against windows of 1 to 60 pulses.
PLANS = {
    "t": [
        grid(CounterStreamSchedule, 4, 3, 3, row_taps=True),
        grid(CounterStreamSchedule, 3, 5, 9, row_taps=True),
        grid(FixedRelationSchedule, 5, 2, 6, row_taps=True,
             t_init=t_init_strict_lower),
    ],
    "theta": [
        grid(CounterStreamSchedule, 4, 3, 3, ops=("<=", "==", "!="),
             row_taps=True),
        grid(CounterStreamSchedule, 3, 4, 7, ops=("==",) * 7,
             dynamic_ops=True, row_taps=True),
        grid(FixedRelationSchedule, 6, 3, 5, ops=(">=", "<", "==", "!=",
                                                  ">"), row_taps=True),
    ],
    "accumulator": [
        grid(CounterStreamSchedule, 7, 4, 2, accumulate=True),
        grid(CounterStreamSchedule, 2, 2, 1, accumulate=True,
             row_taps=True),
        grid(FixedRelationSchedule, 9, 3, 2, accumulate=True,
             t_init=t_init_strict_lower),
        grid(FixedRelationSchedule, 4, 13, 1, accumulate=True),
    ],
    "sweep": [
        DivisionPlan([(x % 3, y % 5) for x, y in zip(range(11), range(4, 15))],
                     [0, 1, 2, 7], [0, 1, 2, 3, 4], tagged=True),
        DivisionPlan([(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)],
                     [0, 1, 2], [1, 2]),
        DivisionPlan([(0, y) for y in range(9)], [0], list(range(9)),
                     tagged=True),
    ],
}


def register_of(kind, op):
    """Which moving register an ``_advance`` call of a ``kind`` plan
    advances."""
    if op is np.logical_or:
        return "accumulator"
    return kind if kind in ("t", "theta", "sweep") else "t"


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_both_walks_equal_the_cell_network(kind, monkeypatch):
    """Every plan equals the network at every budget, and between them
    the plans walk the register along positions (path ≤ window) and
    along pulses (path > window), each over several windows."""
    advance = registers._advance
    windows = defaultdict(list)  # (register, branch) -> windows a run
    calls = []

    def spy(op, v, x):
        W, L = x.shape[:2]
        calls.append((register_of(kind, op), L <= W))
        advance(op, v, x)

    monkeypatch.setattr(registers, "_advance", spy)

    def check(plan):
        calls.clear()
        assert_equals_reference(plan)
        for key in set(calls):
            windows[key].append(calls.count(key))

    for plan in PLANS[kind]:
        under_budgets(plan, check)
    for along_positions in (True, False):
        runs = windows[kind, along_positions]
        assert runs and max(runs) > 1, (kind, along_positions, runs)


def test_the_walks_agree_with_a_pulse_by_pulse_loop():
    """``_advance`` against the recurrence written out, on paths
    shorter, as long as and longer than the window, with and without
    an axis the register does not move along."""
    rng = np.random.default_rng(7)
    for W, L, rest in [(1, 1, ()), (1, 5, ()), (6, 2, (3,)), (4, 4, (2,)),
                       (3, 8, (5,)), (9, 1, ())]:
        for op in (np.logical_and, np.logical_or):
            x = rng.random((W, L, *rest)) < 0.6
            v = np.empty((W + 1, L + 1, *rest), bool)
            v[0] = rng.random((L + 1, *rest)) < 0.5
            v[:, 0] = rng.random((W + 1, *rest)) < 0.5
            expected = v.copy()
            for w in range(W):
                for at in range(L):
                    expected[w + 1, at + 1] = op(expected[w, at], x[w, at])
            registers._advance(op, v, x)
            assert np.array_equal(v[1:, 1:], expected[1:, 1:])


# -- seeds and the meetings memo ----------------------------------------------


def records(run):
    return {name: collector.records
            for name, collector in run.collectors.items()}


@pytest.mark.parametrize("schedule", [CounterStreamSchedule,
                                      FixedRelationSchedule])
@pytest.mark.parametrize("canonical,equivalent", [
    (t_init_true, lambda i, j: True),
    (t_init_strict_lower, lambda i, j: j < i),
], ids=["true", "strict_lower"])
def test_bulk_seeds_equal_a_call_a_pair(schedule, canonical, equivalent):
    for n_a, n_b in [(1, 1), (5, 3), (4, 6)]:
        plans = [
            grid(schedule, n_a, n_b, 2, t_init=t_init, accumulate=True,
                 row_taps=True, tagged=tagged)
            for t_init in (canonical, equivalent)
            for tagged in (False, True)
        ]
        runs = [PulseEngine().run(plan) for plan in plans]
        assert records(runs[0]) == records(runs[2])
        assert records(runs[1]) == records(runs[3])
        assert_equals_reference(plans[0])


def test_the_meetings_memo_keys_on_the_schedule_class():
    """A schedule class that rewrites ``row_pairs`` is listed on its own,
    even right after its base class at the same sizes — so the cell
    network and the stepper still refuse it with one message."""
    registers._meetings.cache_clear()
    clean = membership(CounterStreamSchedule, row_taps=True)
    PulseEngine().run(clean)
    PulseEngine().run(clean)
    info = registers._meetings.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    pairs = CounterStreamSchedule.row_pairs
    wrong = faulty(CounterStreamSchedule, row_pairs=lambda self, row: pairs(
        self, 2 * self.mid - row
    ))
    plan = membership(wrong, row_taps=True)
    assert plan.schedule == plan.schedule  # frozen: equal to itself
    assert plan.schedule != clean.schedule  # but not to its base
    expected, stepped = both_errors(plan)
    assert stepped == expected and "t claims tuple a_" in stepped
    assert registers._meetings.cache_info().misses == 2
    with pytest.raises(SimulationError) as again:
        PulseEngine().run(plan)
    assert str(again.value) == expected
    i, j, row = registers._meetings(CounterStreamSchedule, clean.schedule)
    with pytest.raises(ValueError):
        i[0] = 1  # the memo's arrays are shared: read-only
