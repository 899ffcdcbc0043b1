"""The register stepper against its reference, the hand-wired cell network.

``PulseEngine`` steps grid and division plans as numpy register planes
(:mod:`repro.systolic.engine.registers`); the Fig 3-1 linear array is
the one-row grid.  The cell-object simulator is what it is held to: for
plans of every family the run's tap tables must equal the network's
records as tables (``tables_of(simulator.collectors)``), field for
field and dtype for dtype — and a
schedule that is wrong on its *input* side must be refused with the
very message the cell network gives, for the first offending cell.
The network is also where a run is watched: a trace recorded on it
reads out as the stepper's tables.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitlevel import bit_level_intersection
from repro.errors import SimulationError
from repro.relational import algebra
from repro.systolic.engine import (
    ColumnarTap,
    DivisionPlan,
    GridPlan,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine import registers
from repro.systolic.engine.materialize import materialize, tables_of
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    DivisionSchedule,
    FixedRelationSchedule,
)
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import PeriodicFeeder, ScheduleFeeder
from repro.systolic.trace import TraceRecorder
from repro.systolic.values import Token
from repro.systolic.wiring import Network
from repro.workloads import overlapping_pair
from tests.systolic.test_tap_tables import read_out

PLANS = settings(max_examples=20, deadline=None)
OPS = ["==", "!=", "<", "<=", ">", ">="]
SCHEDULES = {"counter": CounterStreamSchedule, "fixed": FixedRelationSchedule}
WIDE = [0, 1, 1 << 70, (1 << 70) + 1, -(1 << 65)]


def t_init_scattered(i: int, j: int) -> bool:
    """An arbitrary seed pattern, neither all-true nor triangular."""
    return (3 * i + 5 * j) % 7 < 3


def tuple_lists(arity, elements=st.integers(0, 3), max_size=40):
    return st.lists(
        st.tuples(*[elements] * arity), min_size=1, max_size=max_size
    )


@st.composite
def grid_plans(draw, elements=st.integers(0, 3), max_size=40, dtype=np.int64):
    arity = draw(st.integers(1, 3))
    a = draw(tuple_lists(arity, elements, max_size))
    b = draw(tuple_lists(arity, elements, max_size))
    family = draw(st.sampled_from(["t_init", "ops", "dynamic_ops"]))
    variant = "counter" if family == "dynamic_ops" else draw(
        st.sampled_from(sorted(SCHEDULES))
    )
    accumulate = draw(st.booleans())
    shape = dict(
        accumulate=accumulate,
        row_taps=draw(st.booleans()) or not accumulate,
        tagged=draw(st.booleans()),
    )
    schedule = SCHEDULES[variant](len(a), len(b), arity)
    if draw(st.booleans()):
        # Operators hand over a relation's matrix, not its tuple list.
        a = np.array(a, dtype=dtype).reshape(len(a), arity)
        b = np.array(b, dtype=dtype).reshape(len(b), arity)
    if family == "t_init":
        t_init = draw(st.sampled_from(
            [t_init_true, t_init_strict_lower, t_init_scattered]
        ))
        return GridPlan(a, b, schedule, t_init=t_init, **shape)
    ops = tuple(draw(st.lists(
        st.sampled_from(OPS), min_size=arity, max_size=arity
    )))
    return GridPlan(
        a, b, schedule, ops=ops, dynamic_ops=family == "dynamic_ops", **shape
    )


@st.composite
def division_plans(draw):
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 4)),
        min_size=1, max_size=40,
    ))
    distinct_x = list(dict.fromkeys(x for x, _ in pairs))
    if draw(st.booleans()):
        distinct_x.append(9)  # a stored x that never streams past
    divisor = draw(st.lists(  # 5 and 6 are absent from every dividend
        st.integers(0, 6), min_size=1, max_size=5, unique=True
    ))
    return DivisionPlan(pairs, distinct_x, divisor, tagged=draw(st.booleans()))


def one_row_grid(a, b, seed, tagged):
    """The Fig 3-1 linear array: the grid of one tuple against one."""
    return GridPlan(
        [a], [b], CounterStreamSchedule(1, 1, len(a)),
        t_init=lambda i, j: seed, row_taps=True, tagged=tagged,
    )


def reference(network, pulses):
    """The cell network stepped cell by cell."""
    simulator = SystolicSimulator(network)
    simulator.run(pulses)
    return simulator


def assert_equals_reference(plan):
    run = PulseEngine().run(plan)
    network = materialize(plan)[0]
    simulator = reference(network, plan.pulses)

    # Tables, and no verdicts: operators decode the taps.
    assert run.verdicts is None
    assert all(isinstance(table, ColumnarTap)
               for table in run.columnar.values())
    # Every tap, the ones nothing left through included.
    assert sorted(simulator.collectors) == sorted(plan.tap_names())
    assert read_out(run.columnar) == read_out(
        tables_of(simulator.collectors)
    )
    assert (run.pulses, run.cells) == (plan.pulses, len(network.cells))


class TestEqualsTheCellNetwork:
    @PLANS
    @given(plan=grid_plans())
    def test_grid_plans(self, plan):
        assert_equals_reference(plan)

    @PLANS
    @given(plan=grid_plans(st.sampled_from(WIDE), max_size=6, dtype=object))
    def test_grid_plans_on_elements_wider_than_64_bits(self, plan):
        """No relation holds such an element (its constructor refuses
        it); a plan built by hand around one steps on the cell network
        only, and the register stepper says so."""
        elements = [e for rows in (plan.a_tuples, plan.b_tuples)
                    for row in np.asarray(rows, dtype=object) for e in row]
        if all(-(1 << 63) <= e < 1 << 63 for e in elements):
            assert_equals_reference(plan)
        else:
            with pytest.raises(
                SimulationError,
                match="the pulse engine needs integer-encoded [AB] elements",
            ):
                PulseEngine().run(plan)
            SystolicSimulator(materialize(plan)[0]).run(plan.pulses)

    @PLANS
    @given(plan=division_plans())
    def test_division_plans(self, plan):
        assert_equals_reference(plan)

    def test_division_on_elements_wider_than_64_bits(self):
        big = 1 << 70
        pairs = [(big, 1), (big, big + 2), (7, 1), (big + 1, big + 2),
                 (7, big + 2)]
        plan = DivisionPlan(
            pairs, [big, 7, big + 1], [1, big + 2], tagged=True
        )
        with pytest.raises(
            SimulationError,
            match="the pulse engine needs integer-encoded dividend elements",
        ):
            PulseEngine().run(plan)
        SystolicSimulator(materialize(plan)[0]).run(plan.pulses)

    @PLANS
    @given(
        a=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        differ_at=st.one_of(st.none(), st.integers(0, 39)),
        seed=st.booleans(), tagged=st.booleans(),
    )
    def test_linear_plans(self, a, differ_at, seed, tagged):
        b = list(a)
        if differ_at is not None:
            b[differ_at % len(b)] += 1
        assert_equals_reference(one_row_grid(a, b, seed, tagged))

    def test_a_traced_run_still_steps_cells(self):
        """A trace is taken on the plan's cell network, and what left
        that network's taps is what the stepper hands back."""
        plan = GridPlan(
            [(0, 1), (2, 3), (0, 1)], [(0, 1), (2, 2)],
            CounterStreamSchedule(3, 2, 2),
            t_init=t_init_true, accumulate=True, row_taps=True, tagged=True,
        )
        trace = TraceRecorder()
        simulator = SystolicSimulator(materialize(plan)[0], observer=trace)
        simulator.run(plan.pulses)
        assert trace.pulses == list(range(plan.pulses))
        assert "a_in" in trace.at(0)["cmp[0,0]"]
        assert read_out(tables_of(simulator.collectors)) == read_out(
            PulseEngine().run(plan).columnar
        )

    @PLANS
    @given(plan=st.one_of(
        grid_plans(max_size=12),
        division_plans(),
        st.builds(
            lambda a, flip, seed, tagged: one_row_grid(
                a, [v ^ (k == flip) for k, v in enumerate(a)], seed, tagged,
            ),
            st.lists(st.integers(0, 3), min_size=1, max_size=12),
            st.integers(-1, 11), st.booleans(), st.booleans(),
        ),
    ))
    def test_a_traced_run_hands_back_the_steppers_tables(self, plan):
        """Stepping cells or registers, a run is the same tables —
        field for field, tag kind and tag columns included."""
        traced = SystolicSimulator(materialize(plan)[0], observer=TraceRecorder())
        traced.run(plan.pulses)
        assert read_out(tables_of(traced.collectors)) == read_out(
            PulseEngine().run(plan).columnar
        )

    def test_unknown_plan_types_are_refused(self):
        class NotAPlan:
            pulses = cells = 1

        with pytest.raises(SimulationError, match="plan type NotAPlan"):
            PulseEngine().run(NotAPlan())


# -- the checks still bite ----------------------------------------------------


def refed(network, replaced):
    """``network`` with some boundary feeders swapped:
    ``{(cell, port): feeder}``."""
    clone = Network(network.name)
    for cell in network:
        clone.add(cell)
    for wire in network.wires:
        clone.connect(wire.source.cell, wire.source.port,
                      wire.target.cell, wire.target.port)
    for at, feeder in network.feeders.items():
        clone.feed(at.cell, at.port, replaced.get((at.cell, at.port), feeder))
    for name, at in network.taps.items():
        clone.tap(name, at.cell, at.port)
    return clone


def both_errors(plan, network=None):
    """The messages the cell network and the register stepper refuse
    ``plan`` with."""
    with pytest.raises(SimulationError) as expected:
        reference(network or materialize(plan)[0], plan.pulses)
    with pytest.raises(SimulationError) as stepped:
        PulseEngine().run(plan)
    return str(expected.value), str(stepped.value)


def faulty(base, **laws):
    """A schedule class with some of its input laws replaced."""
    return type(f"Faulty{base.__name__}", (base,), laws)


def late(law):
    return lambda self, *args: getattr(super(type(self), self), law)(*args) + 1


A4 = [(0, 1), (2, 3), (0, 1), (3, 3)]
B4 = [(0, 1), (2, 2), (3, 3), (2, 3)]


def membership(schedule_type, tagged=True, **shape):
    shape = shape or dict(accumulate=True, row_taps=True)
    return GridPlan(
        A4, B4, schedule_type(4, 4, 2), t_init=t_init_true, tagged=tagged,
        **shape,
    )


@pytest.mark.parametrize("base", SCHEDULES.values(), ids=list(SCHEDULES))
class TestInputSideFaultsAreRefused:
    def test_t_injected_one_pulse_late(self, base):
        wrong = faulty(base, t_init_pulse=late("t_init_pulse"))
        expected, stepped = both_errors(membership(wrong))
        assert stepped == expected
        assert "no partial result on t_in" in stepped
        assert stepped.startswith("pulse ") and ": cell 'cmp[" in stepped

    def test_t_injected_before_the_schedule_starts(self, base):
        wrong = faulty(
            base, t_init_pulse=lambda self, i, j: i + j - 1,
        )
        with pytest.raises(SimulationError, match="pulse -1 is negative"):
            materialize(membership(wrong))
        with pytest.raises(SimulationError, match="pulse -1 is negative"):
            PulseEngine().run(membership(wrong))

    def test_accumulator_seeded_one_pulse_late(self, base):
        wrong = faulty(
            base, accumulator_seed_pulse=late("accumulator_seed_pulse")
        )
        expected, stepped = both_errors(membership(wrong))
        assert stepped == expected
        assert "no descending accumulator" in stepped
        assert ": cell 'acc[" in stepped

    def test_accumulators_seeded_in_the_wrong_order(self, base):
        seed = base.accumulator_seed_pulse
        wrong = faulty(base, accumulator_seed_pulse=lambda self, i: seed(
            self, self.n_a - 1 - i
        ))
        expected, stepped = both_errors(membership(wrong))
        assert stepped == expected
        assert "merged into accumulator ('acc', " in stepped

    def test_a_fed_with_the_wrong_stagger(self, base):
        # Two pulses of stagger per column instead of one.  The network
        # builders hard-wire the stagger, so the reference is re-fed.
        wide = lambda self, i, k: base.a_entry_pulse(self, i, k) + k
        plan = membership(faulty(base, a_entry_pulse=wide))
        period = 2 if base is CounterStreamSchedule else 1
        column = [Token(row[1], ("a", i, 1)) for i, row in enumerate(A4)]
        network = refed(materialize(plan)[0], {
            ("cmp[0,1]", "a_in"): PeriodicFeeder(column, 2, period),
        })
        expected, stepped = both_errors(plan, network)
        assert stepped == expected
        assert "mis-staggered" in stepped

    def test_tag_checks_run_on_untagged_plans_too(self, base):
        # t for pair (i, j) rides with pair (i + 1, j) … wrong, but on
        # time: only the ghost tags can tell.
        if base is CounterStreamSchedule:
            pairs = base.row_pairs
            wrong = faulty(base, row_pairs=lambda self, row: pairs(
                self, 2 * self.mid - row
            ))
        else:
            wrong = faulty(base, t_init_pulse=lambda self, i, j: (
                (i + 1) % self.n_a + j
            ))
        shape = dict(row_taps=True)
        expected, stepped = both_errors(membership(wrong, **shape))
        assert stepped == expected
        assert "t claims tuple a_" in stepped
        # Untagged, the cells have no tags to compare and accept the
        # run; the stepper always carries ghosts and still refuses it.
        untagged = membership(wrong, tagged=False, **shape)
        reference(materialize(untagged)[0], untagged.pulses)
        with pytest.raises(SimulationError) as refused:
            PulseEngine().run(untagged)
        assert str(refused.value) == expected


class TestJoinAndDivisionFaults:
    def test_unknown_preloaded_op(self):
        plan = GridPlan(A4, B4, CounterStreamSchedule(4, 4, 2),
                        ops=("==", "~~"), row_taps=True)
        with pytest.raises(SimulationError) as expected:
            materialize(plan)
        with pytest.raises(SimulationError) as stepped:
            PulseEngine().run(plan)
        assert str(stepped.value) == str(expected.value)
        assert "cell 'cmp[0,1]': unknown comparison operator '~~'" in str(
            stepped.value
        )

    def test_unknown_streamed_op_code_is_refused_in_flight(self):
        plan = GridPlan(A4, B4, CounterStreamSchedule(4, 4, 2),
                        ops=("==", "~~"), dynamic_ops=True, row_taps=True)
        expected, stepped = both_errors(plan)
        assert stepped == expected
        assert "unknown op code '~~' arrived on op_in" in stepped

    def test_theta_columns_fed_with_the_wrong_stagger(self):
        wide = lambda self, i, k: 2 * i + 2 * k
        plan = GridPlan(
            A4, B4, faulty(CounterStreamSchedule, a_entry_pulse=wide)(4, 4, 2),
            ops=("<", "=="), row_taps=True, tagged=True,
        )
        column = [Token(row[1], ("a", i, 1)) for i, row in enumerate(A4)]
        network = refed(materialize(plan)[0], {
            ("cmp[0,1]", "a_in"): PeriodicFeeder(column, 2, 2),
        })
        expected, stepped = both_errors(plan, network)
        assert stepped == expected
        assert "join-column schedule is mis-staggered" in stepped

    PAIRS = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)]

    def division(self, **laws):
        wrong = faulty(DivisionSchedule, **laws)

        class Plan(DivisionPlan):
            @property
            def schedule(self):
                return wrong(len(self.pairs), len(self.distinct_x),
                             len(self.divisor))

        return Plan(self.PAIRS, [0, 1, 2], [1, 2], tagged=True)

    @pytest.mark.parametrize("law,message", [
        (lambda self, q: q + 2,
         "must arrive together — the pair stream is mis-staggered"),
        (lambda self, q: self.n_pairs - q,
         "y of pair 4 met the match bit of pair 0"),
    ], ids=["two-behind", "reversed"])
    def test_y_not_one_step_behind_its_x(self, law, message):
        # The network builder hard-wires "one step behind": re-feed it.
        plan = self.division(y_entry_pulse=law)
        network = refed(materialize(plan)[0], {
            ("dg[2]", "y_in"): ScheduleFeeder({
                law(plan.schedule, q): Token(y, ("pair", q))
                for q, (_, y) in enumerate(self.PAIRS)
            }),
        })
        expected, stepped = both_errors(plan, network)
        assert stepped == expected
        assert message in stepped and ": cell 'dg[2]': " in stepped

    @pytest.mark.parametrize("early", [1, 3])
    def test_the_and_sweep_enters_when_the_schedule_says(self, early):
        # No cell checks the sweep's timing (§7 just sends it "after the
        # dividend"): injected early it rides with, or ahead of, the
        # last y and the bits leave early — possibly wrong.  Stepper and
        # network must agree on that too: the injection law is read,
        # not re-derived.
        inject = DivisionSchedule.and_inject_pulse
        plan = self.division(
            and_inject_pulse=lambda self, row: inject(self, row) - early
        )
        assert plan.pulses == DivisionPlan(
            self.PAIRS, [0, 1, 2], [1, 2]
        ).pulses - early
        assert_equals_reference(plan)


# -- feeds, windows and memory ------------------------------------------------


def same_outcome(plan):
    """The stepper gives what the cell network gives: equal records,
    or the very message it refuses the plan with."""
    try:
        reference(materialize(plan)[0], plan.pulses)
    except SimulationError as refused:
        with pytest.raises(SimulationError) as stepped:
            PulseEngine().run(plan)
        assert str(stepped.value) == str(refused)
        return str(refused)
    assert_equals_reference(plan)
    return None


@pytest.mark.parametrize("base", SCHEDULES.values(), ids=list(SCHEDULES))
def test_two_tokens_fed_to_one_wire_on_one_pulse(base):
    """Pair (1, 1)'s initial t is injected on pair (0, 0)'s pulse (pair
    (0, 1)'s on the fixed grid) into the same row.  The network's
    ``{pulse: token}`` feeder keeps the later in feed order, so the
    element pair meets the wrong t; had the earlier won, the fault would
    be a later pulse's missing t."""
    law = base.t_init_pulse
    period = 2 if base is CounterStreamSchedule else 1  # between a row's pairs
    wrong = faulty(base, t_init_pulse=lambda self, i, j: (
        law(self, i, j) - period * ((i == 1) & (j == 1))
    ))
    message = same_outcome(membership(wrong))
    assert "t claims tuple a_1 but element is ('a', 0, 0)" in message


def under_budgets(plan, check):
    """``check(plan)`` with windows of one pulse, of a few, and of the
    default budget; the results."""
    results = []
    for budget in (1, 3 * plan.cells, registers._WINDOW_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(registers, "_WINDOW_CELLS", budget)
            results.append(check(plan))
    return results


class TestWindowsChangeNothing:
    @PLANS
    @given(plan=grid_plans())
    def test_grid_plans(self, plan):
        under_budgets(plan, assert_equals_reference)

    @PLANS
    @given(plan=division_plans())
    def test_division_plans(self, plan):
        under_budgets(plan, assert_equals_reference)

    @PLANS
    @given(
        a=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        seed=st.booleans(), tagged=st.booleans(),
    )
    def test_linear_plans(self, a, seed, tagged):
        b = a[::-1]
        under_budgets(one_row_grid(a, b, seed, tagged),
                      assert_equals_reference)

    @pytest.mark.parametrize("plan", [
        membership(faulty(CounterStreamSchedule,
                          t_init_pulse=late("t_init_pulse"))),
        membership(faulty(
            CounterStreamSchedule,
            accumulator_seed_pulse=late("accumulator_seed_pulse"),
        )),
        GridPlan(A4, B4, CounterStreamSchedule(4, 4, 2),
                 ops=("==", "~~"), dynamic_ops=True, row_taps=True),
    ], ids=["late-t", "late-seed", "streamed-op"])
    def test_a_fault_in_a_later_window(self, plan):
        messages = under_budgets(plan, same_outcome)
        assert messages[0] is not None and len(set(messages)) == 1
        assert_in_a_later_window(messages[0])

    def test_a_division_fault_in_a_later_window(self):
        # Pair 3's y one pulse late; the network is re-fed to match.
        law = lambda self, q: q + 1 + (q == 3)
        faults = TestJoinAndDivisionFaults()
        plan = faults.division(y_entry_pulse=law)
        network = refed(materialize(plan)[0], {
            ("dg[2]", "y_in"): ScheduleFeeder({
                law(plan.schedule, q): Token(y, ("pair", q))
                for q, (_, y) in enumerate(faults.PAIRS)
            }),
        })
        messages = under_budgets(plan, lambda plan: both_errors(plan, network))
        assert len(set(messages)) == 1
        expected, stepped = messages[0]
        assert stepped == expected
        assert_in_a_later_window(stepped)


def assert_in_a_later_window(message):
    """The fault's pulse is past the first few one-pulse windows."""
    assert int(message.split(":")[0].removeprefix("pulse ")) >= 3


def test_windows_bound_the_memory_of_a_long_run():
    """E21's calibration shape: 256 × 64-bit tuples intersected bit by
    bit, a 511 × 64 grid of bit comparators stepped over 1 085 pulses.
    Its whole-run planes would hold ≈ 35 M cells apiece (≈ 280 MB as
    int64); windowed, the run peaks near its feed tables."""
    a, b = overlapping_pair(256, 256, 128, arity=2, seed=21)
    tracemalloc.start()
    try:
        result = bit_level_intersection(a, b, width=32, backend="pulse")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.run.pulses, result.run.cells) == (1085, 511 * 65)
    assert result.relation == algebra.intersection(a, b)
    assert peak <= 32 * 2**20
