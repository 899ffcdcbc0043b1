"""Differential equivalence: every engine equals the pulse engine.

The :class:`~repro.systolic.engine.LatticeEngine` and
:class:`~repro.systolic.engine.BitplaneEngine` promise bit-identical
edge outputs and pulse counts without simulating cells.  Hypothesis
drives randomized workloads through every plan type and through every
operator, running each on all engines and comparing the complete
observable surface: tap tables (every field and dtype), pulses, cells
and hex peak firing.  (Busy counts and traces are the cell network's,
taken with a simulator observer; an engine only computes.)  The
hexagonal mesh is stepped on registers like every other array, so its
plans leave toy sizes too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import (
    ArrayCapacity,
    blocked_divide,
    blocked_intersection,
    blocked_join,
    blocked_remove_duplicates,
    compare_all_pairs,
    compare_tuples,
    hex_compare_all_pairs,
    hex_matrix_product,
    systolic_difference,
    systolic_divide,
    systolic_dynamic_theta_join,
    systolic_intersection,
    systolic_join,
    systolic_remove_duplicates,
    systolic_theta_join,
    systolic_union,
)
from repro.arrays.hexagonal import BOOLEAN_SEMIRING, COMPARISON_SEMIRING
from repro.arrays.intersection import systolic_antijoin, systolic_semijoin
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    DivisionSchedule,
    FixedRelationSchedule,
)
from repro.errors import SimulationError
from repro.relational import Domain, MultiRelation, Relation, Schema
from repro.systolic.engine import (
    BitplaneEngine,
    DivisionPlan,
    GridPlan,
    HexPlan,
    LatticeEngine,
    PulseEngine,
    resolve_backend,
)
from tests.systolic.test_tap_tables import read_out

SMALL = settings(max_examples=25, deadline=None)
FEWER = settings(max_examples=10, deadline=None)

# Eight values a column: 64 distinct tuples, so a 48-row relation is
# drawn as one (a set keeps only distinct rows) and still collides.
_DOMAIN = Domain("eq", values=range(8))
_SCHEMA2 = Schema.of(("x", _DOMAIN), ("y", _DOMAIN))



def sized_lists(elements, min_size, max_size):
    """Lists whose length is drawn first, from a ladder that reaches
    ``max_size``: left to itself hypothesis keeps lists near half a
    dozen items whatever ``max_size`` allows, and these suites are meant
    to leave toy sizes; uniform lengths would double their cost."""
    ladder = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
    sizes = sorted(
        {min_size, max_size, *(n for n in ladder if min_size < n < max_size)}
    )
    return st.sampled_from(sizes).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)
    )


# One draw a tuple: hypothesis's per-draw cost, not the engines, is
# what a large example pays for.
tuples2 = st.integers(0, 63).map(lambda code: divmod(code, 8))
tuple_lists = sized_lists(tuples2, 1, 40)
relations = sized_lists(tuples2, 0, 48).map(
    lambda rows: Relation(_SCHEMA2, rows)
)
multis = sized_lists(tuples2, 0, 48).map(
    lambda rows: MultiRelation(_SCHEMA2, rows)
)
ops_strategy = st.lists(
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    min_size=2, max_size=2,
)


def run_both(plan):
    """Run one plan on every engine and return the runs."""
    return [
        engine.run(plan)
        for engine in (PulseEngine(), LatticeEngine(), BitplaneEngine())
    ]


def dump(run):
    """Every tap table's fields, in read-out order."""
    return read_out(run.columnar)


def assert_identical(plan):
    pulse_run, *others = run_both(plan)
    for other_run in others:
        assert dump(other_run) == dump(pulse_run)
        assert other_run.pulses == pulse_run.pulses
        assert other_run.cells == pulse_run.cells
        assert other_run.peak_firing == pulse_run.peak_firing
    return pulse_run, others[0]


def grid_schedule(variant, n_a, n_b, arity):
    if variant == "counter":
        return CounterStreamSchedule(n_a=n_a, n_b=n_b, arity=arity)
    return FixedRelationSchedule(n_a=n_a, n_b=n_b, arity=arity)


class TestGridPlans:
    @SMALL
    @given(
        a=tuple_lists, b=tuple_lists,
        variant=st.sampled_from(["counter", "fixed"]),
        accumulate=st.booleans(),
        row_taps=st.booleans(),
        triangular=st.booleans(),
        tagged=st.booleans(),
    )
    def test_comparison_grids(
        self, a, b, variant, accumulate, row_taps, triangular, tagged
    ):
        schedule = grid_schedule(variant, len(a), len(b), 2)
        t_init = (lambda i, j: j < i) if triangular else (lambda i, j: True)
        plan = GridPlan(
            a, b, schedule, t_init=t_init, accumulate=accumulate,
            row_taps=row_taps or not accumulate, tagged=tagged,
        )
        assert_identical(plan)

    @SMALL
    @given(a=tuple_lists, b=tuple_lists, ops=ops_strategy,
           dynamic=st.booleans(), tagged=st.booleans())
    def test_join_grids(self, a, b, ops, dynamic, tagged):
        schedule = CounterStreamSchedule(n_a=len(a), n_b=len(b), arity=2)
        plan = GridPlan(
            a, b, schedule, ops=tuple(ops), dynamic_ops=dynamic,
            row_taps=True, tagged=tagged,
        )
        assert_identical(plan)


class TestDivisionPlans:
    @SMALL
    @given(
        pairs=sized_lists(tuples2, 1, 60),
        divisor=st.lists(st.integers(0, 7), min_size=1, max_size=5,
                         unique=True),
        tagged=st.booleans(),
    )
    def test_division(self, pairs, divisor, tagged):
        distinct_x = sorted({x for x, _ in pairs})
        plan = DivisionPlan(pairs, distinct_x, divisor, tagged=tagged)
        assert_identical(plan)


class TestLinearPlans:
    """Fig 3-1: the comparison grid of one tuple against one."""

    @SMALL
    @given(
        a=sized_lists(st.integers(0, 3), 1, 40),
        b_same=st.booleans(),
        seed=st.booleans(),
        tagged=st.booleans(),
    )
    def test_linear(self, a, b_same, seed, tagged):
        b = list(a) if b_same else [(v + 1) % 4 for v in a]
        plan = GridPlan(
            [a], [b], CounterStreamSchedule(1, 1, len(a)),
            t_init=lambda i, j: seed, row_taps=True, tagged=tagged,
        )
        assert_identical(plan)


class TestHexPlans:
    @SMALL
    @given(
        data=st.data(),
        shape=st.tuples(
            st.integers(1, 12), st.integers(1, 12), st.integers(1, 4)
        ),
        semiring=st.sampled_from([COMPARISON_SEMIRING, BOOLEAN_SEMIRING]),
        tagged=st.booleans(),
    )
    def test_hex(self, data, shape, semiring, tagged):
        """The pulse engine's stepped mesh against the lattice walk,
        record for record and in peak firing, up to 12 × 12 × 4."""
        n_a, n_b, m = shape
        elements = st.integers(0, 3)
        if semiring is BOOLEAN_SEMIRING:
            elements = st.booleans()
        rows = lambda n: st.lists(
            st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n
        )
        plan = HexPlan(data.draw(rows(n_a)), data.draw(rows(n_b)), semiring,
                       tagged=tagged)
        pulse_run, _ = assert_identical(plan)
        assert pulse_run.peak_firing is not None


class TestOperatorsAcrossBackends:
    """Operator-level: identical relations and run stats per backend."""

    BACKENDS = ("pulse", "lattice", "bitplane")

    def _pair(self, op, *args, **kwargs):
        return [
            op(*args, backend=backend, **kwargs)
            for backend in self.BACKENDS
        ]

    @SMALL
    @given(a=relations, b=relations,
           variant=st.sampled_from(["counter", "fixed"]))
    def test_set_operators(self, a, b, variant):
        for op in (systolic_intersection, systolic_difference):
            pulse, *others = self._pair(op, a, b, variant=variant, tagged=True)
            for other in others:
                assert other.relation == pulse.relation
                assert other.run.pulses == pulse.run.pulses
                assert other.t_vector == pulse.t_vector

    @SMALL
    @given(a=relations, b=relations)
    def test_union(self, a, b):
        pulse, *others = self._pair(systolic_union, a, b, tagged=True)
        for other in others:
            assert other.relation == pulse.relation
            assert other.run.pulses == pulse.run.pulses

    @SMALL
    @given(multi=multis, variant=st.sampled_from(["counter", "fixed"]))
    def test_remove_duplicates(self, multi, variant):
        pulse, *others = self._pair(
            systolic_remove_duplicates, multi, variant=variant, tagged=True
        )
        for other in others:
            assert other.relation == pulse.relation
            assert other.drop_vector == pulse.drop_vector

    @SMALL
    @given(a=relations, b=relations)
    def test_semijoin_antijoin(self, a, b):
        on = [("x", "x"), ("y", "y")]
        for op in (systolic_semijoin, systolic_antijoin):
            pulse, *others = self._pair(op, a, b, on, tagged=True)
            for other in others:
                assert other.relation == pulse.relation

    @SMALL
    @given(a=relations, b=relations, ops=ops_strategy)
    def test_joins(self, a, b, ops):
        on = [("x", "x"), ("y", "y")]
        for op, extra in (
            (systolic_join, ()),
            (systolic_theta_join, (ops,)),
            (systolic_dynamic_theta_join, (ops,)),
        ):
            pulse, *others = self._pair(op, a, b, on, *extra, tagged=True)
            for other in others:
                assert other.relation == pulse.relation
                assert other.run.pulses == pulse.run.pulses

    @SMALL
    @given(a=relations, b=st.lists(st.integers(0, 7), min_size=0,
                                   max_size=5, unique=True))
    def test_division(self, a, b):
        divisor = Relation(
            Schema.of(("y", _DOMAIN)), [(value,) for value in b]
        )
        pulse, *others = self._pair(systolic_divide, a, divisor, tagged=True)
        for other in others:
            assert other.relation == pulse.relation
            assert other.run.pulses == pulse.run.pulses

    @SMALL
    @given(a=tuple_lists, b=tuple_lists)
    def test_comparison_matrices(self, a, b):
        pulse, *others = self._pair(compare_all_pairs, a, b, tagged=True)
        for other in others:
            assert other.t_matrix == pulse.t_matrix

    @SMALL
    @given(a=tuple_lists, b=tuple_lists)
    def test_hex_comparison_matrices(self, a, b):
        hex_pulse, *hex_others = self._pair(
            hex_compare_all_pairs, a, b, tagged=True
        )
        for hex_other in hex_others:
            assert hex_other.t_matrix == hex_pulse.t_matrix
            assert hex_other.peak_firing == hex_pulse.peak_firing
        assert hex_pulse.t_matrix == compare_all_pairs(
            a, b, tagged=True, backend="pulse"
        ).t_matrix

    @SMALL
    @given(a=tuples2, b=tuples2, seed=st.booleans())
    def test_linear_comparison(self, a, b, seed):
        pulse, *others = self._pair(compare_tuples, a, b, seed=seed)
        assert pulse.equal is (seed and a == b)
        assert pulse.result_pulse == len(a) - 1
        for other in others:
            assert other.equal == pulse.equal
            assert other.result_pulse == pulse.result_pulse
            assert (other.run.pulses, other.run.cells) == (
                pulse.run.pulses, pulse.run.cells
            )
            assert (other.run.rows, other.run.cols) == (1, len(a))


class TestBlockedAcrossBackends:
    # Eight tuples a block: up to 6 × 6 block runs at these sizes.
    CAP = ArrayCapacity(max_rows=15, max_cols=2)

    @FEWER
    @given(a=relations, b=relations)
    def test_blocked_set_ops(self, a, b):
        runs = [
            blocked_intersection(a, b, self.CAP, backend=backend)
            for backend in ("pulse", "lattice", "bitplane")
        ]
        for run in runs[1:]:
            assert runs[0][0] == run[0]
            assert runs[0][1].total_pulses == run[1].total_pulses
            assert runs[0][1].block_runs == run[1].block_runs

    @FEWER
    @given(multi=multis)
    def test_blocked_dedup(self, multi):
        runs = [
            blocked_remove_duplicates(multi, self.CAP, backend=backend)
            for backend in ("pulse", "lattice", "bitplane")
        ]
        for run in runs[1:]:
            assert runs[0][0] == run[0]
            assert runs[0][1].total_pulses == run[1].total_pulses

    @FEWER
    @given(a=relations, b=relations)
    def test_blocked_join(self, a, b):
        on = [("x", "x")]
        runs = [
            blocked_join(a, b, on, self.CAP, backend=backend)
            for backend in ("pulse", "lattice", "bitplane")
        ]
        for run in runs[1:]:
            assert runs[0][0] == run[0]
            assert runs[0][1].total_pulses == run[1].total_pulses

    @FEWER
    @given(a=relations, b=st.lists(st.integers(0, 7), min_size=1,
                                   max_size=3, unique=True))
    def test_blocked_divide(self, a, b):
        divisor = Relation(
            Schema.of(("y", _DOMAIN)), [(value,) for value in b]
        )
        capacity = ArrayCapacity(max_rows=5, max_cols=4)
        runs = [
            blocked_divide(a, divisor, capacity, backend=backend)
            for backend in ("pulse", "lattice", "bitplane")
        ]
        for run in runs[1:]:
            assert runs[0][0] == run[0]
            assert runs[0][1].total_pulses == run[1].total_pulses


class TestBackendResolution:
    def test_default_is_pulse(self):
        assert resolve_backend(None).name == "pulse"

    def test_names_resolve(self):
        assert isinstance(resolve_backend("pulse"), PulseEngine)
        assert isinstance(resolve_backend("lattice"), LatticeEngine)
        assert isinstance(resolve_backend("bitplane"), BitplaneEngine)

    def test_engine_instances_pass_through(self):
        engine = LatticeEngine()
        assert resolve_backend(engine) is engine

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(SimulationError, match="lattice"):
            resolve_backend("warp")
