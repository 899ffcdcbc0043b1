"""The whole-problem blocked kernel against its reference.

A vectorized engine executes a §8 blocked plan
(:class:`~repro.systolic.engine.plan.BlockedPlan`) as one run; the
pulse engine executes it block run by block run through the tap
decoders.  These tests hold the first to the second — and both to a
reference written out here, with the plain assembly the operators used
before the kernel existed — on everything an operator or a device
reports: the relation, its tuple order, the block counts, and a pulse
total that must equal :mod:`repro.perf.cost` to the pulse.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import (
    ArrayCapacity,
    blocked_difference,
    blocked_intersection,
    blocked_join,
    blocked_pair_matrix,
    blocked_remove_duplicates,
    blocked_union,
)
from repro.arrays.decode import (
    Reduction,
    blocked_verdicts,
    blockwise_verdicts,
    pair_verdicts,
    true_pairs,
)
from repro.errors import SimulationError
from repro.perf.cost import bit_comparison_cost, comparison_cost, join_cost
from repro.relational import Domain, MultiRelation, Relation, Schema, algebra
from repro.systolic.engine import (
    BitplaneEngine,
    BlockedPlan,
    LatticeEngine,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)

SMALL = settings(max_examples=30, deadline=None)

ENGINES = ("lattice", "bitplane", "pulse")

_DOMAIN = Domain("bk")  # any int64
_SCHEMA3 = Schema.of(("x", _DOMAIN), ("y", _DOMAIN), ("z", _DOMAIN))

# Four small values a column so that a handful of rows collide, plus
# the int64 extremes: the kernels compare whole machine words.
elements = st.one_of(
    st.integers(0, 3),
    st.sampled_from([-(1 << 63), (1 << 63) - 1, -1, 1 << 40]),
)
rows3 = st.lists(st.tuples(elements, elements, elements),
                 min_size=1, max_size=9)
relations3 = rows3.map(lambda rows: Relation(_SCHEMA3, rows))
small_relations3 = st.lists(
    st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=7
).map(lambda rows: Relation(_SCHEMA3, rows))
multis3 = rows3.map(lambda rows: MultiRelation(_SCHEMA3, rows))
# Tuple blocks of 1 … 5 against at most 9 rows: one-tuple blocks,
# ragged last blocks in either dimension, and single-block problems.
# One or two columns against arity 3: column_blocks 3 and 2 (ragged).
capacities = st.builds(
    lambda block, cols: ArrayCapacity(max_rows=2 * block - 1, max_cols=cols),
    st.integers(1, 5), st.integers(1, 3),
)
theta_ops = st.lists(
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    min_size=3, max_size=3,
)


def reference(plan: BlockedPlan, engine) -> tuple[np.ndarray, int]:
    """``T`` of a blocked plan the long way: every plan of
    ``plan.blocks()`` run on ``engine`` by itself, tagged so that its
    ``t_ij`` come off the row taps with the ghost-tag audit, the blocks
    laid into the full matrix.  Returns it with the summed pulses."""
    matrix = np.ones((plan.n_a, plan.n_b), dtype=bool)
    pulses = 0
    for a_lo, b_lo, _, block in plan.blocks():
        block = replace(block, tagged=True)
        run = engine.run(block)
        pulses += run.pulses
        verdicts = pair_verdicts(run, block.schedule, tagged=True)
        height, width = verdicts.shape
        matrix[a_lo:a_lo + height, b_lo:b_lo + width] &= verdicts
    return matrix, pulses


def reduced(matrix: np.ndarray, reduce: str) -> np.ndarray:
    if reduce == "rows":
        return matrix.any(axis=1)
    if reduce == "pairs":
        return np.stack(np.nonzero(matrix))  # row-major: (i, j)-sorted
    return matrix


def report_tuple(report):
    return (report.block_runs, report.total_pulses, report.a_blocks,
            report.b_blocks, report.column_blocks)


def cost_tuple(cost):
    return (cost.block_runs, cost.total_pulses, cost.a_blocks,
            cost.b_blocks, cost.column_blocks)


class TestPlanAgainstReference:
    """The plan run once == its blocks run one by one, per reduction."""

    @SMALL
    @given(a=rows3, b=rows3, capacity=capacities,
           reduce=st.sampled_from(["rows", "pairs", "matrix"]),
           t_init=st.sampled_from([t_init_true, t_init_strict_lower]))
    def test_comparison_grid(self, a, b, capacity, reduce, t_init):
        plan = BlockedPlan(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            capacity.max_rows, capacity.max_cols, reduce, t_init=t_init,
        )
        self.check(plan)

    @SMALL
    @given(a=rows3, b=rows3, capacity=capacities, ops=theta_ops,
           reduce=st.sampled_from(["rows", "pairs", "matrix"]))
    def test_join_grid(self, a, b, capacity, ops, reduce):
        plan = BlockedPlan(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            capacity.max_rows, capacity.max_cols, reduce, ops=tuple(ops),
        )
        self.check(plan)

    @staticmethod
    def check(plan):
        matrix, pulses = reference(plan, LatticeEngine())
        stepped, stepped_pulses = reference(plan, PulseEngine())
        assert np.array_equal(matrix, stepped) and pulses == stepped_pulses
        want = reduced(matrix, plan.reduce)
        assert plan.pulses == pulses
        assert plan.block_runs == sum(1 for _ in plan.blocks())
        for engine in (LatticeEngine(), BitplaneEngine(), PulseEngine()):
            run = engine.run(plan)
            got = blocked_verdicts(run, plan)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), engine.name
            assert run.pulses == pulses
            assert run.columnar == {}

    @SMALL
    @given(data=st.data(), t_init=st.sampled_from(
        [t_init_true, t_init_strict_lower]
    ))
    def test_ranked_rows_equal_the_block_runs(self, data, t_init):
        """Past the crossover a ``"rows"`` plan is ranked, not compared:
        it must still equal its blocks run one by one and read off
        their taps, on repeated rows and the int64 extremes."""
        pool = np.array(data.draw(st.lists(
            st.tuples(elements, elements, elements), min_size=1, max_size=8,
        )), dtype=np.int64)
        # Sizes on either side of a 64-lane plane word.
        pick = st.sampled_from((1, 17, 64, 65, 140)).flatmap(
            lambda n: st.lists(st.integers(0, len(pool) - 1),
                               min_size=n, max_size=n)
        )
        a, b = pool[data.draw(pick)], pool[data.draw(pick)]
        if t_init is t_init_strict_lower and data.draw(st.booleans()):
            b = a  # remove-duplicates: A against itself
        block = data.draw(st.integers(16, 70))
        plan = BlockedPlan(a, b, 2 * block - 1, data.draw(st.integers(1, 3)),
                           "rows", t_init=t_init)
        want, pulses = blockwise_verdicts(
            plan, lambda grid: LatticeEngine().run(replace(grid, tagged=True))
        )
        for engine in (LatticeEngine, BitplaneEngine):
            ranked = type("Ranked", (engine,), {"_RANK_MIN_ROWS": 0})()
            run = ranked.run(plan)
            assert np.array_equal(blocked_verdicts(run, plan), want)
            assert run.pulses == pulses == plan.pulses

    def test_a_callable_t_init_sees_global_indices(self):
        seen = []

        def odd_sum(i, j):
            seen.append((i, j))
            return (i + j) % 2 == 1

        rows = np.zeros((5, 1), dtype=np.int64)
        plan = BlockedPlan(rows, rows[:4], 3, 1, "matrix", t_init=odd_sum)
        want = np.add.outer(np.arange(5), np.arange(4)) % 2 == 1
        for engine in (LatticeEngine(), LatticeEngine(chunk_bytes=1),
                       BitplaneEngine(), PulseEngine()):
            seen.clear()
            assert np.array_equal(
                blocked_verdicts(engine.run(plan), plan), want
            )
            assert sorted(seen) == [(i, j) for i in range(5) for j in range(4)]


class TestOperators:
    """Each blocked operator: every engine, the software oracle, and
    the cost model's accounting."""

    SET_OPERATORS = (
        (blocked_intersection, algebra.intersection),
        (blocked_difference, algebra.difference),
        (blocked_union, algebra.union),
    )

    @SMALL
    @given(a=relations3, b=relations3, capacity=capacities)
    def test_set_operators(self, a, b, capacity):
        self.check_set_operators(a, b, capacity, None, comparison_cost)

    @SMALL
    @given(a=small_relations3, b=small_relations3, capacity=capacities)
    def test_set_operators_on_bit_devices(self, a, b, capacity):
        """Two bits an element: six bit columns a tuple over a device
        one to three bit comparators wide."""

        def cost(n_a, n_b, arity, max_rows, max_cols):
            return bit_comparison_cost(n_a, n_b, arity, 2, max_rows, max_cols)

        self.check_set_operators(a, b, capacity, 2, cost)

    def check_set_operators(self, a, b, capacity, element_bits, cost):
        for blocked, oracle in self.SET_OPERATORS:
            expected = oracle(a, b)
            # ∪ is remove-duplicates of the concatenation (§5).
            n_a = len(a) + len(b) if blocked is blocked_union else len(a)
            n_b = n_a if blocked is blocked_union else len(b)
            predicted = cost_tuple(
                cost(n_a, n_b, 3, capacity.max_rows, capacity.max_cols)
            )
            for backend in ENGINES:
                relation, report = blocked(
                    a, b, capacity, backend=backend,
                    element_bits=element_bits,
                )
                assert relation == expected
                assert relation.tuples == expected.tuples
                assert report_tuple(report) == predicted

    @SMALL
    @given(multi=multis3, capacity=capacities)
    def test_dedup(self, multi, capacity):
        expected = algebra.remove_duplicates(multi)
        cost = comparison_cost(
            len(multi), len(multi), 3, capacity.max_rows, capacity.max_cols
        )
        for backend in ENGINES:
            relation, report = blocked_remove_duplicates(
                multi, capacity, backend=backend
            )
            assert relation.tuples == expected.tuples
            assert report_tuple(report) == cost_tuple(cost)

    @SMALL
    @given(a=relations3, b=relations3, capacity=capacities,
           ops=st.one_of(st.none(), theta_ops))
    def test_equi_and_theta_join(self, a, b, capacity, ops):
        on = [("x", "x"), ("y", "y"), ("z", "z")]
        if ops is None:
            expected = algebra.join(a, b, on)
        else:
            expected = algebra.theta_join(a, b, on, ops)
        cost = join_cost(
            len(a), len(b), 3, capacity.max_rows, capacity.max_cols
        )
        orders = set()
        for backend in ENGINES:
            relation, report = blocked_join(
                a, b, on, capacity, ops=ops, backend=backend
            )
            assert relation == expected
            assert report_tuple(report) == cost_tuple(cost)
            orders.add(relation.tuples)
        assert len(orders) == 1
        # (i, j)-lexicographic: A's order, then B's, whatever the blocks.
        whole, _ = blocked_join(
            a, b, on, ArrayCapacity(max_rows=63, max_cols=8), ops=ops,
            backend="lattice",
        )
        assert orders == {whole.tuples}

    @SMALL
    @given(a=relations3, b=relations3, capacity=capacities)
    def test_join_on_columns_in_any_order(self, a, b, capacity):
        """Adjacent join columns reach the plan as a view of the
        relation's matrix, any others as a copy: same join."""
        for on in ([("y", "x")], [("z", "x"), ("x", "z")],
                   [("y", "y"), ("z", "z")]):
            expected = algebra.join(a, b, on)
            for backend in ENGINES:
                relation, _ = blocked_join(
                    a, b, on, capacity, backend=backend
                )
                assert relation == expected

    @SMALL
    @given(a=rows3, b=rows3, capacity=capacities)
    def test_pair_matrix(self, a, b, capacity):
        want = [[x == y for y in b] for x in a]
        for backend in ENGINES:
            matrix, report = blocked_pair_matrix(
                a, b, capacity, backend=backend
            )
            assert matrix == want
            assert report.total_pulses == comparison_cost(
                len(a), len(b), 3, capacity.max_rows, capacity.max_cols
            ).total_pulses


class TestBands:
    """``chunk_bytes`` sizes the bands; it never changes the answer."""

    @SMALL
    @given(a=rows3, b=rows3, capacity=capacities,
           reduce=st.sampled_from(["rows", "pairs", "matrix"]))
    def test_one_block_a_band_equals_one_band(self, a, b, capacity, reduce):
        plan = BlockedPlan(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            capacity.max_rows, capacity.max_cols, reduce,
            t_init=t_init_strict_lower,
        )
        for engine in (LatticeEngine, BitplaneEngine):
            banded = BandCounting(engine, chunk_bytes=1)
            whole = BandCounting(engine, chunk_bytes=1 << 30)
            assert np.array_equal(
                banded.run(plan).verdicts, whole.run(plan).verdicts
            )
            assert banded.bands == [
                min(plan.law.first.n_a, plan.n_a - lo)
                for lo in range(0, plan.n_a, plan.law.first.n_a)
            ]
            assert whole.bands == [plan.n_a]

    def test_bands_are_whole_a_blocks(self):
        rows = np.arange(100, dtype=np.int64).reshape(-1, 1)
        plan = BlockedPlan(rows, rows[:10], 15, 1, "rows", t_init=t_init_true)
        # 8 bytes × 10 tuples of B × 1 column = 80 bytes a row of A.
        engine = BandCounting(LatticeEngine, chunk_bytes=80 * 20)
        engine.run(plan)
        assert engine.bands == [16] * 6 + [4]

    def test_the_matrix_never_exists(self):
        """20 000 × 2 000 under 4 MB of ``chunk_bytes``: ``T`` would be
        40 MB; what is held is a band of it and the ``t_i`` vector."""
        schema = Schema.of(("x", _DOMAIN), ("y", _DOMAIN))
        i, j = np.arange(20_000), 3 * np.arange(2_000)
        a = Relation(schema, np.stack([i, i % 7], axis=1))
        b = Relation(schema, np.stack([j, j % 7], axis=1))
        capacity = ArrayCapacity(max_rows=63, max_cols=8)
        engine = LatticeEngine(chunk_bytes=4_000_000)
        tracemalloc.start()
        try:
            relation, report = blocked_intersection(
                a, b, capacity, backend=engine
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert relation == algebra.intersection(a, b)
        assert report.block_runs == 625 * 63
        assert peak < 4_000_000


class BandCounting:
    """An engine of class ``base`` that notes the row count of every
    ``_verdict_matrix`` call — one call per band."""

    def __init__(self, base, **kwargs) -> None:
        bands = self.bands = []

        class Counting(base):
            def _verdict_matrix(self, A, B, ops):
                bands.append(len(A))
                return super()._verdict_matrix(A, B, ops)

        self.engine = Counting(**kwargs)

    def run(self, plan):
        del self.bands[:]
        return self.engine.run(plan)


class TestRefusals:
    @pytest.mark.parametrize("reduce, bad", [
        ("rows", lambda v: v[:-1]),
        ("rows", lambda v: v.astype(np.int8)),
        ("pairs", lambda v: v.T.copy()),
        ("pairs", lambda v: v.astype(np.int32)),
        ("pairs", lambda v: v[0]),
        ("matrix", lambda v: v.T.copy()),
        ("matrix", lambda v: v.astype(np.uint8)),
        ("rows", lambda v: v.tolist()),
        ("rows", lambda v: None),
    ])
    def test_malformed_reduced_verdicts(self, reduce, bad):
        rows = np.arange(8, dtype=np.int64).reshape(4, 2)
        plan = BlockedPlan(rows, rows[:3], 3, 2, reduce, t_init=t_init_true)
        run = LatticeEngine().run(plan)
        # Three TRUE pairs of 4 × 3: no reduction is its own transpose.
        blocked_verdicts(run, plan)
        run.verdicts = bad(run.verdicts)
        with pytest.raises(SimulationError, match="verdicts"):
            blocked_verdicts(run, plan)

    def test_plan_validation(self):
        rows = np.arange(6, dtype=np.int64).reshape(3, 2)
        ok = dict(a_tuples=rows, b_tuples=rows, max_rows=3, max_cols=1,
                  reduce="rows", t_init=t_init_true)
        BlockedPlan(**ok)
        for bad in (
            dict(a_tuples=rows.tolist()),
            dict(b_tuples=rows[:, :1]),
            dict(a_tuples=rows[:0]),
            dict(max_rows=0),
            dict(max_cols=0),
            dict(reduce="columns"),
            dict(t_init=None),
            dict(ops=("==", "==")),
            dict(t_init=None, ops=("==",)),
        ):
            with pytest.raises(SimulationError):
                BlockedPlan(**{**ok, **bad})


class TestHelpers:
    @given(matrix=st.lists(
        st.lists(st.booleans(), min_size=3, max_size=3), max_size=6
    ))
    def test_true_pairs_is_row_major_nonzero(self, matrix):
        verdicts = np.array(matrix, dtype=bool).reshape(-1, 3)
        i, j = true_pairs(verdicts)
        want_i, want_j = np.nonzero(verdicts)
        assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()

    def test_reduction_of_an_all_false_join(self):
        rows = np.arange(4, dtype=np.int64).reshape(4, 1)
        plan = BlockedPlan(rows, rows + 10, 5, 1, "pairs", ops=("==",))
        reduction = Reduction(plan)
        reduction.add(0, np.zeros((3, 4), dtype=bool))
        reduction.add(3, np.zeros((1, 4), dtype=bool))
        pairs = reduction.verdicts()
        assert pairs.shape == (2, 0) and pairs.dtype == np.int64
