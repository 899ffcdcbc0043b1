"""The two blocked variants against each other and against the law.

A §8 blocked plan runs its block runs counter-streaming (both relations
cut into blocks of half the device's rows) or on the fixed-relation
variant (B held in blocks of all its rows, one tuple a row, A streamed
whole past each after the block's preload).  The variant is geometry:
it moves pulses, block runs and cells, never a verdict.  These tests
draw blocked shapes — ragged last blocks, B above and below the
device's height, tuples wider than the device — and hold every engine
on both variants to the same verdicts, and each variant's accounting
to :mod:`repro.perf.cost`, on the plan and through the operators.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arrays import ArrayCapacity, blocked_intersection, blocked_join
from repro.arrays.decode import blocked_verdicts, pair_verdicts
from repro.perf.cost import comparison_cost, join_cost
from repro.relational import Domain, Relation, Schema, algebra
from repro.systolic.engine import (
    BitplaneEngine,
    BlockedPlan,
    LatticeEngine,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine.schedule import (
    VARIANTS,
    block_span_law,
    preload_pulses,
)

from tests.arrays.test_blocked_kernel import BandCounting, reduced

SMALL = settings(max_examples=40, deadline=None)

ENGINES = (LatticeEngine, BitplaneEngine, PulseEngine)

elements = st.one_of(
    st.integers(0, 3),
    st.sampled_from([-(1 << 63), (1 << 63) - 1, -1, 1 << 40]),
)


@st.composite
def shapes(draw):
    """Operands of 1–12 rows and 1–4 columns, and a device 1–6 rows
    high and 1–3 columns wide: B fits the held block or is cut into
    ragged ones, tuples fit the device's width or are column-blocked."""
    arity = draw(st.integers(1, 4))
    rows = st.lists(st.tuples(*[elements] * arity), min_size=1, max_size=12)
    a = np.array(draw(rows), dtype=np.int64)
    b = np.array(draw(rows), dtype=np.int64)
    if draw(st.booleans()):
        b = a  # remove-duplicates' shape: A against itself
    capacity = ArrayCapacity(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    return a, b, capacity


grids = st.one_of(
    st.sampled_from([t_init_true, t_init_strict_lower]).map(
        lambda t_init: dict(t_init=t_init)
    ),
    st.integers(1, 4).flatmap(lambda arity: st.lists(
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        min_size=arity, max_size=arity,
    )).map(lambda ops: dict(ops=tuple(ops))),
)


def plan_of(a, b, capacity, variant, reduce, grid) -> BlockedPlan:
    if "ops" in grid:
        arity = len(grid["ops"])
        a, b = np.resize(a, (len(a), arity)), np.resize(b, (len(b), arity))
    return BlockedPlan(
        a, b, capacity.max_rows, capacity.max_cols, reduce, variant=variant,
        **grid,
    )


def block_by_block(plan: BlockedPlan) -> tuple[np.ndarray, int]:
    """``T`` from every block run stepped on its own and read off its
    tagged taps, laid into the full matrix, and the pulses the block
    runs take — each fixed-relation run's preload included."""
    matrix = np.ones((plan.n_a, plan.n_b), dtype=bool)
    pulses = 0
    for a_lo, b_lo, _, block in plan.blocks():
        block = replace(block, tagged=True)
        run = PulseEngine().run(block)
        pulses += preload_pulses(block.schedule) + run.pulses
        verdicts = pair_verdicts(run, block.schedule, tagged=True)
        height, width = verdicts.shape
        matrix[a_lo:a_lo + height, b_lo:b_lo + width] &= verdicts
    return matrix, pulses


class TestVariantsAgree:
    @SMALL
    @given(shape=shapes(), grid=grids,
           reduce=st.sampled_from(["rows", "pairs", "matrix"]))
    def test_same_verdicts_and_each_variant_its_law(self, shape, grid, reduce):
        a, b, capacity = shape
        answers = []
        for variant in VARIANTS:
            plan = plan_of(a, b, capacity, variant, reduce, grid)
            matrix, pulses = block_by_block(plan)
            want = reduced(matrix, reduce)
            cost = comparison_cost(
                plan.n_a, plan.n_b, plan.arity, capacity.max_rows,
                capacity.max_cols, variant,
            )
            assert cost.total_pulses == plan.pulses == pulses
            assert cost.block_runs == plan.block_runs == sum(
                1 for _ in plan.blocks()
            )
            for engine in ENGINES:
                run = engine().run(plan)
                assert np.array_equal(blocked_verdicts(run, plan), want), (
                    variant, engine.name,
                )
                assert (run.pulses, run.cells) == (pulses, plan.cells)
            answers.append(want)
        assert np.array_equal(*answers)

    @SMALL
    @given(shape=shapes())
    def test_the_fixed_law_holds_b_and_streams_a(self, shape):
        a, b, capacity = shape
        held = capacity.max_rows
        law = block_span_law(len(a), len(b), a.shape[1], held,
                             capacity.max_cols, "fixed")
        assert law.a_blocks == 1
        assert law.b_blocks == -(-len(b) // held)
        assert law.first.n_a == len(a) and law.first.rows <= held
        assert law.pulses == sum(
            (schedule.n_b + schedule.comparison_pulses) * count
            for schedule, count in law.spans
        )


class TestOperatorsOnBothVariants:
    _SCHEMA = Schema.of(("x", Domain("bv")), ("y", Domain("bv")))

    @SMALL
    @given(a=st.lists(st.tuples(elements, elements), min_size=1, max_size=12),
           b=st.lists(st.tuples(elements, elements), min_size=1, max_size=12),
           capacity=st.builds(ArrayCapacity, st.integers(1, 6),
                              st.integers(1, 2)))
    def test_intersection_and_join(self, a, b, capacity):
        a, b = Relation(self._SCHEMA, a), Relation(self._SCHEMA, b)
        on = [("x", "x"), ("y", "y")]
        for variant in VARIANTS:
            args = (len(a), len(b), 2, capacity.max_rows, capacity.max_cols,
                    variant)
            for backend in ("lattice", "bitplane", "pulse"):
                meet, report = blocked_intersection(
                    a, b, capacity, backend=backend, variant=variant
                )
                assert meet.tuples == algebra.intersection(a, b).tuples
                assert (report.block_runs, report.total_pulses) == (
                    comparison_cost(*args).block_runs,
                    comparison_cost(*args).total_pulses,
                )
                joined, report = blocked_join(
                    a, b, on, capacity, backend=backend, variant=variant
                )
                assert joined.tuples == algebra.join(a, b, on).tuples
                assert report.total_pulses == join_cost(*args).total_pulses


class TestFixedBands:
    """A fixed-relation plan streams A whole: its bands are any rows of
    it, so ``chunk_bytes`` bounds them down to one tuple."""

    @SMALL
    @given(shape=shapes(), reduce=st.sampled_from(["rows", "pairs", "matrix"]))
    def test_bands_shrink_to_one_tuple(self, shape, reduce):
        a, b, capacity = shape
        plan = plan_of(a, b, capacity, "fixed", reduce,
                       dict(t_init=t_init_strict_lower))
        for engine in (LatticeEngine, BitplaneEngine):
            banded = BandCounting(engine, chunk_bytes=1)
            whole = BandCounting(engine, chunk_bytes=1 << 30)
            assert np.array_equal(
                banded.run(plan).verdicts, whole.run(plan).verdicts
            )
            assert banded.bands == [1] * plan.n_a
            assert whole.bands == [plan.n_a]

    def test_the_matrix_never_exists(self):
        """20 000 × 2 000 under 4 MB of ``chunk_bytes``, B held in
        blocks of 63: one A block of 20 000 rows, yet what is held at
        once is a band of ``T`` and the pairs found."""
        schema = Schema.of(("x", Domain("bv")), ("y", Domain("bv")))
        i, j = np.arange(20_000), 3 * np.arange(2_000)
        a = Relation(schema, np.stack([i, i % 7], axis=1))
        b = Relation(schema, np.stack([j, j % 7], axis=1))
        capacity = ArrayCapacity(max_rows=63, max_cols=8)
        engine = LatticeEngine(chunk_bytes=4_000_000)
        tracemalloc.start()
        try:
            relation, report = blocked_join(
                a, b, [("x", "x"), ("y", "y")], capacity, backend=engine,
                variant="fixed",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert relation == algebra.join(a, b, [("x", "x"), ("y", "y")])
        assert report.block_runs == 32 and report.a_blocks == 1
        assert peak < 4_000_000

    def test_the_pulse_engine_steps_the_stream_in_bands(self):
        """20 000 × 126 on 63 rows, stepped pulse by pulse: ``T`` would
        be 2.5 MB, one run of the whole A stream past a held block far
        more in taps; the stream is stepped in bands of 63 tuples, and
        its pulses are still the law's."""
        schema = Schema.of(("x", Domain("bv")), ("y", Domain("bv")))
        i, j = np.arange(20_000), 3 * np.arange(126)
        a = Relation(schema, np.stack([i, i % 7], axis=1))
        b = Relation(schema, np.stack([j, j % 7], axis=1))
        capacity = ArrayCapacity(max_rows=63, max_cols=8)
        on = [("x", "x"), ("y", "y")]
        tracemalloc.start()
        try:
            relation, report = blocked_join(
                a, b, on, capacity, backend=PulseEngine(), variant="fixed",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert relation == algebra.join(a, b, on)
        assert (report.a_blocks, report.block_runs) == (1, 2)
        assert report.total_pulses == join_cost(
            20_000, 126, 2, 63, 8, "fixed"
        ).total_pulses
        assert peak < 2_000_000
