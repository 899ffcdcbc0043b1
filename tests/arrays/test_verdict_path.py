"""Verdict-primary runs: three ways to read one array, one answer.

A lattice or bitplane run hands the decode seam
(:mod:`repro.arrays.decode`) its verdicts directly; the same run with
the verdicts withheld, and every pulse-engine run (whose taps are what
its register stepper saw leave the array), goes through the audited
tap-table decoders; a run traced on the cell network hands its Token
records back as tables, and they go through the same decoders.
These tests pin down that all three agree — relation, result
vector/matrix, the exit order of join matches, pulse counts — that the
blocked operators equal the whole-array ones wherever the device
boundary cuts, that the fast path really builds no tap, and that a
malformed ``verdicts`` is refused instead of decoded.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import (
    ArrayCapacity,
    blocked_difference,
    blocked_divide,
    blocked_intersection,
    blocked_join,
    blocked_pair_matrix,
    blocked_remove_duplicates,
    blocked_union,
    compare_all_pairs,
    systolic_difference,
    systolic_divide,
    systolic_intersection,
    systolic_join,
    systolic_remove_duplicates,
    systolic_theta_join,
    systolic_union,
)
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.errors import SimulationError
from repro.relational import Domain, MultiRelation, Relation, Schema
from repro.systolic.engine import (
    BitplaneEngine,
    EngineRun,
    GridPlan,
    LatticeEngine,
    PulseEngine,
    t_init_strict_lower,
)
from repro.systolic.engine.materialize import materialize, tables_of
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.trace import TraceRecorder
from tests.systolic.test_engine_equivalence import sized_lists, tuples2
from tests.systolic.test_tap_tables import read_out

SMALL = settings(max_examples=25, deadline=None)

_DOMAIN = Domain("vp", values=range(8))
_SCHEMA2 = Schema.of(("x", _DOMAIN), ("y", _DOMAIN))
_SCHEMA3 = Schema.of(("x", _DOMAIN), ("y", _DOMAIN), ("z", _DOMAIN))

# Whole-array runs on all three paths: sizes the pulse engine now takes
# in milliseconds.
relations = sized_lists(tuples2, 1, 32).map(
    lambda rows: Relation(_SCHEMA2, rows)
)
multis = sized_lists(tuples2, 1, 32).map(
    lambda rows: MultiRelation(_SCHEMA2, rows)
)
# Blocked runs down to one tuple a block — n² array runs per operator
# and engine — stay small, over four values a column so that half a
# dozen rows still collide.
block_tuples2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
block_tuples3 = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
block_relations = st.lists(block_tuples2, min_size=1, max_size=6).map(
    lambda rows: Relation(_SCHEMA2, rows)
)
block_relations3 = st.lists(block_tuples3, min_size=1, max_size=6).map(
    lambda rows: Relation(_SCHEMA3, rows)
)
block_multis = st.lists(block_tuples2, min_size=1, max_size=7).map(
    lambda rows: MultiRelation(_SCHEMA2, rows)
)
ops_strategy = st.lists(
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    min_size=2, max_size=2,
)
variants = st.sampled_from(["counter", "fixed"])


class TapOnly(LatticeEngine):
    """The lattice engine with its verdicts withheld, so every decoder
    has to take the audited columnar-tap path."""

    def run(self, plan):
        run = super().run(plan)
        run.verdicts = None
        return run


class Traced(PulseEngine):
    """The pulse engine with each array run stepped on its cell network
    under a trace recorder: the network's Token records reach every
    decoder as tap tables."""

    def _step(self, plan):
        network = materialize(plan)
        simulator = SystolicSimulator(network, observer=TraceRecorder())
        simulator.run(plan.pulses)
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=len(network.cells),
            tap_view=lambda: tables_of(simulator.collectors),
        )


def three_paths():
    """Verdict path (both vectorized engines) and tap path — derived
    from the verdicts, and observed pulse by pulse."""
    return [LatticeEngine(), BitplaneEngine(), TapOnly(), PulseEngine()]


def agree(results, *fields):
    """Every result equals the first on ``fields`` and on pulse count."""
    first = results[0]
    for other in results[1:]:
        for field in fields:
            assert getattr(other, field) == getattr(first, field), field
        assert other.run.pulses == first.run.pulses
    return first


class TestThreePathsAgree:
    @SMALL
    @given(a=relations, b=relations, ops=ops_strategy, variant=variants,
           tagged=st.booleans())
    def test_theta_join(self, a, b, ops, variant, tagged):
        on = [("x", "x"), ("y", "y")]
        first = agree(
            [systolic_theta_join(a, b, on, ops, variant=variant,
                                 tagged=tagged, backend=backend)
             for backend in three_paths()],
            "relation", "matches",
        )
        # Exit order: by exit pulse (i + j + const), then i, then j.
        assert first.matches == sorted(
            first.matches, key=lambda ij: (ij[0] + ij[1], ij[0], ij[1])
        )

    @SMALL
    @given(a=relations, b=relations, variant=variants, tagged=st.booleans())
    def test_equi_join(self, a, b, variant, tagged):
        agree(
            [systolic_join(a, b, [("x", "x")], variant=variant,
                           tagged=tagged, backend=backend)
             for backend in three_paths()],
            "relation", "matches",
        )

    @SMALL
    @given(a=relations, b=relations, tagged=st.booleans(),
           masked=st.booleans())
    def test_comparison_matrix(self, a, b, tagged, masked):
        kwargs = {"t_init": t_init_strict_lower} if masked else {}
        first = agree(
            [compare_all_pairs(a.tuples, b.tuples, tagged=tagged,
                               backend=backend, **kwargs)
             for backend in three_paths()],
            "t_matrix",
        )
        for row in first.t_matrix:
            assert all(type(value) is bool for value in row)  # noqa: E721

    @SMALL
    @given(a=relations, b=relations, variant=variants, tagged=st.booleans())
    def test_intersection_and_difference(self, a, b, variant, tagged):
        for runner in (systolic_intersection, systolic_difference):
            agree(
                [runner(a, b, variant=variant, tagged=tagged,
                        backend=backend)
                 for backend in three_paths()],
                "relation", "t_vector",
            )

    @SMALL
    @given(multi=multis, variant=variants, tagged=st.booleans())
    def test_dedup_strict_lower_mask(self, multi, variant, tagged):
        agree(
            [systolic_remove_duplicates(multi, variant=variant,
                                        tagged=tagged, backend=backend)
             for backend in three_paths()],
            "relation", "drop_vector",
        )

    @SMALL
    @given(a=relations, b=relations, tagged=st.booleans())
    def test_union(self, a, b, tagged):
        agree(
            [systolic_union(a, b, tagged=tagged, backend=backend)
             for backend in three_paths()],
            "relation", "drop_vector",
        )

    @SMALL
    @given(a=relations, divisor=st.lists(st.integers(0, 7), min_size=1,
                                          max_size=5, unique=True),
           tagged=st.booleans())
    def test_division(self, a, divisor, tagged):
        b = Relation(Schema.of(("y", _DOMAIN)), [(d,) for d in divisor])
        agree(
            [systolic_divide(a, b, tagged=tagged, backend=backend)
             for backend in three_paths()],
            "relation", "distinct_x", "quotient_bits",
        )


    @SMALL
    @given(a=block_relations, b=block_relations, variant=variants,
           tagged=st.booleans())
    def test_token_record_path(self, a, b, variant, tagged):
        """A traced run: the cell network's records, turned into tables,
        decode like the stepper's."""
        paths = [LatticeEngine(), Traced()]
        agree(
            [systolic_join(a, b, [("x", "x")], variant=variant,
                           tagged=tagged, backend=backend)
             for backend in paths],
            "relation", "matches",
        )
        agree(
            [systolic_intersection(a, b, variant=variant, tagged=tagged,
                                   backend=backend)
             for backend in paths],
            "relation", "t_vector",
        )
        divisor = Relation(Schema.of(("y", _DOMAIN)), [(1,), (2,)])
        agree(
            [systolic_divide(a, divisor, tagged=tagged, backend=backend)
             for backend in paths],
            "relation", "distinct_x", "quotient_bits",
        )


def capacities(n: int, arity: int):
    """Devices whose tuple block is 1, n−1, n and n+1, each narrower
    than the tuples (when they have more than one column)."""
    cols = max(1, arity - 1)
    return [
        ArrayCapacity(max_rows=2 * block - 1, max_cols=cols)
        for block in sorted({1, max(1, n - 1), n, n + 1})
    ]


class TestBlockedEqualsWhole:
    """§8's decomposition changes the run count, never the answer —
    wherever the block boundaries fall."""

    ENGINES = ("lattice", "bitplane", "pulse")

    @SMALL
    @given(a=block_relations3, b=block_relations3)
    def test_set_operators(self, a, b):
        n = max(len(a), len(b))
        for capacity in capacities(n, 3):
            assert capacity.max_cols < a.arity
            for backend in self.ENGINES:
                for blocked, whole in (
                    (blocked_intersection, systolic_intersection),
                    (blocked_difference, systolic_difference),
                    (blocked_union, systolic_union),
                ):
                    relation, report = blocked(a, b, capacity, backend=backend)
                    expected = whole(a, b, backend=backend).relation
                    assert relation == expected
                    assert relation.tuples == expected.tuples
                    assert report.column_blocks == 2

    @SMALL
    @given(multi=block_multis)
    def test_dedup_and_matrix(self, multi):
        rows = multi.tuples
        whole = systolic_remove_duplicates(multi, backend="lattice")
        matrix = compare_all_pairs(
            rows, rows, t_init=t_init_strict_lower, backend="lattice"
        ).t_matrix
        for capacity in capacities(len(multi), 2):
            for backend in self.ENGINES:
                relation, _ = blocked_remove_duplicates(
                    multi, capacity, backend=backend
                )
                assert relation.tuples == whole.relation.tuples
                blocked, _ = blocked_pair_matrix(
                    rows, rows, capacity, t_init=t_init_strict_lower,
                    backend=backend,
                )
                assert blocked == matrix

    @SMALL
    @given(a=block_relations, b=block_relations, ops=ops_strategy)
    def test_theta_join(self, a, b, ops):
        on = [("x", "x"), ("y", "y")]
        whole = systolic_theta_join(a, b, on, ops, backend="lattice").relation
        for capacity in capacities(max(len(a), len(b)), 2):
            for backend in self.ENGINES:
                relation, report = blocked_join(
                    a, b, on, capacity, ops=ops, backend=backend
                )
                assert relation == whole
                assert report.block_runs == (
                    report.a_blocks * report.b_blocks * report.column_blocks
                )

    @SMALL
    @given(a=block_relations,
           divisor=st.lists(st.integers(0, 3), min_size=1, max_size=4,
                            unique=True))
    def test_division(self, a, divisor):
        b = Relation(Schema.of(("y", _DOMAIN)), [(d,) for d in divisor])
        whole = systolic_divide(a, b, backend="lattice").relation
        distinct = len({row[0] for row in a.tuples})
        for max_rows in sorted({1, max(1, distinct - 1), distinct + 1}):
            capacity = ArrayCapacity(max_rows=max_rows, max_cols=3)
            for backend in self.ENGINES:
                relation, _ = blocked_divide(a, b, capacity, backend=backend)
                assert relation.tuples == whole.tuples


class TestTapsStayUnbuilt:
    """The device path reads verdicts; tap observables are on demand."""

    @pytest.fixture
    def no_taps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tap was materialized on the fast path")

        for name in ("_grid_taps", "_row_taps", "_accumulator_tap",
                     "_division_taps"):
            monkeypatch.setattr(LatticeEngine, name, refuse)

    @pytest.mark.parametrize("engine", [LatticeEngine, BitplaneEngine])
    def test_blocked_operators_build_no_tap(self, no_taps, engine):
        a = Relation(_SCHEMA2, [(i % 4, i // 4) for i in range(12)])
        b = Relation(_SCHEMA2, [(i % 3, i // 4) for i in range(9)])
        capacity = ArrayCapacity(max_rows=7, max_cols=1)
        backend = engine()
        on = [("x", "x"), ("y", "y")]
        joined, report = blocked_join(a, b, on, capacity, backend=backend)
        assert joined == systolic_join(a, b, on, backend="pulse").relation
        assert (report.a_blocks, report.b_blocks, report.column_blocks) == (3, 2, 2)
        assert report.block_runs == 12
        common, _ = blocked_intersection(a, b, capacity, backend=backend)
        assert common == systolic_intersection(a, b, backend="pulse").relation
        deduped, _ = blocked_remove_duplicates(
            a.to_multi().concat(b), capacity, backend=backend
        )
        assert deduped == systolic_union(a, b, backend="pulse").relation
        pairs = Relation(_SCHEMA2, [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2)])
        divisor = Relation(Schema.of(("y", _DOMAIN)), [(1,), (2,)])
        quotient, _ = blocked_divide(
            pairs, divisor, ArrayCapacity(max_rows=2, max_cols=3),
            backend=backend,
        )
        assert quotient == systolic_divide(
            pairs, divisor, backend="pulse"
        ).relation

    def test_whole_array_runners_build_no_tap(self, no_taps):
        a = Relation(_SCHEMA2, [(0, 1), (1, 2), (2, 3)])
        b = Relation(_SCHEMA2, [(1, 2), (3, 3)])
        assert len(systolic_intersection(a, b, backend="lattice").relation) == 1
        assert systolic_join(
            a, b, [("x", "x")], backend="lattice"
        ).matches == [(1, 0)]
        assert compare_all_pairs(
            a.tuples, b.tuples, backend="lattice"
        ).t_matrix[1] == [True, False]

    def test_taps_on_demand_still_equal_the_pulse_records(self):
        a = [(0, 1), (1, 2), (2, 3), (1, 2)]
        b = [(1, 2), (3, 3), (0, 1)]
        plan = GridPlan(
            a, b, CounterStreamSchedule(n_a=4, n_b=3, arity=2),
            ops=("==", "=="), row_taps=True,
        )
        run = LatticeEngine().run(plan)
        assert run.verdicts.sum() == 3
        assert run._columnar is None
        assert "lazy" in repr(run)
        assert read_out(run.columnar) == read_out(
            PulseEngine().run(plan).columnar
        )


class TestMalformedVerdictsAreRefused:
    @staticmethod
    def engine_returning(make):
        class Bad(LatticeEngine):
            def run(self, plan):
                run = super().run(plan)
                run.verdicts = make(run.verdicts)
                return run

        return Bad()

    @pytest.mark.parametrize("make", [
        lambda v: v.T.copy() if v.ndim == 2 else v[:-1],  # wrong shape
        lambda v: v.astype(np.int8),                      # wrong dtype
        lambda v: v.tolist(),                             # not an array
    ], ids=["shape", "dtype", "type"])
    def test_every_decoder_raises(self, make):
        backend = self.engine_returning(make)
        a = Relation(_SCHEMA2, [(0, 1), (1, 2), (2, 3)])
        b = Relation(_SCHEMA2, [(1, 2), (3, 3)])
        capacity = ArrayCapacity(max_rows=63, max_cols=8)
        with pytest.raises(SimulationError, match="verdicts"):
            systolic_join(a, b, [("x", "x")], backend=backend)
        with pytest.raises(SimulationError, match="verdicts"):
            systolic_intersection(a, b, backend=backend)
        with pytest.raises(SimulationError, match="verdicts"):
            compare_all_pairs(a.tuples, b.tuples, backend=backend)
        with pytest.raises(SimulationError, match="verdicts"):
            blocked_join(a, b, [("x", "x")], capacity, backend=backend)
        with pytest.raises(SimulationError, match="verdicts"):
            blocked_intersection(a, b, capacity, backend=backend)
        divisor = Relation(Schema.of(("y", _DOMAIN)), [(1,), (2,)])
        with pytest.raises(SimulationError, match="verdicts"):
            systolic_divide(a, divisor, backend=backend)
        with pytest.raises(SimulationError, match="verdicts"):
            blocked_divide(a, divisor, capacity, backend=backend)
