"""The membership kernel: ``t_i`` without the ``n_a × n_b`` matrix.

Only ``t_i = OR_j t_ij`` (equation 4.1) leaves an accumulate-only grid
(Fig 4-1), so the lattice and bitplane engines hand back that vector.
Under the canonical seeds they compute it from row ranks on shapes past
a crossover fitted on the shape (``_ranks``), and below it by ORing
bands of the dense verdict matrix into it.  These tests pin the
crossover to 0 (every shape ranked) and to ∞ (every shape dense, in one
band and a row a band) and hold the runs to each other — relation,
``t_vector``, pulses and
the lazy ``t_i`` tap records — to a reference written out here, and, on
small shapes, to the pulse engine.

Operands sit where rank kernels break: repeated rows (ties for the
lattice engine's stable sort and leftmost search; runs of equal rows
across the bitplane engine's 64-lane words), the int64 extremes (no
packed key fits, so the lattice engine ranks byte strings and the
bitplane engine sorts several words a row), arity 1–8, one row, and
skewed shapes.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import (
    systolic_difference,
    systolic_intersection,
    systolic_remove_duplicates,
    systolic_union,
)
from repro.arrays.intersection import membership_plan
from repro.relational import Domain, MultiRelation, Relation, Schema, algebra
from repro.systolic.engine import (
    BitplaneEngine,
    LatticeEngine,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)
from repro.workloads import overlapping_pair
from tests.systolic.test_tap_tables import read_out

CASES = settings(max_examples=60, deadline=None)

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
EXTREMES = (INT64_MIN, INT64_MAX, -1, 0, 1 << 40)
#: Rows a side: one, a few, either side of a 64-lane plane word, and
#: enough for an unstable sort to reorder ties.
SIZES = (1, 2, 5, 17, 63, 64, 65, 130, 200)
#: Shapes the pulse engine still steps in a few milliseconds.
PULSE_ROWS = 40

_DOMAIN = Domain("mk")  # any int64


def crossover_at(base, rows: float):
    """``base`` with its membership crossover moved to ``rows`` rows a
    side: 0 ranks every shape, ∞ ranks none."""
    return type(f"{base.__name__}@{rows}", (base,), {"_RANK_MIN_ROWS": rows})


RANKED = {base.name: crossover_at(base, 0)
          for base in (LatticeEngine, BitplaneEngine)}
DENSE = {base.name: crossover_at(base, math.inf)
         for base in (LatticeEngine, BitplaneEngine)}


@st.composite
def operands(draw):
    """``(A, B)``: rows drawn from a pool of at most a dozen, so that
    both sides repeat rows and share some."""
    arity = draw(st.integers(1, 8))
    elements = draw(st.sampled_from((
        st.integers(0, 2), st.sampled_from(EXTREMES),
    )))
    pool = np.array(draw(st.lists(
        st.tuples(*[elements] * arity), min_size=1, max_size=12,
    )), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_a, n_b = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
    return (pool[rng.integers(0, len(pool), n_a)],
            pool[rng.integers(0, len(pool), n_b)])


def reference(A: np.ndarray, B: np.ndarray, t_init) -> np.ndarray:
    """``t_i`` from the whole matrix ``T``, seeded by ``t_init``."""
    T = (A[:, None, :] == B[None, :, :]).all(axis=2)
    if t_init is t_init_strict_lower:
        T &= np.arange(len(B))[None, :] < np.arange(len(A))[:, None]
    return T.any(axis=1)


def records(run):
    return read_out({"t_i": run.table("t_i")})


class TestGridRuns:
    """An accumulate-only grid plan, ranked vs dense vs pulse."""

    @CASES
    @given(ab=operands(), strict=st.booleans(), same=st.booleans(),
           variant=st.sampled_from(["counter", "fixed"]))
    def test_ranked_equals_dense(self, ab, strict, same, variant):
        A, B = ab
        if strict and same:
            B = A  # remove-duplicates: A against itself
        t_init = t_init_strict_lower if strict else t_init_true
        plan = membership_plan(A, B, variant, False, "membership", t_init)
        want = reference(A, B, t_init)
        pulse = None
        if max(len(A), len(B)) <= PULSE_ROWS:
            pulse = PulseEngine().run(plan)
        for name in RANKED:
            ranked, dense = RANKED[name]().run(plan), DENSE[name]().run(plan)
            banded = DENSE[name](chunk_bytes=1).run(plan)  # a row a band
            for run in (ranked, dense, banded):
                assert run.verdicts.dtype == bool
                assert run.verdicts.tolist() == want.tolist(), name
                assert run.pulses == plan.pulses
                assert run._columnar is None  # the tap view stays lazy
            assert records(ranked) == records(dense)
            if pulse is not None:
                assert records(ranked) == records(pulse)
                assert ranked.pulses == pulse.pulses

    @CASES
    @given(ab=operands())
    def test_operators(self, ab):
        A, B = ab
        schema = Schema.of(*((f"c{k}", _DOMAIN) for k in range(A.shape[1])))
        a, b = Relation(schema, np.unique(A, axis=0)), Relation(
            schema, np.unique(B, axis=0)
        )
        multi = MultiRelation(schema, A)
        runners = (
            (lambda be: systolic_intersection(a, b, backend=be),
             algebra.intersection(a, b), "t_vector"),
            (lambda be: systolic_difference(a, b, backend=be),
             algebra.difference(a, b), "t_vector"),
            (lambda be: systolic_remove_duplicates(multi, backend=be),
             algebra.remove_duplicates(multi), "drop_vector"),
            (lambda be: systolic_union(a, b, variant="fixed", backend=be),
             algebra.union(a, b), "drop_vector"),
        )
        for run, expected, vector in runners:
            for name in RANKED:
                ranked, dense = run(RANKED[name]()), run(DENSE[name]())
                assert ranked.relation.tuples == dense.relation.tuples
                assert ranked.relation == expected
                assert getattr(ranked, vector) == getattr(dense, vector)
                assert ranked.run.pulses == dense.run.pulses


class TestTheCrossover:
    def test_the_shape_alone_chooses(self, monkeypatch):
        """Ranked from the crossover's rows on the shorter side; never
        for another seed or for θ-ops."""
        for base in (LatticeEngine, BitplaneEngine):
            calls = []

            class Counting(base):
                def _ranked_membership(self, A, B, strict):
                    calls.append((len(A), len(B), strict))
                    return super()._ranked_membership(A, B, strict)

            engine = Counting()
            low = base._RANK_MIN_ROWS
            rows = np.arange(8 * low, dtype=np.int64).reshape(-1, 1)
            for n_a, n_b in ((low, low), (low - 1, 4 * low), (4 * low, low - 1),
                             (low, 8 * low), (8 * low, low)):
                engine._membership(rows[:n_a], rows[:n_b], t_init_true)
            engine._membership(rows[:low], rows[:low], t_init_strict_lower)
            engine._membership(rows[:low], rows[:low], lambda i, j: True)
            engine._membership(rows[:low], rows[:low], None, ops=("==",))
            assert calls == [
                (low, low, False), (low, 8 * low, False),
                (8 * low, low, False), (low, low, True),
            ], base.name


def test_chunk_bytes_bound_a_dense_whole_array_membership():
    """A 4096 × 4096 × 3 intersection under 1 MB of ``chunk_bytes``,
    forced onto the dense kernel: the verdicts are ORed into ``t_i`` a
    band at a time, so the 16.8 MB matrix ``T`` never exists."""
    a, b = overlapping_pair(4096, 4096, 1024, arity=3, seed=5)
    expected = algebra.intersection(a, b)
    for name, engine in DENSE.items():
        engine = engine(chunk_bytes=1_000_000)
        tracemalloc.start()
        try:
            result = systolic_intersection(a, b, backend=engine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.relation == expected
        assert peak < 4_000_000, (name, peak)


@pytest.mark.parametrize("name", sorted(RANKED))
def test_ranking_a_wide_tuple_holds_no_matrix(name):
    """Past the crossover a membership holds a few vectors of
    ``n_a + n_b``, whatever the width of a tuple."""
    a, b = overlapping_pair(4096, 4096, 1024, arity=8, seed=9)
    engine = RANKED[name]()
    tracemalloc.start()
    try:
        result = systolic_intersection(a, b, backend=engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.relation == algebra.intersection(a, b)
    assert peak < 4_000_000, peak
