"""Bitplane backend ≡ pulse bit-level ≡ word-level arrays.

The packed-bitplane engine claims §8's equivalence twice over: its
uint64 plane kernels must reproduce the pulse-simulated bit-level
arrays bit for bit (results, pulse counts, ghost tags), and both
must equal the word-level originals.  Hypothesis sweeps widths 1–64
and signed values; deterministic cases pin the ragged plane tails
(n not a multiple of 64 lanes) that random small relations never
reach.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import compare_all_pairs, compare_tuples
from repro.bitlevel import (
    bit_level_compare_all_pairs,
    bit_level_compare_tuples,
    bit_level_intersection,
    bit_level_three_way_compare,
    plane_three_way,
)
from repro.errors import SimulationError
from repro.relational import Relation, Schema, algebra
from repro.systolic.engine import (
    BlockedPlan,
    CounterStreamSchedule,
    DivisionPlan,
    GridPlan,
    default_backend,
    resolve_backend,
    t_init_true,
)
from repro.errors import ConfigError
from repro.systolic.engine.bitplane import BitplaneEngine
from repro.workloads import overlapping_pair

SMALL = settings(max_examples=25, deadline=None)

#: Widths spanning one uint64 plane set; values stay below 2**63 so the
#: lattice/bitplane int64 staging is exact even at width 64.
widths = st.integers(min_value=1, max_value=64)


def values_for(width: int):
    hi = min(2**width, 2**63) - 1
    return st.integers(min_value=0, max_value=hi)


@st.composite
def tuple_pairs(draw):
    width = draw(widths)
    arity = draw(st.integers(1, 3))
    value = values_for(width)
    a = tuple(draw(value) for _ in range(arity))
    # Half the time compare against a perturbed copy of a so equality
    # is common even at 64-bit widths.
    if draw(st.booleans()):
        b = tuple(draw(value) for _ in range(arity))
    else:
        b = tuple(
            v if draw(st.booleans()) else draw(value) for v in a
        )
    return width, a, b


@st.composite
def relation_pairs(draw):
    width = draw(widths)
    value = values_for(width)
    pool = [
        tuple(draw(value) for _ in range(2))
        for _ in range(draw(st.integers(1, 4)))
    ]
    pick = st.sampled_from(pool)
    n_a = draw(st.integers(1, 5))
    n_b = draw(st.integers(1, 5))
    a = list(dict.fromkeys(draw(pick) for _ in range(n_a)))
    b = list(dict.fromkeys(draw(pick) for _ in range(n_b)))
    return width, a, b


class TestLinearPlans:
    @SMALL
    @given(case=tuple_pairs())
    def test_compare_tuples_matches_pulse(self, case):
        width, a, b = case
        pulse = bit_level_compare_tuples(a, b, width=width, backend="pulse")
        plane = bit_level_compare_tuples(a, b, width=width, backend="bitplane")
        assert plane.equal == pulse.equal == (tuple(a) == tuple(b))
        assert plane.run.pulses == pulse.run.pulses

    def test_false_seed(self):
        assert not bit_level_compare_tuples(
            [3], [3], seed=False, backend="bitplane"
        ).equal


class TestGridPlans:
    @SMALL
    @given(case=relation_pairs())
    def test_compare_all_pairs_three_ways(self, case):
        width, a, b = case
        word = compare_all_pairs(a, b)
        pulse = bit_level_compare_all_pairs(a, b, width=width, backend="pulse")
        plane = bit_level_compare_all_pairs(
            a, b, width=width, backend="bitplane"
        )
        assert plane.t_matrix == pulse.t_matrix == word.t_matrix
        assert plane.run.pulses == pulse.run.pulses

    @SMALL
    @given(case=relation_pairs())
    def test_intersection(self, case):
        width, a_rows, b_rows = case
        schema = Schema.of(("x", None), ("y", None))
        a = Relation(schema, a_rows)
        b = Relation(schema, b_rows)
        pulse = bit_level_intersection(a, b, width=width, backend="pulse")
        plane = bit_level_intersection(a, b, width=width, backend="bitplane")
        assert plane.relation == pulse.relation == algebra.intersection(a, b)
        assert plane.run.pulses == pulse.run.pulses

    def test_empty_sides(self):
        schema = Schema.of(("x", None), ("y", None))
        full = Relation(schema, [(1, 2)])
        empty = Relation(schema)
        for a, b in ((empty, full), (full, empty), (empty, empty)):
            result = bit_level_intersection(a, b, backend="bitplane")
            assert result.relation == algebra.intersection(a, b)


class TestThreeWay:
    @SMALL
    @given(width=widths, data=st.data())
    def test_matches_cell_chain(self, width, data):
        value = values_for(width)
        a = [data.draw(value) for _ in range(4)]
        b = [
            data.draw(value) if data.draw(st.booleans()) else a[i]
            for i in range(4)
        ]
        vector = plane_three_way(a, b, width=width)
        expected = [
            bit_level_three_way_compare(x, y, width=width)
            for x, y in zip(a, b)
        ]
        assert vector.tolist() == expected

    def test_width_too_small_raises(self):
        with pytest.raises(SimulationError):
            plane_three_way([255], [1], width=4)


class TestRaggedTails:
    """n not a multiple of 64: the packed planes end mid-word."""

    def test_ragged_matrix_matches_lattice(self):
        a, b = overlapping_pair(70, 129, 30, arity=2, seed=11)
        plane = compare_all_pairs(a.tuples, b.tuples, backend="bitplane")
        word = compare_all_pairs(a.tuples, b.tuples, backend="lattice")
        assert plane.t_matrix == word.t_matrix
        assert plane.run.pulses == word.run.pulses

    def test_single_lane_tail(self):
        a = [(i,) for i in range(65)]
        b = [(i * 2,) for i in range(65)]
        plane = compare_all_pairs(a, b, backend="bitplane")
        word = compare_all_pairs(a, b, backend="lattice")
        assert plane.t_matrix == word.t_matrix

    def test_negative_values(self):
        a = [(-5, 7), (3, -9), (-(2**40), 0)]
        b = [(3, -9), (-5, 7), (12, 12)]
        plane = compare_all_pairs(a, b, backend="bitplane")
        word = compare_all_pairs(a, b, backend="lattice")
        assert plane.t_matrix == word.t_matrix

    def test_int64_extremes(self):
        lo, hi = -(2**63), 2**63 - 1
        a = [(lo,), (hi,), (0,)]
        b = [(hi,), (lo,), (0,)]
        plane = compare_all_pairs(a, b, backend="bitplane")
        word = compare_all_pairs(a, b, backend="lattice")
        assert plane.t_matrix == word.t_matrix

    def test_three_way_ragged(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-1000, 1000, size=131).tolist()
        b = rng.integers(-1000, 1000, size=131).tolist()
        b[:40] = a[:40]  # common prefix: plenty of EQ outcomes
        vector = plane_three_way(a, b)
        expected = [(x > y) - (x < y) for x, y in zip(a, b)]
        assert vector.tolist() == expected


class TestBackendEnvDefault:
    def test_unset_means_pulse(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend() == "pulse"
        assert type(resolve_backend(None)).__name__ == "PulseEngine"

    def test_env_selects_bitplane(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bitplane")
        assert default_backend() == "bitplane"
        assert isinstance(resolve_backend(None), BitplaneEngine)

    def test_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", " Lattice ")
        assert default_backend() == "lattice"

    def test_garbage_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "warp")
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            default_backend()

    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "warp")  # never consulted
        assert isinstance(resolve_backend("bitplane"), BitplaneEngine)


class TestRefusalsNameTheEngine:
    """The bitplane engine inherits the lattice engine's grid, blocked
    and division runs; a refusal there names the engine that refused."""

    @pytest.mark.parametrize("backend", ["lattice", "bitplane"])
    @pytest.mark.parametrize("plan, label", [
        (GridPlan([["a"]], [["a"]], CounterStreamSchedule(1, 1, 1),
                  t_init=t_init_true, row_taps=True), "A"),
        (GridPlan([[1]], [["b"]], CounterStreamSchedule(1, 1, 1),
                  t_init=t_init_true, row_taps=True), "B"),
        (BlockedPlan(np.array([["a"]]), np.array([["a"]]), 1, 1, "rows",
                     t_init=t_init_true), "A"),
        (BlockedPlan(np.array([[1]]), np.array([["b"]]), 1, 1, "rows",
                     t_init=t_init_true), "B"),
        (DivisionPlan([("x", 1)], [0], [1]), "dividend"),
    ], ids=["grid-A", "grid-B", "blocked-A", "blocked-B", "division"])
    def test_plans(self, backend, plan, label):
        with pytest.raises(
            SimulationError,
            match=f"^the {backend} engine needs integer-encoded {label} ",
        ):
            resolve_backend(backend).run(plan)

    def test_through_an_operator(self):
        with pytest.raises(
            SimulationError,
            match="^the bitplane engine needs integer-encoded A elements",
        ):
            compare_all_pairs([["a"]], [["a"]], backend="bitplane")
