"""The columnar fast path: lattice taps vs pulse Token collectors.

The lattice engine now returns :class:`ColumnarTap` arrays instead of
eagerly building a Token per record; ``EngineRun`` materializes
collectors only when asked.  These tests pin the contract down:

* tap arrays are **bit-identical** to the pulse engine's collectors —
  pulse stamps, values, and ghost tags — for join grids (tagged and
  untagged), dedup ``t_init`` masks, and division;
* the canonical ``t_init`` callables carry whole-grid masks that agree
  with their per-element form;
* materialization is lazy and per-tap;
* the comparison chunk size is configurable (kwarg and environment).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.systolic.engine.schedule import CounterStreamSchedule, FixedRelationSchedule
from repro.errors import SimulationError
from repro.systolic.engine import (
    DEFAULT_CHUNK_BYTES,
    ColumnarTap,
    DivisionPlan,
    GridPlan,
    LatticeEngine,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)

SMALL = settings(max_examples=25, deadline=None)

tuples2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
tuple_lists = st.lists(tuples2, min_size=1, max_size=5)
ops_strategy = st.lists(
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    min_size=2, max_size=2,
)


def grid_schedule(variant, n_a, n_b, arity=2):
    if variant == "counter":
        return CounterStreamSchedule(n_a=n_a, n_b=n_b, arity=arity)
    return FixedRelationSchedule(n_a=n_a, n_b=n_b, arity=arity)


def pulse_dump(run):
    """Pulse-engine ground truth: {tap: [(pulse, value, tag), ...]}."""
    return {
        name: [(p, t.value, t.tag) for p, t in collector]
        for name, collector in sorted(run.collectors.items())
    }


def tap_dump(run):
    """The lattice run's taps through ``to_collector`` — must round-trip
    to exactly the pulse representation, native Python types included."""
    dumped = {}
    for name in run.tap_names():
        tap = run.tap(name)
        assert isinstance(tap, ColumnarTap)
        collector = tap.to_collector()
        dumped[name] = [(p, t.value, t.tag) for p, t in collector]
        for pulse, token in collector:
            assert type(pulse) is int  # noqa: E721 — bit-identity incl. type
            assert not isinstance(token.value, np.generic)
    return dumped


def assert_columnar_identical(plan):
    pulse_run = PulseEngine().run(plan)
    lattice_run = LatticeEngine().run(plan)
    assert tap_dump(lattice_run) == pulse_dump(pulse_run)
    assert lattice_run.pulses == pulse_run.pulses
    return lattice_run


class TestJoinTaps:
    @SMALL
    @given(a=tuple_lists, b=tuple_lists, ops=ops_strategy,
           variant=st.sampled_from(["counter", "fixed"]),
           tagged=st.booleans())
    def test_join_row_taps(self, a, b, ops, variant, tagged):
        plan = GridPlan(
            a, b, grid_schedule(variant, len(a), len(b)),
            ops=tuple(ops), row_taps=True, tagged=tagged,
        )
        run = assert_columnar_identical(plan)
        # Exit pulses within a row tap are non-decreasing, as a stream
        # of Tokens out of one physical edge must be.
        for name in run.tap_names():
            pulses = run.tap(name).pulses
            assert (np.diff(pulses) >= 0).all()

    @SMALL
    @given(a=tuple_lists, b=tuple_lists, tagged=st.booleans(),
           accumulate=st.booleans())
    def test_equijoin_with_accumulator(self, a, b, tagged, accumulate):
        plan = GridPlan(
            a, b, grid_schedule("counter", len(a), len(b)),
            t_init=t_init_true, accumulate=accumulate,
            row_taps=True, tagged=tagged,
        )
        assert_columnar_identical(plan)


class TestDedupMasks:
    @SMALL
    @given(a=tuple_lists, variant=st.sampled_from(["counter", "fixed"]),
           tagged=st.booleans())
    def test_strict_lower_mask(self, a, variant, tagged):
        plan = GridPlan(
            a, a, grid_schedule(variant, len(a), len(a)),
            t_init=t_init_strict_lower, accumulate=True, tagged=tagged,
        )
        assert_columnar_identical(plan)

    def test_canonical_masks_match_per_element(self):
        for n_a, n_b in [(1, 1), (3, 5), (4, 4), (6, 2)]:
            mask = t_init_strict_lower.lattice_mask(n_a, n_b)
            expected = [
                [t_init_strict_lower(i, j) for j in range(n_b)]
                for i in range(n_a)
            ]
            assert mask.tolist() == expected
        assert t_init_true.lattice_mask(3, 4) is None
        assert t_init_true(0, 0) is True
        assert t_init_strict_lower(2, 1) and not t_init_strict_lower(1, 2)


class TestDivisionTaps:
    @SMALL
    @given(
        pairs=st.lists(tuples2, min_size=1, max_size=6),
        divisor=st.lists(st.integers(0, 3), min_size=1, max_size=3,
                         unique=True),
        tagged=st.booleans(),
    )
    def test_division(self, pairs, divisor, tagged):
        distinct_x = sorted({x for x, _ in pairs})
        plan = DivisionPlan(pairs, distinct_x, divisor, tagged=tagged)
        run = assert_columnar_identical(plan)
        # One AND token per dividend row, stamped by the §7 result law.
        for row in range(len(distinct_x)):
            tap = run.tap(f"and_row[{row}]")
            assert len(tap) == 1
            assert int(tap.pulses[0]) == plan.schedule.result_pulse(row)


class TestLazyMaterialization:
    def _run(self):
        plan = GridPlan(
            [(0, 1), (2, 3)], [(0, 1), (2, 2)],
            grid_schedule("counter", 2, 2),
            t_init=t_init_true, accumulate=True, row_taps=True,
        )
        return LatticeEngine().run(plan)

    def test_taps_do_not_materialize_tokens(self):
        run = self._run()
        assert run._collectors is None
        assert run.tap("t_i") is not None
        assert run.tap("missing") is None
        assert run._collectors is None

    def test_single_collector_materializes_one_tap(self):
        run = self._run()
        collector = run.collector("t_i")
        assert list(run._collectors) == ["t_i"]
        assert run.collector("t_i") is collector  # cached, not rebuilt
        with pytest.raises(SimulationError, match="no tap named"):
            run.collector("nope")

    def test_collectors_property_materializes_all(self):
        run = self._run()
        assert sorted(run.collectors) == run.tap_names()


class TestChunkConfiguration:
    def test_default(self):
        assert LatticeEngine().chunk_bytes == DEFAULT_CHUNK_BYTES

    def test_kwarg(self):
        assert LatticeEngine(chunk_bytes=4096).chunk_bytes == 4096

    def test_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_LATTICE_CHUNK_BYTES", "1234")
        assert LatticeEngine().chunk_bytes == 1234

    def test_kwarg_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_LATTICE_CHUNK_BYTES", "1234")
        assert LatticeEngine(chunk_bytes=99).chunk_bytes == 99

    def test_invalid_rejected(self):
        with pytest.raises(SimulationError, match="chunk_bytes"):
            LatticeEngine(chunk_bytes=0)

    @SMALL
    @given(a=tuple_lists, b=tuple_lists, ops=ops_strategy)
    def test_tiny_chunks_change_nothing(self, a, b, ops):
        plan = GridPlan(
            a, b, grid_schedule("counter", len(a), len(b)),
            ops=tuple(ops), row_taps=True, tagged=True,
        )
        big = LatticeEngine().run(plan)
        tiny = LatticeEngine(chunk_bytes=1).run(plan)
        assert tap_dump(tiny) == tap_dump(big)
