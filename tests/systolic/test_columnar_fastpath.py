"""The columnar fast path: lattice tap tables vs the pulse engine's.

The lattice engine returns one :class:`ColumnarTap` table per tapped
edge, derived from its verdicts, and builds no Token.  These tests pin
the contract down:

* its tables are **bit-identical** to the pulse engine's — positions,
  pulse stamps, values, ghost tags and every column's dtype — for join
  grids (tagged and untagged), dedup ``t_init`` masks, and division;
* the canonical ``t_init`` callables carry whole-grid masks that agree
  with their per-element form;
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
from tests.systolic.test_tap_tables import read_out

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
    """Pulse-engine ground truth: every tap table's fields."""
    return read_out(run.columnar)


def tap_dump(run):
    """The lattice run's tables, field for field and dtype for dtype —
    they must equal the pulse engine's exactly."""
    assert all(isinstance(table, ColumnarTap)
               for table in run.columnar.values())
    return read_out(run.columnar)


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
        table = run.table("t_row")
        for row in range(table.width):
            pulses = table.pulses[table.positions == row]
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
        table = run.table("and_row")
        for row in range(len(distinct_x)):
            pulses = table.pulses[table.positions == row]
            assert len(pulses) == 1
            assert int(pulses[0]) == plan.schedule.result_pulse(row)


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
