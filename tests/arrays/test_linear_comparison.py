"""The linear comparison array of Fig 3-1 (experiment E1)."""

import pytest

from repro.arrays import compare_tuples
from repro.errors import SimulationError
from repro.systolic.engine.materialize import build_linear_network
from repro.systolic.metrics import ActivityMeter
from repro.systolic.simulator import SystolicSimulator


class TestOneComparison:
    def test_equal_tuples(self):
        assert compare_tuples([1, 2, 3], [1, 2, 3]).equal

    def test_unequal_first_element(self):
        assert not compare_tuples([9, 2, 3], [1, 2, 3]).equal

    def test_unequal_last_element(self):
        assert not compare_tuples([1, 2, 3], [1, 2, 9]).equal

    def test_single_element_tuples(self):
        assert compare_tuples([7], [7]).equal
        assert not compare_tuples([7], [8]).equal

    def test_result_exits_after_m_pulses(self):
        # §3.1: "after m time steps the output at the right-most
        # processor ... will be a bit indicating whether the two tuples
        # are equal" — pulse m−1 in our 0-based convention.
        for arity in (1, 2, 5, 9):
            result = compare_tuples(list(range(arity)), list(range(arity)))
            assert result.result_pulse == arity - 1
            assert result.run.pulses == arity

    def test_false_seed_guarantees_false(self):
        # §3.1's "surprising" property, used by §5.
        assert not compare_tuples([1, 2], [1, 2], seed=False).equal

    def test_ghost_tags_validate_schedule(self):
        assert compare_tuples([4, 5, 6], [4, 5, 6], tagged=True).equal

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="equal arity"):
            compare_tuples([1, 2], [1])

    def test_empty_tuples_rejected(self):
        with pytest.raises(SimulationError, match="zero-arity"):
            compare_tuples([], [])

    def test_meter_shows_diagonal_activity(self):
        # Exactly one cell is busy on each pulse (the staggered wavefront).
        meter = ActivityMeter()
        network, _ = build_linear_network([1, 2, 3, 4], [1, 2, 3, 4])
        SystolicSimulator(network, meter=meter).run(4)
        assert all(count == 1 for count in meter.busy_pulses.values())
        assert len(meter.busy_pulses) == 4
