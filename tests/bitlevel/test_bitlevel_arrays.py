"""Word-level / bit-level equivalence — §8's partition claim (E12)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import compare_all_pairs, compare_tuples
from repro.arrays import systolic_intersection
from repro.bitlevel import (
    MagnitudeChain,
    bit_array_stats,
    bit_level_compare_all_pairs,
    bit_level_compare_tuples,
    bit_level_intersection,
    bit_level_three_way_compare,
)
from repro.errors import SimulationError
from repro.workloads import overlapping_pair, three_by_three_pair


class TestLinearEquivalence:
    @pytest.mark.parametrize("a,b", [
        ([5, 9], [5, 9]), ([5, 9], [5, 8]), ([0], [0]), ([0], [1]),
        ([7, 0, 3], [7, 0, 3]), ([255], [254]),
    ])
    def test_matches_word_level(self, a, b):
        word = compare_tuples(a, b)
        bit = bit_level_compare_tuples(a, b)
        assert bit.equal == word.equal

    def test_false_seed_preserved(self):
        assert not bit_level_compare_tuples([1], [1], seed=False).equal

    def test_explicit_width(self):
        assert bit_level_compare_tuples([5], [5], width=16).equal

    def test_width_validation(self):
        with pytest.raises(SimulationError):
            bit_level_compare_tuples([5], [5], width=0)

    def test_takes_width_times_m_pulses(self):
        result = bit_level_compare_tuples([5, 9], [5, 9], width=4)
        assert result.run.pulses == 8  # m·w = 2·4


class TestMatrixEquivalence:
    def test_paper_example(self):
        a, b = three_by_three_pair()
        word = compare_all_pairs(a.tuples, b.tuples)
        bit = bit_level_compare_all_pairs(a.tuples, b.tuples)
        assert bit.t_matrix == word.t_matrix

    def test_randomized(self):
        a, b = overlapping_pair(5, 4, 2, arity=2, universe=64, seed=13)
        word = compare_all_pairs(a.tuples, b.tuples)
        bit = bit_level_compare_all_pairs(a.tuples, b.tuples, width=6)
        assert bit.t_matrix == word.t_matrix

    def test_bit_array_is_width_times_wider(self):
        a, b = overlapping_pair(3, 3, 1, arity=2, universe=16, seed=14)
        bit = bit_level_compare_all_pairs(a.tuples, b.tuples, width=4)
        word = compare_all_pairs(a.tuples, b.tuples)
        assert bit.run.cols == word.run.cols * 4
        assert bit.run.rows == word.run.rows


class TestThreeWayCompare:
    @pytest.mark.parametrize("a,b", [
        (0, 0), (1, 0), (0, 1), (5, 5), (12, 3), (3, 12), (255, 255),
        (128, 127),
    ])
    def test_exhaustive_small(self, a, b):
        got = bit_level_three_way_compare(a, b)
        assert got == (a > b) - (a < b)

    def test_msb_decides(self):
        # 8 vs 7: MSB-first must answer GT even though the trailing bits
        # of 7 are all larger.
        assert bit_level_three_way_compare(8, 7, width=4) == 1

    def test_explicit_width(self):
        assert bit_level_three_way_compare(2, 2, width=10) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_the_sign_of_the_difference_at_every_width(self, data):
        width = data.draw(st.integers(1, 63))
        words = st.integers(0, (1 << width) - 1)
        a, b = data.draw(words), data.draw(words)
        assert bit_level_three_way_compare(a, b, width=width) == (
            (a > b) - (a < b)
        )


class TestMagnitudeChainChecks:
    """A schedule skewed on its input side is refused at the first cell
    it reaches, with the message the chain's cell gives."""

    @staticmethod
    def run(a_late, state_late, width=3):
        chain, cells = MagnitudeChain(width), np.arange(width)
        for pulse in range(width + 1):
            chain.clock(
                np.where(cells + a_late == pulse, 1, -1),
                np.where(cells == pulse, 0, -1),
                seed=pulse == state_late,
            )

    def test_a_state_without_its_bits_is_mis_staggered(self):
        with pytest.raises(SimulationError) as refused:
            self.run(a_late=1, state_late=0)
        assert str(refused.value) == (
            "pulse 0: cell 'mag[0]': a comparison state arrived without a "
            "bit pair — the bit streams are mis-staggered"
        )

    def test_bits_without_a_state_missed_their_meeting(self):
        with pytest.raises(SimulationError) as refused:
            self.run(a_late=0, state_late=1)
        assert str(refused.value) == (
            "pulse 0: cell 'mag[0]': bits met with no comparison state on "
            "s_in — the state-injection schedule missed this meeting"
        )


class TestStats:
    def test_bit_cell_accounting(self):
        stats = bit_array_stats(rows=5, cols=3, width=32)
        assert stats.bit_cols == 96
        assert stats.bit_cells == 480

    def test_validation(self):
        with pytest.raises(SimulationError):
            bit_array_stats(rows=0, cols=1, width=1)


class TestBitLevelIntersection:
    def test_full_array_equivalence(self):
        a, b = overlapping_pair(6, 5, 2, arity=2, universe=50, seed=33)
        bit = bit_level_intersection(a, b, width=6)
        word = systolic_intersection(a, b)
        assert bit.relation == word.relation
        assert bit.t_vector == word.t_vector

    def test_extra_pulses_are_the_extra_columns(self):
        a, b = overlapping_pair(4, 4, 2, arity=2, universe=8, seed=34)
        width = 3
        bit = bit_level_intersection(a, b, width=width)
        word = systolic_intersection(a, b)
        extra_columns = a.arity * width - a.arity
        assert bit.run.pulses == word.run.pulses + extra_columns

    def test_auto_width(self):
        a, b = overlapping_pair(3, 3, 1, arity=2, universe=4, seed=35)
        assert bit_level_intersection(a, b).relation == (
            systolic_intersection(a, b).relation
        )

    def test_empty_operands(self, pair_schema):
        from repro.relational import Relation

        empty = Relation(pair_schema)
        full = Relation(pair_schema, [(1, 2)])
        assert len(bit_level_intersection(empty, full).relation) == 0
