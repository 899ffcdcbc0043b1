"""The §8 pattern-match chip (the fabricated scaled-down array)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.patterns import WILDCARD, PatternChip, match_pattern


def reference_matches(text: str, pattern: str, wildcard: str = "?") -> list[int]:
    positions = []
    for i in range(len(text) - len(pattern) + 1):
        if all(
            p == wildcard or text[i + k] == p
            for k, p in enumerate(pattern)
        ):
            positions.append(i)
    return positions


class TestPatternCell:
    """One pattern cell of the chip's registers, one clock at a time."""

    def test_match_and_chain(self):
        chip = PatternChip([ord("a")], [ord("a")])
        assert chip.clock(0, 0) == (0, True)

    def test_mismatch_forces_false(self):
        chip = PatternChip([ord("a")], [ord("b")])
        assert chip.clock(0, 0) == (0, False)

    def test_false_in_false_out(self):
        # Cell 0 refutes alignment 0; cell 1's match cannot revive it.
        assert match_pattern("xa", "ba").bits == [False]

    def test_wildcard_matches_anything(self):
        chip = PatternChip([WILDCARD], [ord("z")])
        assert chip.clock(0, 0) == (0, True)

    def test_character_passes_through(self):
        # Text moves one cell a pulse; no result leaves without a seed.
        chip = PatternChip([ord("a"), ord("b")], [ord("q")])
        assert chip.clock(0, -1)[0] == -1
        assert chip.char_g.tolist() == [0, -1]
        assert chip.clock(-1, -1)[0] == -1
        assert chip.char_g.tolist() == [-1, 0]
        assert chip.char_v[1] == ord("q")

    def test_result_without_character_is_violation(self):
        # The result seeded a pulse before the text: misaligned.
        chip = PatternChip([ord("a")], [ord("a")])
        with pytest.raises(SimulationError) as refused:
            chip.clock(-1, 0)
        assert str(refused.value) == (
            "pulse 0: cell 'pat[0]': a partial match result arrived with no "
            "text character — the text/result speeds are misaligned"
        )


class TestMatcher:
    @pytest.mark.parametrize("text,pattern", [
        ("abracadabra", "abra"),
        ("abracadabra", "a"),
        ("aaaa", "aa"),
        ("mississippi", "issi"),
        ("mississippi", "zz"),
        ("ab", "ab"),
    ])
    def test_exact_matching(self, text, pattern):
        result = match_pattern(text, pattern, wildcard=None)
        assert result.matches == reference_matches(text, pattern, wildcard="\0")

    @pytest.mark.parametrize("text,pattern", [
        ("abracadabra", "a?a"),
        ("abcabc", "??c"),
        ("xyz", "???"),
        ("banana", "?an"),
    ])
    def test_wildcard_matching(self, text, pattern):
        result = match_pattern(text, pattern)
        assert result.matches == reference_matches(text, pattern)

    def test_overlapping_matches_found(self):
        assert match_pattern("aaaa", "aa").matches == [0, 1, 2]

    def test_bits_cover_all_alignments(self):
        result = match_pattern("abcde", "cd")
        assert len(result.bits) == 4
        assert result.bits == [False, False, True, False]

    def test_integer_sequences(self):
        result = match_pattern([1, 2, 3, 1, 2], [1, 2])
        assert result.matches == [0, 3]

    def test_integer_with_wildcard(self):
        result = match_pattern([1, 2, 3, 1, 9, 3], [1, WILDCARD, 3])
        assert result.matches == [0, 3]

    def test_pattern_longer_than_text_rejected(self):
        with pytest.raises(SimulationError, match="shorter"):
            match_pattern("ab", "abc")

    def test_empty_pattern_rejected(self):
        with pytest.raises(SimulationError, match="non-empty"):
            match_pattern("abc", "")

    def test_single_character_pattern(self):
        result = match_pattern("abcabc", "b")
        assert result.matches == [1, 4]
        assert result.run.cells == 1  # no latches needed

    def test_run_geometry(self):
        result = match_pattern("abcdef", "cde")
        assert result.run.cells == 2 * 3 - 1  # m cells + m-1 latches
        # Last alignment (i=3) exits at pulse 3 + 2·(m−1) = 7.
        assert result.run.pulses == 8


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matches_equal_a_naive_matcher(data):
    """Every alignment, wildcards included, from one-character patterns
    to a pattern as long as the text."""
    text = data.draw(st.text("abc", min_size=1, max_size=24))
    m = data.draw(st.sampled_from(sorted({1, len(text)})) | st.integers(
        1, len(text)
    ))
    pattern = data.draw(st.text("abc?", min_size=m, max_size=m))
    result = match_pattern(text, pattern)
    assert result.matches == reference_matches(text, pattern)
    assert result.bits == [
        i in result.matches for i in range(len(text) - m + 1)
    ]
