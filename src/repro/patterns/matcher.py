"""The systolic pattern matcher — the §8 pattern-match chip, full size.

§8: "The pattern-match chip can be viewed as a scaled-down version of
the comparison array in Section 3.  (This chip has been fabricated,
tested, and found to work.)"

Geometry: ``m`` pattern cells in a row (pattern preloaded, one
character per cell, or a :data:`WILDCARD` — the Foster–Kung chip's
"X" — which matches anything), each followed by a delay latch on the
result path.  Text characters move right one cell per pulse; partial
results move right one cell per **two** pulses (cell + latch), so the
result seeded for alignment ``i`` compares against ``text[i]``,
``text[i+1]``, … , ``text[i+m−1]`` in successive cells:

* ``text[j]`` is at cell ``k`` on pulse ``j + k`` (char path: 1 hop/pulse);
* the alignment-``i`` result is at cell ``k`` on pulse ``i + 2k`` —
  which is exactly where ``text[i+k]`` is.

The match bit for alignment ``i`` exits the last cell on pulse
``i + 2(m−1)``; the decoder maps pulses back to alignments by that
formula alone.  :class:`PatternChip` holds the chip's registers and
steps them one clock a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.arrays.base import ArrayRun
from repro.errors import SimulationError

__all__ = ["PatternChip", "PatternMatchResult", "WILDCARD", "match_pattern"]


class _Wildcard:
    """The pattern character that matches any text character."""

    _instance: "Optional[_Wildcard]" = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "WILDCARD"


#: Singleton wildcard pattern character.
WILDCARD = _Wildcard()


class PatternChip:
    """The chip's shift registers, advanced one clock per :meth:`clock`.

    The text register has a latch per pattern cell; the result register
    a latch per stage, stage ``2k`` being pattern cell ``k`` and stage
    ``2k + 1`` the delay latch behind it.  Each latch holds a value and
    a ghost — the text index, the alignment — that is −1 on an empty
    wire.  A cell ANDs the result passing through it with "the text
    character equals mine", and a result that finds no character there
    is refused: the text and result speeds are misaligned.
    """

    def __init__(
        self, pattern: Sequence[object], text: Sequence[object]
    ) -> None:
        m = len(pattern)
        self.text = text
        self.wild = np.array([code is WILDCARD for code in pattern])
        self.stored = np.empty(m, object)
        self.stored[:] = list(pattern)
        self.pulse = 0
        self.char_g, self.char_v = np.full(m, -1), np.empty(m, object)
        self.result_g, self.result_v = np.full(2 * m - 1, -1), np.ones(
            2 * m - 1, bool
        )

    def clock(self, j: int, i: int) -> tuple[int, bool]:
        """One pulse: text character ``j`` and the TRUE seed of
        alignment ``i`` enter the first cell (−1: nothing enters).
        Returns the alignment and bit the last cell put out (alignment
        −1: none)."""
        for g, v, ghost, value in (
            (self.char_g, self.char_v, j, self.text[j] if j >= 0 else None),
            (self.result_g, self.result_v, i, True),
        ):
            g[1:], v[1:] = g[:-1].copy(), v[:-1].copy()
            g[0], v[0] = ghost, value
        result = self.result_g[::2] >= 0
        bad = result & (self.char_g < 0)
        if bad.any():
            raise SimulationError(
                f"pulse {self.pulse}: cell 'pat[{int(np.argmax(bad))}]': a "
                f"partial match result arrived with no text character — "
                f"the text/result speeds are misaligned"
            )
        matched = self.wild | (self.char_v == self.stored).astype(bool)
        self.result_v[::2] &= matched | ~result
        self.pulse += 1
        return int(self.result_g[-1]), bool(self.result_v[-1])


@dataclass
class PatternMatchResult:
    """Outcome of one pattern-match run."""

    #: alignments (0-based text offsets) at which the pattern matches
    matches: list[int]
    #: the raw per-alignment bits, index = alignment
    bits: list[bool]
    run: ArrayRun


def _encode(text: str | Sequence[int]) -> list[object]:
    if isinstance(text, str):
        return [ord(ch) for ch in text]
    return list(text)


def _encode_pattern(
    pattern: str | Sequence[object], wildcard: Optional[str]
) -> list[object]:
    if isinstance(pattern, str):
        return [
            WILDCARD if (wildcard is not None and ch == wildcard) else ord(ch)
            for ch in pattern
        ]
    return list(pattern)


def match_pattern(
    text: str | Sequence[int],
    pattern: str | Sequence[object],
    wildcard: Optional[str] = "?",
) -> PatternMatchResult:
    """Find every alignment of ``pattern`` in ``text`` on the chip.

    String patterns may contain ``wildcard`` characters (default
    ``"?"``), which match any text character — pass ``wildcard=None``
    to disable.  Integer sequences may mix codes with :data:`WILDCARD`.
    """
    text_codes = _encode(text)
    pattern_codes = _encode_pattern(pattern, wildcard)
    m, n = len(pattern_codes), len(text_codes)
    if m == 0:
        raise SimulationError("the pattern must be non-empty")
    if n < m:
        raise SimulationError(
            f"text of length {n} is shorter than the pattern ({m})"
        )
    exit_offset = 2 * (m - 1)
    alignments = n - m + 1
    pulses = (alignments - 1) + exit_offset + 1
    chip = PatternChip(pattern_codes, text_codes)

    bits: list[Optional[bool]] = [None] * alignments
    for pulse in range(pulses):
        ghost, bit = chip.clock(
            pulse if pulse < n else -1, pulse if pulse < alignments else -1
        )
        if ghost < 0:
            continue
        alignment = pulse - exit_offset
        if not 0 <= alignment < alignments:
            raise SimulationError(
                f"match bit exited on pulse {pulse}, which maps to no "
                f"alignment"
            )
        if bits[alignment] is not None:
            raise SimulationError(f"alignment {alignment} exited twice")
        if ghost != alignment:
            raise SimulationError(
                f"arrival decoded as alignment {alignment} but carries tag "
                f"{('align', ghost)!r}"
            )
        bits[alignment] = bit
    missing = [i for i, bit in enumerate(bits) if bit is None]
    if missing:
        raise SimulationError(
            f"alignments {missing[:8]} never exited the matcher"
        )
    final = [bool(b) for b in bits]
    cells = 2 * m - 1
    return PatternMatchResult(
        matches=[i for i, bit in enumerate(final) if bit],
        bits=final,
        run=ArrayRun(pulses=pulses, rows=1, cols=cells, cells=cells),
    )
