"""The systolic pattern matcher — the §8 pattern-match chip, full size.

Geometry: ``m`` pattern cells in a row (pattern preloaded, one
character per cell), each followed by a delay latch on the result path.
Text characters move right one cell per pulse; partial results move
right one cell per **two** pulses (cell + latch), so the result seeded
for alignment ``i`` compares against ``text[i]``, ``text[i+1]``, … ,
``text[i+m−1]`` in successive cells:

* ``text[j]`` is at cell ``k`` on pulse ``j + k`` (char path: 1 hop/pulse);
* the alignment-``i`` result is at cell ``k`` on pulse ``i + 2k`` —
  which is exactly where ``text[i+k]`` is.

The match bit for alignment ``i`` exits the last cell on pulse
``i + 2(m−1)``; the collector maps pulses back to alignments by that
formula alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arrays.base import ArrayRun, run_array
from repro.errors import SimulationError
from repro.patterns.cells import WILDCARD, PatternCell
from repro.systolic.cells import LatchCell
from repro.systolic.streams import PeriodicFeeder, ScheduleFeeder
from repro.systolic.values import Token
from repro.systolic.wiring import Network

__all__ = ["PatternMatchResult", "build_pattern_array", "match_pattern"]


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


def build_pattern_array(
    text_codes: Sequence[object],
    pattern_codes: Sequence[object],
) -> tuple[Network, int]:
    """Assemble the matcher; returns (network, exit pulse offset 2(m−1))."""
    m = len(pattern_codes)
    n = len(text_codes)
    if m == 0:
        raise SimulationError("the pattern must be non-empty")
    if n < m:
        raise SimulationError(
            f"text of length {n} is shorter than the pattern ({m})"
        )
    network = Network("pattern-matcher")
    for k, stored in enumerate(pattern_codes):
        network.add(PatternCell(f"pat[{k}]", stored))
    for k in range(m - 1):
        network.add(LatchCell(f"lag[{k}]"))
    for k in range(m - 1):
        # Character path: cell to cell, full speed.
        network.connect(f"pat[{k}]", "c_out", f"pat[{k + 1}]", "c_in")
        # Result path: cell -> latch -> next cell, half speed.
        network.connect(f"pat[{k}]", "r_out", f"lag[{k}]", "d_in")
        network.connect(f"lag[{k}]", "d_out", f"pat[{k + 1}]", "r_in")
    network.tap("match", f"pat[{m - 1}]", "r_out")

    network.feed(
        "pat[0]", "c_in",
        PeriodicFeeder([Token(code) for code in text_codes], start=0, period=1),
    )
    alignments = n - m + 1
    network.feed(
        "pat[0]", "r_in",
        ScheduleFeeder({i: Token(True, ("align", i)) for i in range(alignments)}),
    )
    return network, 2 * (m - 1)


def match_pattern(
    text: str | Sequence[int],
    pattern: str | Sequence[object],
    wildcard: Optional[str] = "?",
) -> PatternMatchResult:
    """Find every alignment of ``pattern`` in ``text`` on the chip.

    String patterns may contain ``wildcard`` characters (default
    ``"?"``), which match any text character — pass ``wildcard=None``
    to disable.  Integer sequences may mix codes with
    :data:`~repro.patterns.cells.WILDCARD`.
    """
    text_codes = _encode(text)
    pattern_codes = _encode_pattern(pattern, wildcard)
    network, exit_offset = build_pattern_array(text_codes, pattern_codes)
    alignments = len(text_codes) - len(pattern_codes) + 1
    pulses = (alignments - 1) + exit_offset + 1
    simulator = run_array(network, pulses=pulses)

    bits: list[Optional[bool]] = [None] * alignments
    for pulse, token in simulator.collector("match"):
        alignment = pulse - exit_offset
        if not 0 <= alignment < alignments:
            raise SimulationError(
                f"match bit exited on pulse {pulse}, which maps to no "
                f"alignment"
            )
        if bits[alignment] is not None:
            raise SimulationError(f"alignment {alignment} exited twice")
        if token.tag is not None and token.tag != ("align", alignment):
            raise SimulationError(
                f"arrival decoded as alignment {alignment} but carries tag "
                f"{token.tag!r}"
            )
        bits[alignment] = bool(token.value)
    missing = [i for i, bit in enumerate(bits) if bit is None]
    if missing:
        raise SimulationError(
            f"alignments {missing[:8]} never exited the matcher"
        )
    final = [bool(b) for b in bits]
    cells = 2 * len(pattern_codes) - 1
    return PatternMatchResult(
        matches=[i for i, bit in enumerate(final) if bit],
        bits=final,
        run=ArrayRun(pulses=pulses, rows=1, cols=cells, cells=cells),
    )
