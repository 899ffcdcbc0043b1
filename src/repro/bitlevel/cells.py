"""The bit-magnitude chain (§8, ref [3]).

Equality at the bit level needs no new cell: a bit is just a 1-bit word
and the Fig 3-2 comparison processor ANDs bit equalities exactly as it
ANDs word equalities.  *Magnitude* comparison does need a new cell: a
single bit pair cannot decide ``<`` — the decision belongs to the most
significant bit position where the operands differ.

:class:`MagnitudeChain` is the spatial MSB-first scheme: a
three-valued state (EQ / LT / GT, encoded 0 / −1 / +1) travels
left-to-right through a chain of bit cells, one cell a pulse, and the
bits of position ``p`` reach cell ``p`` on the pulse the state does.  A
cell only refines the state while it is still EQ; once decided, the
state passes through untouched.  After the full width the state is the
three-way comparison of the two words, from which any of <, ≤, >, ≥,
=, ≠ can be read off.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SimulationError

__all__ = ["MagnitudeChain", "EQ", "LT", "GT"]

#: Three-way comparison states carried by the travelling state.
EQ, LT, GT = 0, -1, 1


class MagnitudeChain:
    """The chain's registers, advanced one clock per :meth:`clock`: the
    state register (a value and a presence bit a cell) shifts one cell
    a pulse; each cell's bit latches hold what was fed there this
    pulse."""

    def __init__(self, width: int) -> None:
        self.pulse = 0
        self.state = np.full(width, EQ, np.int8)
        self.held = np.zeros(width, bool)

    def clock(
        self, a: np.ndarray, b: np.ndarray, seed: bool
    ) -> Optional[int]:
        """One pulse: ``a`` / ``b`` are the bits at each cell (−1: none)
        and ``seed`` whether the EQ state enters the first cell.
        Returns the state the last cell put out, or None."""
        self.state[1:], self.held[1:] = self.state[:-1], self.held[:-1]
        self.state[0], self.held[0] = EQ, seed
        pair = (a >= 0) & (b >= 0)
        bad = self.held != pair
        if bad.any():
            cell = int(np.argmax(bad))
            message = (
                "a comparison state arrived without a bit pair — the bit "
                "streams are mis-staggered"
                if self.held[cell] else
                "bits met with no comparison state on s_in — the "
                "state-injection schedule missed this meeting"
            )
            raise SimulationError(
                f"pulse {self.pulse}: cell 'mag[{cell}]': {message}"
            )
        open_ = self.held & (self.state == EQ)
        self.state[open_] = np.sign(a - b)[open_]
        self.pulse += 1
        return int(self.state[-1]) if self.held[-1] else None
