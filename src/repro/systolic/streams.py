"""Feeders and collectors: the array's boundary with the outside world.

The paper's arrays receive data from memories in carefully *staggered*
schedules (§3.1–§3.2) and emit results off an edge at
schedule-determined pulses.  Feeders produce the inbound schedule;
:class:`Collector` records what leaves a tap, pulse-stamped, so the
operator layer can map arrival times back to tuple indices exactly as a
hardware result-collector would.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.systolic.values import Token

__all__ = [
    "ScheduleFeeder",
    "PeriodicFeeder",
    "ConstantFeeder",
    "silent",
    "Collector",
]


class ScheduleFeeder:
    """Feeds an explicit ``{pulse: token}`` schedule; empty otherwise."""

    def __init__(self, schedule: dict[int, Token]) -> None:
        for pulse in schedule:
            if pulse < 0:
                raise SimulationError(f"schedule pulse {pulse} is negative")
        self._schedule = dict(schedule)

    def __call__(self, pulse: int) -> Optional[Token]:
        return self._schedule.get(pulse)

    @property
    def last_pulse(self) -> int:
        """The final pulse on which this feeder emits (-1 if never)."""
        return max(self._schedule, default=-1)

    def __repr__(self) -> str:
        return f"ScheduleFeeder({len(self._schedule)} entries)"


class PeriodicFeeder:
    """Feeds ``tokens[q]`` at pulse ``start + q * period``.

    This is the paper's tuple-feeding pattern: "each tuple is two steps
    behind the tuple that preceded it" (§3.2) is ``period=2``; the
    fixed-relation variant of §8 uses ``period=1``.
    """

    def __init__(self, tokens: Sequence[Optional[Token]], start: int, period: int) -> None:
        if period < 1:
            raise SimulationError(f"feeder period must be >= 1, got {period}")
        if start < 0:
            raise SimulationError(f"feeder start must be >= 0, got {start}")
        self._tokens = list(tokens)
        self._start = start
        self._period = period

    def __call__(self, pulse: int) -> Optional[Token]:
        offset = pulse - self._start
        if offset < 0 or offset % self._period:
            return None
        index = offset // self._period
        if index >= len(self._tokens):
            return None
        return self._tokens[index]

    @property
    def last_pulse(self) -> int:
        """The final pulse on which this feeder can emit."""
        if not self._tokens:
            return -1
        return self._start + (len(self._tokens) - 1) * self._period

    def __repr__(self) -> str:
        return (
            f"PeriodicFeeder({len(self._tokens)} tokens, start={self._start}, "
            f"period={self._period})"
        )


class ConstantFeeder:
    """Feeds the same token every pulse (optionally within a window)."""

    def __init__(
        self, token: Token, start: int = 0, stop: Optional[int] = None
    ) -> None:
        self._token = token
        self._start = start
        self._stop = stop

    def __call__(self, pulse: int) -> Optional[Token]:
        if pulse < self._start:
            return None
        if self._stop is not None and pulse >= self._stop:
            return None
        return self._token

    def __repr__(self) -> str:
        window = f", start={self._start}, stop={self._stop}"
        return f"ConstantFeeder({self._token!r}{window})"


def silent(pulse: int) -> Optional[Token]:
    """A feeder that never emits (an explicitly-quiet boundary input)."""
    return None


class Collector:
    """Pulse-stamped record of the tokens leaving one tap.

    Only non-empty pulses are recorded.  ``at(pulse)`` answers "what
    left on pulse p" — the primitive a hardware collector's timing
    arithmetic is built on.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: list[tuple[int, Token]] = []
        self._by_pulse: dict[int, Token] = {}

    def record(self, pulse: int, token: Token) -> None:
        """Append one observation (called by the simulator)."""
        if pulse in self._by_pulse:
            raise SimulationError(
                f"collector {self.name!r} saw two tokens on pulse {pulse}"
            )
        self._records.append((pulse, token))
        self._by_pulse[pulse] = token

    # -- queries ---------------------------------------------------------

    @property
    def records(self) -> tuple[tuple[int, Token], ...]:
        """All observations as ``(pulse, token)`` pairs, in pulse order."""
        return tuple(self._records)

    def at(self, pulse: int) -> Optional[Token]:
        """The token recorded on ``pulse``, or None."""
        return self._by_pulse.get(pulse)

    def values(self) -> list[Any]:
        """Just the payloads, in arrival order."""
        return [token.value for _, token in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[tuple[int, Token]]:
        return iter(self._records)

    def __repr__(self) -> str:
        return f"Collector({self.name!r}, {len(self._records)} records)"
