"""Feeders and collectors: the array's boundary with the outside world.

The paper's arrays receive data from memories in carefully *staggered*
schedules (§3.1–§3.2) and emit results off an edge at
schedule-determined pulses.  Feeders produce the inbound schedule;
:class:`Collector` records what leaves a tap, pulse-stamped, so the
operator layer can map arrival times back to tuple indices exactly as a
hardware result-collector would.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.systolic.values import Token

__all__ = ["ScheduleFeeder", "PeriodicFeeder", "ConstantFeeder", "Collector"]


class ScheduleFeeder:
    """Feeds an explicit ``{pulse: token}`` schedule; empty otherwise."""

    def __init__(self, schedule: dict[int, Token]) -> None:
        for pulse in schedule:
            if pulse < 0:
                raise SimulationError(f"schedule pulse {pulse} is negative")
        self._schedule = dict(schedule)

    def __call__(self, pulse: int) -> Optional[Token]:
        return self._schedule.get(pulse)

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

    def __repr__(self) -> str:
        return (
            f"PeriodicFeeder({len(self._tokens)} tokens, start={self._start}, "
            f"period={self._period})"
        )


class ConstantFeeder:
    """Feeds the same token every pulse: an operand preloaded in place."""

    def __init__(self, token: Token) -> None:
        self._token = token

    def __call__(self, pulse: int) -> Optional[Token]:
        return self._token

    def __repr__(self) -> str:
        return f"ConstantFeeder({self._token!r})"


class Collector:
    """Pulse-stamped record of the tokens leaving one tap.

    Only non-empty pulses are recorded, each at most once: the pulse a
    record left on is what a hardware collector's timing arithmetic
    decodes.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: list[tuple[int, Token]] = []
        self._pulses: set[int] = set()

    def record(self, pulse: int, token: Token) -> None:
        """Append one observation (called by the simulator)."""
        if pulse in self._pulses:
            raise SimulationError(
                f"collector {self.name!r} saw two tokens on pulse {pulse}"
            )
        self._records.append((pulse, token))
        self._pulses.add(pulse)

    # -- queries ---------------------------------------------------------

    @property
    def records(self) -> tuple[tuple[int, Token], ...]:
        """All observations as ``(pulse, token)`` pairs, in pulse order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[tuple[int, Token]]:
        return iter(self._records)

    def __repr__(self) -> str:
        return f"Collector({self.name!r}, {len(self._records)} records)"
