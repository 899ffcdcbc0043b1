"""The crossbar switch of Fig 9-1.

A crossbar is internally non-blocking: any set of memory↔device links
may be up simultaneously, provided no memory port and no device port
carries two links at once.  The switch records every configuration the
scheduler establishes, validates it against those port constraints, and
reports how often it was reconfigured — the §9 system "is repeated for
each relational operation in the transaction", one configuration per
operation, with "several operations ... run concurrently".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, PlanError

__all__ = ["Link", "CrossbarSwitch"]


@dataclass(frozen=True)
class Link:
    """One memory↔device connection during a time interval."""

    memory: str
    device: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise PlanError(f"link interval is inverted: {self}")

    def overlaps(self, other: "Link") -> bool:
        """Whether two links' intervals intersect (open at the ends)."""
        return self.start < other.end and other.start < self.end


class CrossbarSwitch:
    """Connection fabric between memory modules and systolic devices."""

    def __init__(self, memory_names: list[str], device_names: list[str]) -> None:
        if not memory_names or not device_names:
            raise CapacityError(
                "a crossbar needs at least one memory and one device port"
            )
        self._memory_ports = set(memory_names)
        self._device_ports = set(device_names)
        self._links: list[Link] = []

    # -- configuration -----------------------------------------------------

    def establish(self, memory: str, device: str, start: float, end: float) -> Link:
        """Hold a memory↔device link for [start, end); checks conflicts."""
        if memory not in self._memory_ports:
            raise PlanError(
                f"unknown memory port {memory!r}; have {sorted(self._memory_ports)}"
            )
        if device not in self._device_ports:
            raise PlanError(
                f"unknown device port {device!r}; have {sorted(self._device_ports)}"
            )
        link = Link(memory, device, start, end)
        for existing in self._links:
            if not link.overlaps(existing):
                continue
            if existing.memory == memory and existing.device != device:
                raise CapacityError(
                    f"memory port {memory!r} already linked to "
                    f"{existing.device!r} during [{existing.start:.6f}, "
                    f"{existing.end:.6f})"
                )
        self._links.append(link)
        return link

    # -- queries -------------------------------------------------------------

    @property
    def links(self) -> tuple[Link, ...]:
        """All links established so far, in creation order."""
        return tuple(self._links)

    def memory_free(self, memory: str, start: float, end: float) -> bool:
        """Whether a memory port is unlinked throughout [start, end)."""
        probe = Link(memory, "?", start, end)
        return not any(
            link.memory == memory and link.overlaps(probe) for link in self._links
        )

    def earliest_window(self, memory: str, ready: float, duration: float) -> float:
        """Earliest start ≥ ``ready`` of a ``duration``-long free window.

        Finds the first gap in the memory port's link intervals long
        enough to hold the whole transfer.
        """
        if duration < 0:
            raise PlanError(f"negative window duration: {duration}")
        intervals = sorted(
            (link.start, link.end)
            for link in self._links
            if link.memory == memory and link.end > link.start
        )
        start = ready
        for busy_start, busy_end in intervals:
            if busy_end <= start:
                continue
            if busy_start >= start + duration:
                break
            start = busy_end
        return start

    def configurations(self) -> int:
        """Number of link establishments (≈ crossbar reconfigurations)."""
        return len(self._links)

    def concurrency_profile(self) -> float:
        """Peak number of simultaneously-held links."""
        events: list[tuple[float, int]] = []
        for link in self._links:
            if link.end > link.start:
                events.append((link.start, +1))
                events.append((link.end, -1))
        events.sort()
        active = peak = 0
        for _, delta in events:
            active += delta
            peak = max(peak, active)
        return peak

    def __repr__(self) -> str:
        return (
            f"CrossbarSwitch({len(self._memory_ports)} memories × "
            f"{len(self._device_ports)} devices, {len(self._links)} links)"
        )
