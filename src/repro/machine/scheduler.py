"""Transaction scheduling on the integrated machine (§9).

§9's execution loop — configure the crossbar, pipeline an operation
from memories through a device into another memory, repeat, with
independent operations running concurrently — is a classic
resource-constrained list-scheduling problem.  The scheduler walks the
plan in topological order and starts each operation at the earliest
time its inputs, a device of the right kind, and the memory ports are
all simultaneously available.

Operation duration is the maximum of the device's compute time and the
memory-port streaming times (an array can only run as fast as its
slowest stream — the "high capacity for data transfer" requirement §9
opens with).

"Several operations may be run concurrently" is a statement about the
*simulated* clock: it is this timeline that overlaps them.  The host
computes their results one after another on the calling thread
(:class:`~repro.machine.execution.PlanExecutor`).

Every run of a plan starts on the same fresh machine, so an op's
placement is a function of the plan and of what the ops up to it
resolved.  A :class:`PlacementMemo` on the cached plan records each
:class:`Placement` under those resolutions, and a later run that
resolves the same way replays it instead of re-running the models.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

from repro.errors import PlanError
from repro.machine.device import CpuDevice, SystolicDevice

__all__ = [
    "PLACEMENT_MEMO_NODES",
    "ScheduledStep",
    "ExecutionReport",
    "DeviceRoster",
    "Placement",
    "PlacementMemo",
    "gantt",
]

#: The most placements one plan's memo records; past it, runs place
#: through the models and record nothing.
PLACEMENT_MEMO_NODES = 256


@dataclass(frozen=True)
class ScheduledStep:
    """One operation (or disk load) placed on the timeline."""

    label: str
    device: str
    start: float
    end: float
    output_key: str
    output_memory: str
    input_keys: tuple[str, ...] = ()
    pulses: int = 0
    block_runs: int = 0
    nbytes_out: int = 0
    #: a disk read in the sweep of an earlier step: the same window,
    #: the same revolution (§8), so its time is that step's.
    swept: bool = False

    @property
    def duration(self) -> float:
        """Wall-clock seconds occupied by the step."""
        return self.end - self.start


@dataclass
class ExecutionReport:
    """The executed timeline of one transaction."""

    steps: list[ScheduledStep] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """End-to-end wall-clock time."""
        return max((step.end for step in self.steps), default=0.0)

    @property
    def serial_seconds(self) -> float:
        """Total work: what a one-op-at-a-time machine would take."""
        return sum(step.duration for step in self.steps)

    @property
    def concurrency_speedup(self) -> float:
        """serial ÷ makespan — the crossbar's overlap win."""
        if self.makespan == 0:
            return 1.0
        return self.serial_seconds / self.makespan

    def device_busy_seconds(self) -> dict[str, float]:
        """Busy time per device (and the disk); a disk sweep's window
        counts once."""
        busy: dict[str, float] = {}
        for step in self.steps:
            if not step.swept:
                busy[step.device] = busy.get(step.device, 0.0) + step.duration
        return busy

    def timeline(self) -> str:
        """Human-readable schedule for examples and debugging."""
        lines = [
            f"{'start':>10}  {'end':>10}  {'device':<14}  step",
            f"{'-' * 10}  {'-' * 10}  {'-' * 14}  {'-' * 30}",
        ]
        for step in sorted(self.steps, key=lambda s: (s.start, s.label)):
            lines.append(
                f"{step.start * 1e3:>8.3f}ms  {step.end * 1e3:>8.3f}ms  "
                f"{step.device:<14}  {step.label}"
            )
        lines.append(
            f"makespan {self.makespan * 1e3:.3f} ms, serial "
            f"{self.serial_seconds * 1e3:.3f} ms, speedup "
            f"{self.concurrency_speedup:.2f}×"
        )
        return "\n".join(lines)


class DeviceRoster:
    """Tracks when each device instance becomes free.

    The planner chooses devices with :meth:`pick`; the executor replays
    the plan's choices against its own roster (:meth:`free_at` /
    :meth:`occupy`).  With per-device predicted ``durations``,
    :meth:`pick` is **cost-aware**: it minimizes completion time
    (queueing delay plus predicted run time), so a heterogeneous roster
    routes a large relation to the big array even when a small one
    frees up first.  Without durations it degrades to the first-free
    rule.  On equal predicted completion the lexicographically smallest
    device name wins (pinned by the roster tie-break tests).
    """

    def __init__(self, devices: list[SystolicDevice | CpuDevice]) -> None:
        if not devices:
            raise PlanError("the machine needs at least one device")
        self._free_at: dict[str, float] = {d.name: 0.0 for d in devices}
        self._by_kind: dict[str, list[SystolicDevice | CpuDevice]] = {}
        for device in devices:
            self._by_kind.setdefault(device.kind, []).append(device)

    def free_at(self, name: str) -> float:
        """When a device becomes free."""
        try:
            return self._free_at[name]
        except KeyError:
            raise PlanError(f"unknown device {name!r}") from None

    def pick(
        self,
        kind: str,
        ready: float,
        durations: Optional[dict[str, float]] = None,
    ) -> tuple[SystolicDevice | CpuDevice, float]:
        """The device of ``kind`` that *finishes* earliest after ``ready``.

        ``durations`` maps device names to predicted run seconds; a
        missing entry (or ``None``) costs zero, reducing the choice to
        earliest availability.  Ties break by device name.
        """
        candidates = self._by_kind.get(kind)
        if not candidates:
            raise PlanError(
                f"no device of kind {kind!r} is attached to the machine"
            )
        durations = durations or {}

        def completion(device) -> tuple[float, str]:
            start = max(ready, self._free_at[device.name])
            return start + durations.get(device.name, 0.0), device.name

        best = min(candidates, key=completion)
        return best, max(ready, self._free_at[best.name])

    def occupy(self, name: str, until: float) -> None:
        """Mark a device busy until ``until``."""
        self._free_at[name] = until


@dataclass(frozen=True)
class Placement:
    """What placing one op — or one chain, member by member — did.

    ``steps`` are its timeline steps in placement order; the rest are
    its effects on the machine state: the steps whose output went into
    a memory (``stored``, indices into ``steps``) and the crossbar
    links it held, as ``(memory, device, start, end)``.  Device and
    disk occupancy and key-counter advances follow from the steps.
    ``fused`` says how a chain, or a disk sweep, ran (None for a single
    op).  No relation is held: applying a placement stores the run's
    own.
    """

    steps: tuple[ScheduledStep, ...]
    stored: tuple[int, ...]
    links: tuple[tuple[str, str, float, float], ...]
    fused: Optional[bool] = None


class _MemoNode:
    """One recorded prefix of a plan's resolutions."""

    __slots__ = ("value", "children")

    def __init__(self, value) -> None:
        self.value = value
        self.children: dict[Hashable, _MemoNode] = {}


class PlacementMemo:
    """A trie of recorded placements, one per cached physical plan.

    A root per resident layout (the memories and what is preloaded in
    them) holds where the residents sit; below it, each edge is one
    op's resolution key and its node that op's :class:`Placement`.  A
    run walks down while its resolutions match, and from its first
    miss places through the models and records the new branch.

    Lookups take no lock.  Inserts do, first-wins: two runs recording
    the same edge computed equal placements, so either serves.  At
    most :data:`PLACEMENT_MEMO_NODES` nodes are recorded.
    """

    def __init__(self) -> None:
        #: nodes recorded so far (roots included).
        self.nodes = 0
        self._roots: dict[Hashable, _MemoNode] = {}
        self._lock = threading.Lock()

    def root(
        self, layout: Hashable, residents: Callable[[], object]
    ) -> Optional[_MemoNode]:
        """The root for a resident layout, recording ``residents()``
        (where they sit) the first time; None past the cap."""
        node = self._roots.get(layout)
        if node is not None:
            return node
        return self.record(self._roots, layout, residents())

    def record(
        self, children: dict, key: Hashable, value
    ) -> Optional[_MemoNode]:
        """The node under ``key`` — an earlier recorder's if there is
        one, else a new one holding ``value``; None past the cap."""
        with self._lock:
            node = children.get(key)
            if node is None:
                if self.nodes >= PLACEMENT_MEMO_NODES:
                    return None
                node = children[key] = _MemoNode(value)
                self.nodes += 1
            return node


def gantt(report: ExecutionReport, width: int = 60) -> str:
    """Render the timeline as an ASCII Gantt chart, one row per device.

    Each row shows the device's busy intervals over the makespan,
    scaled to ``width`` characters — the §9 machine's concurrency at a
    glance.
    """
    if not report.steps:
        return "(empty timeline)"
    makespan = report.makespan
    if makespan <= 0:
        return "(zero-length timeline)"
    devices = sorted({step.device for step in report.steps})
    name_width = max(len(name) for name in devices)
    lines = []
    for device in devices:
        row = [" "] * width
        for step in report.steps:
            if step.device != device:
                continue
            start = int(step.start / makespan * (width - 1))
            end = max(start + 1, int(step.end / makespan * (width - 1)) + 1)
            for position in range(start, min(end, width)):
                row[position] = "#"
        lines.append(f"{device:>{name_width}} |{''.join(row)}|")
    scale = f"{' ' * name_width}  0{'':{width - 8}}{makespan * 1e3:.1f} ms"
    lines.append(scale)
    return "\n".join(lines)
