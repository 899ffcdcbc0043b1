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
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import PlanError
from repro.obs import metrics
from repro.machine.device import CpuDevice, SystolicDevice

__all__ = [
    "ScheduledStep",
    "ExecutionReport",
    "DeviceRoster",
    "HostExecutor",
    "gantt",
]

#: A compute thunk: dependency op ids plus a function from the resolved
#: dependency results to this op's result.
Thunk = tuple[tuple[int, ...], Callable[[dict[int, Any]], Any]]


@dataclass
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
        """Busy time per device (and the disk)."""
        busy: dict[str, float] = {}
        for step in self.steps:
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


class HostExecutor:
    """Runs a transaction's compute thunks concurrently on host threads.

    §9's machine overlaps independent operations in *simulated* pulse
    time; this executor overlaps the host-side work of producing their
    results too.  It is a dependency-respecting wave scheduler: every
    thunk whose inputs are resolved is submitted to a thread pool, and
    completions release their dependents.  Thunks are pure functions of
    their dependency results (device ``execute`` calls, disk reads), so
    the result of a parallel run is bit-identical to the sequential
    topological order — only wall-clock changes.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        if max_workers < 1:
            raise PlanError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers

    def run(
        self,
        thunks: dict[int, Thunk],
        seed: Optional[dict[int, Any]] = None,
    ) -> dict[int, Any]:
        """Resolve every thunk; returns ``{op_id: result}`` incl. seeds.

        ``seed`` holds pre-resolved results (resident relations).  A
        dependency on an id in neither ``thunks`` nor ``seed``, or a
        dependency cycle, raises :class:`~repro.errors.PlanError`.
        """
        results: dict[int, Any] = dict(seed or {})
        known = set(results) | set(thunks)
        pending: dict[int, set[int]] = {}
        for op_id, (deps, _) in thunks.items():
            missing = [d for d in deps if d not in known]
            if missing:
                raise PlanError(
                    f"thunk {op_id} depends on unknown ops {missing}"
                )
            pending[op_id] = {d for d in deps if d not in results}
        if self.max_workers == 1 or len(pending) <= 1:
            return self._run_serial(thunks, pending, results)
        return self._run_parallel(thunks, pending, results)

    def _run_serial(
        self,
        thunks: dict[int, Thunk],
        pending: dict[int, set[int]],
        results: dict[int, Any],
    ) -> dict[int, Any]:
        while pending:
            ready = [op_id for op_id, deps in pending.items() if not deps]
            if not ready:
                raise PlanError(
                    f"dependency cycle among ops {sorted(pending)}"
                )
            for op_id in ready:
                results[op_id] = thunks[op_id][1](results)
                metrics.inc("machine.host.tasks")
                del pending[op_id]
            for deps in pending.values():
                deps.difference_update(ready)
        return results

    def _run_parallel(
        self,
        thunks: dict[int, Thunk],
        pending: dict[int, set[int]],
        results: dict[int, Any],
    ) -> dict[int, Any]:
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers
        ) as pool:
            in_flight: dict[concurrent.futures.Future, int] = {}

            def submit_ready() -> None:
                ready = [
                    op_id for op_id, deps in pending.items() if not deps
                ]
                for op_id in ready:
                    del pending[op_id]
                    deps, fn = thunks[op_id]
                    # Snapshot the dependency results so the worker
                    # never reads the shared dict concurrently.
                    resolved = {d: results[d] for d in deps}
                    in_flight[pool.submit(fn, resolved)] = op_id
                if not ready and pending and not in_flight:
                    raise PlanError(
                        f"dependency cycle among ops {sorted(pending)}"
                    )

            submit_ready()
            while in_flight:
                done, _ = concurrent.futures.wait(
                    in_flight,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    op_id = in_flight.pop(future)
                    results[op_id] = future.result()
                    metrics.inc("machine.host.tasks")
                    for deps in pending.values():
                        deps.discard(op_id)
                submit_ready()
        return results


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
