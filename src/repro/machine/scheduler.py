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

The *host* side of "several operations proceed concurrently" lives
here too: :class:`HostExecutor` resolves a transaction's compute
thunks in dependency waves over one process-lifetime set of worker
threads, on which the calling thread does its share — one thunk of
every wave, and any thunk no worker has picked up by the time it would
otherwise wait.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import threading
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
    "host_stats",
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


class _HostWorkers:
    """The process's one set of compute-phase worker threads.

    Created on the first submission and kept for the life of the
    process: a query pays no thread start or join.  Threads are
    spawned only while every existing one is busy, up to
    :func:`_host_width` of them; idle workers exit with the interpreter
    (``concurrent.futures`` wakes and joins them at shutdown).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._tasks = 0
        self._inline_tasks = 0

    def submit(self, fn: Callable, *args: Any) -> concurrent.futures.Future:
        pool = self._pool
        if pool is None:
            with self._lock:
                if self._pool is None:
                    self._pool = concurrent.futures.ThreadPoolExecutor(
                        max_workers=_host_width(),
                        thread_name_prefix="repro-host",
                    )
                pool = self._pool
        return pool.submit(fn, *args)

    def count(self, tasks: int, inline_tasks: int) -> None:
        with self._lock:
            self._tasks += tasks
            self._inline_tasks += inline_tasks

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "tasks": self._tasks, "inline_tasks": self._inline_tasks,
            }


def _host_width() -> int:
    """How many threads it pays to run thunks on at once: outside numpy
    they hold the interpreter lock, so more than the cores (or eight)
    only adds switching.  The size of the worker set, and the default
    bound on one run."""
    return min(8, os.cpu_count() or 1)


_WORKERS = _HostWorkers()


def host_stats() -> dict[str, int]:
    """Process-wide thunk counts: ``tasks`` resolved by any
    :class:`HostExecutor`, ``inline_tasks`` of them on the calling
    thread (the ``stats`` verb of ``repro serve`` reports both)."""
    return _WORKERS.stats()


class HostExecutor:
    """Runs a transaction's compute thunks concurrently on host threads.

    §9's machine overlaps independent operations in *simulated* pulse
    time; this executor overlaps the host-side work of producing their
    results too.  It is a dependency-respecting wave scheduler over the
    process's one long-lived worker set: of the thunks whose inputs are
    resolved, the calling thread keeps one for itself and hands the
    others to the workers (``max_workers`` bounds how many thunks of
    this run are in flight at once, the caller's included), and
    completions release their dependents.  A wave of one thunk never
    leaves the calling thread, and ``max_workers=1`` is the sequential
    topological order.  Thunks are pure functions of their dependency
    results (device ``execute`` calls, disk reads), so the result of a
    parallel run is bit-identical to the sequential one — only
    wall-clock changes.

    Before it blocks on a future the caller takes back any of its
    futures that no worker has started (``Future.cancel``) and runs it
    inline, so it only ever waits for a thunk some thread is executing.
    Runs therefore nest safely — a shard lane's thunk opens the waves
    of its own machine run on the same workers — whatever the ratio of
    lanes to workers, and workers held by an abandoned query cost the
    others their parallelism, never their progress.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = _host_width()
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
        dependency cycle, raises :class:`~repro.errors.PlanError`.  A
        thunk's exception propagates once no sibling is still running.
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

        ready: collections.deque[int] = collections.deque()
        in_flight: dict[concurrent.futures.Future, int] = {}
        resolved_count = inline = 0

        def release() -> None:
            freed = [op_id for op_id, deps in pending.items() if not deps]
            for op_id in freed:
                del pending[op_id]
            ready.extend(freed)

        def call(op_id: int) -> tuple[Callable, dict[int, Any]]:
            deps, fn = thunks[op_id]
            # A snapshot of the dependency results, so that no worker
            # ever reads the shared dict while it is written.
            return fn, {d: results[d] for d in deps}

        def resolve(op_id: int, value: Any) -> None:
            nonlocal resolved_count
            resolved_count += 1
            results[op_id] = value
            for deps in pending.values():
                deps.discard(op_id)
            release()

        release()
        try:
            while ready or in_flight:
                while len(ready) > 1 and len(in_flight) + 1 < self.max_workers:
                    op_id = ready.popleft()
                    in_flight[_WORKERS.submit(*call(op_id))] = op_id
                if ready:
                    mine = ready.popleft()
                else:
                    mine = next(
                        (op_id for future, op_id in in_flight.items()
                         if future.cancel()),
                        None,
                    )
                if mine is not None:
                    fn, resolved = call(mine)
                    resolve(mine, fn(resolved))
                    inline += 1
                else:  # every future left is running on some thread
                    concurrent.futures.wait(
                        in_flight,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                for future in [f for f in in_flight if f.done()]:
                    op_id = in_flight.pop(future)
                    if not future.cancelled():  # a cancelled one ran inline
                        resolve(op_id, future.result())
        finally:
            if in_flight:
                # Only an exception leaves futures behind: withdraw the
                # ones no worker has started, let the running ones finish.
                concurrent.futures.wait(
                    [future for future in in_flight if not future.cancel()]
                )
            metrics.inc("machine.host.tasks", resolved_count)
            metrics.inc("machine.host.inline_tasks", inline)
            _WORKERS.count(resolved_count, inline)
        if pending:
            raise PlanError(f"dependency cycle among ops {sorted(pending)}")
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
