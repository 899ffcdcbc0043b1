"""Recovery primitives: bounded retries, cancellation, deadlines.

The machine and shard executors recover from injected (or real)
transient faults by retrying the same planned dispatch with **bounded
exponential backoff** — the retried attempt runs the identical pure
computation on the identical device, which is why a recovered run stays
bit-identical to a fault-free one.  The primitives here keep that loop
honest:

* :class:`RetryPolicy` — attempt budget and backoff curve, with
  *deterministic* jitter (a seeded hash of the retry site, not a shared
  RNG) so two runs of the same plan back off identically;
* :class:`CancelToken` — a cooperative stop flag checked at dispatch
  boundaries and inside backoff/slowness sleeps, so a deadline can
  cancel a hung query promptly;
* :func:`retry_call` — the one retry loop everyone shares, charging
  each retry to the :class:`~repro.faults.plan.FaultPlan` ledger and
  the ``faults.retries`` / ``faults.backoff_seconds`` metrics;
* :func:`guarded_call` — the one dispatch boundary: cancel check, the
  fault plan's injection and slowness, then the work, under
  :func:`retry_call` — shared by disk reads, device executes, shard
  stage runs and interconnect exchanges;
* :func:`run_with_deadline` — run a callable on a worker thread and
  cancel it (``faults.deadline_cancels``, :class:`DeadlineError`) when
  the budget lapses;
* :func:`replan_on_quarantine` — the one degradation loop: a device
  that exhausts its retries is quarantined and the query replanned on
  the surviving roster, identically for the single machine, the
  engine pool and every shard lane.

Backoff sleeps are *host* time and deliberately tiny (milliseconds by
default): they shape contention, not simulated timelines, which are
computed from the plan and the data and never see them.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Type

from repro.errors import (
    DeadlineError,
    DeviceFaultError,
    FaultError,
    PlanError,
)
from repro.obs import metrics

__all__ = [
    "CancelToken",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "guarded_call",
    "replan_on_quarantine",
    "retry_call",
    "run_with_deadline",
]

#: Sleeps are sliced into pieces this long so a cancel lands mid-sleep.
_SLEEP_SLICE = 0.01


class CancelToken:
    """A cooperative cancellation flag between a query and its deadline.

    The deadline enforcer sets it; the execution layers poll it at
    dispatch boundaries (:meth:`check`) and slice every injected or
    backoff sleep through :meth:`sleep` so cancellation lands within
    ~10 ms even inside a deliberately slowed query.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        """Raise :class:`DeadlineError` if the token has been cancelled."""
        if self._event.is_set():
            raise DeadlineError(self.reason or "query cancelled")

    def sleep(self, seconds: float) -> None:
        """Sleep, but wake (and raise) the moment the token cancels."""
        deadline = time.monotonic() + seconds
        while True:
            self.check()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._event.wait(min(remaining, _SLEEP_SLICE))


def cancellable_sleep(
    seconds: float, cancel: Optional[CancelToken]
) -> None:
    """Sleep through the token when there is one, plainly otherwise."""
    if seconds <= 0:
        return
    if cancel is not None:
        cancel.sleep(seconds)
    else:
        time.sleep(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``attempts`` counts *total* tries (so ``attempts=4`` means one try
    plus up to three retries).  The delay before retry *k* is
    ``base * multiplier**(k-1)`` capped at ``cap``, scaled into
    ``[1 - jitter, 1]`` by a hash of ``(seed, site, k)`` — jittered so
    concurrent retries of different sites de-synchronize, deterministic
    so the same run always backs off the same way.
    """

    attempts: int = 4
    base_seconds: float = 0.001
    cap_seconds: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, retry: int, site: str = "") -> float:
        """Seconds to wait before retry number ``retry`` (1-based)."""
        raw = self.base_seconds * (self.multiplier ** (retry - 1))
        raw = min(raw, self.cap_seconds)
        if self.jitter <= 0:
            return raw
        text = f"{self.seed}|{site}|{retry}"
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        unit = int.from_bytes(digest, "big") / float(1 << 64)
        return raw * (1.0 - self.jitter * unit)


DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_call(
    fn: Callable[[], object],
    *,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    site: str = "",
    plan=None,
    cancel: Optional[CancelToken] = None,
    retryable: Tuple[Type[BaseException], ...] = (FaultError,),
):
    """Call ``fn`` with the policy's retry budget.

    Each retry is charged to the fault plan's ledger (when one is
    given) and to ``faults.retries``; each backoff sleep to
    ``faults.backoff_seconds``.  The last failure re-raises unchanged
    when the budget exhausts, so the caller can tell *which* fault
    survived recovery (and e.g. quarantine the device it names).
    """
    last: Optional[BaseException] = None
    for attempt in range(1, policy.attempts + 1):
        if cancel is not None:
            cancel.check()
        try:
            return fn()
        except retryable as exc:
            last = exc
            if attempt == policy.attempts:
                raise
            if plan is not None:
                plan.note_retry()
            else:
                metrics.inc("faults.retries")
            delay = policy.delay(attempt, site)
            metrics.observe("faults.backoff_seconds", delay)
            cancellable_sleep(delay, cancel)
    raise last if last is not None else FaultError(  # pragma: no cover
        f"retry budget of {policy.attempts} was zero for {site!r}"
    )


def guarded_call(
    run: Callable[[], object],
    inject: Callable[[], Optional[BaseException]],
    *,
    site: str,
    faults,
    cancel: Optional[CancelToken],
    retryable: Tuple[Type[BaseException], ...],
    slow: Optional[str] = None,
):
    """One dispatch — a disk read, a device execute, a shard's stage
    run, an exchange — through the fault plan.

    Without a plan it is the cancel check and ``run()``.  With one,
    every attempt of :func:`retry_call` first asks ``inject()`` for the
    fault the plan schedules here and raises it, then sleeps the
    plan's slowness for ``slow`` (a device name, or ``"disk"``) through
    the token, then runs.  Injection happens at this boundary, before
    ``run`` opens any span, so an injected attempt opens none and the
    trace of a run that recovers here stays bit-identical to a
    fault-free one.  ``site`` seeds the backoff jitter.
    """
    if cancel is not None:
        cancel.check()
    if faults is None:
        return run()

    def attempt():
        fault = inject()
        if fault is not None:
            raise fault
        if slow is not None:
            cancellable_sleep(faults.slowness(slow), cancel)
        return run()

    return retry_call(
        attempt, site=site, plan=faults, cancel=cancel, retryable=retryable
    )


def run_with_deadline(
    fn: Callable[[], object],
    seconds: Optional[float],
    cancel: Optional[CancelToken] = None,
    label: str = "query",
):
    """Run ``fn``, cancelling it if it outlives ``seconds``.

    ``fn`` runs on a daemon worker thread; if it does not finish within
    the budget the token is cancelled (so cooperative checkpoints stop
    the work promptly) and :class:`DeadlineError` is raised to the
    caller — who frees the pool slot immediately rather than waiting on
    the hung worker.  ``seconds=None`` calls ``fn`` inline: the default
    path is untouched by deadline machinery.
    """
    if seconds is None:
        return fn()
    token = cancel if cancel is not None else CancelToken()
    box: dict[str, object] = {}
    done = threading.Event()

    def worker() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(
        target=worker, name=f"repro-deadline-{label}", daemon=True
    )
    thread.start()
    if not done.wait(seconds):
        token.cancel(
            f"{label} exceeded its deadline of {seconds:g}s and was "
            f"cancelled"
        )
        metrics.inc("faults.deadline_cancels")
        raise DeadlineError(token.reason)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["value"]


def replan_on_quarantine(
    devices: Sequence, faults, compile: Callable, attempt: Callable
):
    """Run one query, replanning around the devices it quarantines.

    Every pass calls ``attempt(roster, plan)`` with the surviving
    roster (``None`` while nothing is quarantined, which keeps the
    full-roster plan-cache entries in play); the attempt calls
    ``plan()`` inside whatever spans it opens and executes the result
    on that roster.  ``plan()`` is ``compile(roster)`` plus what every
    caller owes it: survivors that cannot compile the query are a
    permanent :class:`DeviceFaultError` naming the quarantined devices,
    and the first compile after a quarantine counts the ops that left
    the interrupted plan's devices (``faults.redispatches``).  An
    attempt ended by a quarantine is replanned (``faults.replans``), at
    most once per device.
    """
    dead: list[str] = []
    roster: Optional[list] = None
    planned = interrupted = None

    def plan():
        nonlocal planned, interrupted
        try:
            planned = compile(roster)
        except PlanError as exc:
            if roster is None:
                raise
            # device=None marks this wrapper as non-replannable below.
            raise DeviceFaultError(
                f"no healthy device can run the plan after quarantining "
                f"{dead}",
                quarantined=True,
            ) from exc
        if interrupted is not None:
            moved = sum(
                old.device != new.device
                for old, new in zip(interrupted.ops, planned.ops)
            )
            if moved:
                metrics.inc("faults.redispatches", moved)
            interrupted = None
        return planned

    replans = 0
    while True:
        dead = faults.quarantined() if faults is not None else []
        roster = [d for d in devices if d.name not in dead] if dead else None
        try:
            return attempt(roster, plan)
        except DeviceFaultError as exc:
            if (
                not exc.quarantined
                or exc.device is None
                or replans >= len(devices)
            ):
                raise
            replans += 1
            interrupted = planned
            metrics.inc("faults.replans")
