"""The run shape every workload shares: set-up, warm-up, timed pass.

A workload is a fixed list of operations.  One *round* is a seeded
shuffle of that list; a pass runs whole rounds, closed loop and one
operation at a time, until ``--seconds`` have elapsed, so the mix of
operation kinds — and therefore the simulated time per round — is the
same however fast the host is.

The host is a few cores of a shared machine whose speed moves by half
from one second or minute to the next, so host-clock numbers are read
on a *probed* clock: a fixed two-millisecond :func:`probe` runs between
operations, and every latency is scaled by how much slower than
:data:`PROBE_REFERENCE_S` the probes around it ran.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from benchmarks.e2e.trace import Tracer

__all__ = [
    "END_TO_END",
    "NOISY_SLOWDOWN",
    "Op",
    "Outcome",
    "PROBE_REFERENCE_S",
    "PassResult",
    "Sample",
    "Workload",
    "calibrate",
    "digest_rows",
    "end_to_end",
    "peak_rss_mb",
    "percentile",
    "probe",
    "rescaled",
    "run_pass",
    "warm_up",
]

#: A timed pass whose median probe ran this much slower than the
#: reference is flagged ``"noisy": true``: a quarter of its numbers is
#: correction, and what the probe cannot see (work a neighbour slows
#: more, or less, than it slows the probe) is then at its largest.
NOISY_SLOWDOWN = 1.25
#: What :func:`probe` takes on the 2-core sandbox while its neighbours
#: are quiet.  Only a scale: it makes a rescaled latency read as
#: milliseconds on that quiet host.
PROBE_REFERENCE_S = 1.70e-3
#: A probe follows an operation once this long has passed since the last.
PROBE_GAP_S = 0.010
#: An operation's typical latency is this quantile of its repetitions:
#: interference only ever adds time, and a probe that was itself hit
#: makes the operation beside it look fast, so neither end is used.
TYPICAL_QUANTILE = 0.25

_WEIGHTS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xD6E8FEB86659FD93,
     0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x2545F4914F6CDD1D],
    dtype=np.uint64,
)


def digest_rows(rows) -> str:
    """An order-independent digest of a set of integer tuples.

    Accepts an ``(n, arity)`` array or any sequence of integer rows.
    Each row hashes to a weighted wrap-around sum; the digest folds the
    row hashes with both XOR and addition, so it ignores order but not
    multiplicity.
    """
    array = np.asarray(rows, dtype=np.int64)
    if array.size == 0:
        return "0:0:0"
    if array.ndim != 2 or array.shape[1] > len(_WEIGHTS):
        raise ValueError(f"cannot digest rows of shape {array.shape}")
    weights = _WEIGHTS[: array.shape[1]]
    hashes = (array.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    hashes ^= hashes >> np.uint64(29)
    folded_xor = int(np.bitwise_xor.reduce(hashes))
    folded_sum = int(hashes.sum(dtype=np.uint64))
    return f"{len(array)}:{folded_xor:016x}:{folded_sum:016x}"


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what is compared."""

    rows: int
    digest: str
    #: simulated milliseconds the system itself reported for the op.
    sim_ms: float = 0.0


@dataclass
class Op:
    """One entry of a workload's fixed operation list."""

    kind: str
    #: the timed part: one request through public entry points.
    run: Callable[[], Any]
    #: after the clock stops: check the raw result and reduce it.
    reduce: Callable[[Any], Outcome]
    #: the software oracle: ``(rows, digest)`` the op must produce.
    reference: Callable[[], tuple[int, str]]
    #: ops with equal keys are the same request; the oracle runs once.
    key: str
    expected: Optional[Outcome] = None


class Workload:
    """Base class: subclasses fill in set-up, operations and tear-down.

    ``traced`` tells the workload that timing shims will be installed,
    so it must keep every layer in this process.
    """

    name = ""

    def __init__(self, seed: int, scratch: Path, traced: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.traced = traced
        #: per-layer numbers measured during set-up (e.g. partitioning).
        self.setup_metrics: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        """The fixed operation list one round shuffles."""
        raise NotImplementedError

    def teardown(self) -> list[str]:
        """Release everything; returns problems that void the pass."""
        return []

    def describe(self) -> str:
        """One line on data sizes, printed with the results."""
        return ""


@dataclass
class Sample:
    kind: str
    #: the request (:attr:`Op.key`): repetitions of one request are pooled.
    key: str
    round: int
    seconds: float
    ok: bool
    error: str = ""
    #: mean of the probes before and after the operation, in seconds.
    probe: float = PROBE_REFERENCE_S


@dataclass
class PassResult:
    samples: list[Sample] = field(default_factory=list)
    #: the request keys of one round, in list order.
    mix: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def busy(self) -> float:
        """Seconds spent inside operations, on the probed clock."""
        return sum(rescaled(s.seconds, s.probe) for s in self.samples)

    def latencies_ms(self, kind: Optional[str] = None) -> list[float]:
        """Raw host-clock latencies, not rescaled."""
        return [
            s.seconds * 1e3 for s in self.samples
            if s.ok and (kind is None or s.kind == kind)
        ]

    def host_slowdown(self) -> float:
        """Median probe of the pass over the quiet-host reference."""
        return statistics.median(
            s.probe for s in self.samples
        ) / PROBE_REFERENCE_S

    def typical_seconds(self) -> list[float]:
        """One round's latencies on the probed clock, in list order.

        Each request's latency is the :data:`TYPICAL_QUANTILE` of its
        rescaled repetitions over the whole pass, so a round here is
        the round an undisturbed host would have run.
        """
        pooled: dict[str, list[float]] = defaultdict(list)
        for s in self.samples:
            if s.ok:
                pooled[s.key].append(rescaled(s.seconds, s.probe))
        typical = {
            key: float(np.quantile(values, TYPICAL_QUANTILE))
            for key, values in pooled.items()
        }
        return [typical[key] for key in self.mix if key in typical]

    def ops_per_second(self) -> float:
        """Closed-loop throughput of the one client: operations in a
        round over the time spent inside them."""
        round_seconds = self.typical_seconds()
        return len(round_seconds) / sum(round_seconds) if round_seconds else 0.0

    def percentile_ms(self, q: float) -> float:
        """Latency percentile over the operations of one round."""
        round_seconds = self.typical_seconds()
        return percentile(round_seconds, q) * 1e3 if round_seconds else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))
    return ordered[rank]


def warm_up(ops: list[Op]) -> tuple[list[str], list[float]]:
    """Run every op once, cold, and check it against the software oracle.

    Records each op's expected outcome for the later passes.  Returns
    the mismatches found and the oracle's seconds per distinct request.
    """
    problems: list[str] = []
    oracle_seconds: list[float] = []
    references: dict[str, tuple[int, str]] = {}
    for op in ops:
        try:
            outcome = op.reduce(op.run())
        except Exception as exc:  # an op that cannot run fails the pass
            problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        if op.key not in references:
            started = time.perf_counter()
            references[op.key] = op.reference()
            oracle_seconds.append(time.perf_counter() - started)
        if (outcome.rows, outcome.digest) != references[op.key]:
            problems.append(
                f"{op.kind}: got {outcome.rows} rows / {outcome.digest}, "
                f"software reference says {references[op.key]}"
            )
        op.expected = outcome
    return problems, oracle_seconds


_PROBE_GRID = np.arange(20_000, dtype=np.int64)
_PROBE_WORK = np.empty_like(_PROBE_GRID)
_PROBE_HEAP = list(range(300_000))
_PROBE_WALK = np.random.default_rng(1).integers(0, 300_000, 3_000).tolist()


def probe() -> float:
    """Seconds for a fixed slice (~2 ms) of the kinds of work the stack does.

    Interpreter arithmetic, tuples through a set, a dict and a sort,
    numpy kernels on an array that fits the cache, and a walk over a
    list that does not (busy neighbours slow cache misses more than
    arithmetic).  Nothing is allocated beyond short-lived objects.
    """
    started = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += (i * i) % 7
    rows = [(i * 7919 % 2003, i, i ^ 5) for i in range(750)]
    seen = set(rows)
    rows.sort()
    index = {row: 0 for row in rows}
    total += sum(1 for row in rows if row in seen) + len(index)
    for _ in range(2):
        np.multiply(_PROBE_GRID, 3, out=_PROBE_WORK)
        np.add(_PROBE_WORK, total, out=_PROBE_WORK)
        np.mod(_PROBE_WORK, 1_000_003, out=_PROBE_WORK)
        _PROBE_WORK.sort()
    heap = _PROBE_HEAP
    for i in _PROBE_WALK:
        total += heap[i]
    return time.perf_counter() - started


def rescaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` as a quiet host would have read them, given what the
    probe took around them."""
    return seconds * PROBE_REFERENCE_S / probe_seconds


def run_pass(
    ops: list[Op],
    seed: int,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> PassResult:
    """Whole shuffled rounds, one operation at a time, from this thread.

    A timed pass gives ``seconds`` and stops at the first round
    boundary past the deadline.  A traced pass (and the untraced pass
    it is compared with) gives ``rounds``, a fixed number, so that its
    counts repeat exactly.  A :func:`probe` runs after an operation
    whenever :data:`PROBE_GAP_S` have passed since the last one, and
    the operations in between are stamped with the mean of the two.
    """
    if (seconds is None) == (rounds is None):
        raise ValueError("give exactly one of seconds and rounds")
    rng = random.Random(seed)
    samples: list[Sample] = []
    unstamped: list[Sample] = []
    raw = outcome = None
    start = time.perf_counter()
    last_probe = probe()
    probed_at = time.perf_counter()

    def stamp() -> None:
        nonlocal last_probe, probed_at
        this_probe = probe()
        for sample in unstamped:
            sample.probe = (last_probe + this_probe) / 2
        unstamped.clear()
        last_probe, probed_at = this_probe, time.perf_counter()

    round_no = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            error = ""
            began = ended = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.op(len(samples), op.kind):
                        raw = op.run()
                else:
                    raw = op.run()
                ended = time.perf_counter()
                outcome = op.reduce(raw)
            except Exception as exc:  # counted, never swallowed silently
                error = f"{type(exc).__name__}: {exc}"
            if not error and outcome != op.expected:
                error = f"result changed: {outcome} != {op.expected}"
            samples.append(Sample(
                op.kind, op.key, round_no, ended - began, not error, error,
            ))
            unstamped.append(samples[-1])
            # Free this result now, not inside the next op's timed region.
            raw = outcome = None
            if time.perf_counter() - probed_at >= PROBE_GAP_S:
                stamp()
        round_no += 1
        if rounds is not None and round_no >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    if unstamped:
        stamp()
    return PassResult(samples, [op.key for op in ops])


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python + numpy loop (~0.4 s).

    Timed around the two halves of a traced pass, whose per-layer
    timings are raw host-clock readings: if the same work got slower or
    faster, something else was using the machine.  The buffers are
    allocated and touched before the clock starts, so the loop measures
    computing, not page faults.
    """
    grid = np.arange(1_500_000, dtype=np.int64)
    work = np.empty_like(grid)
    work[:] = grid
    started = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += (i * i) % 7
    for _ in range(8):
        np.multiply(grid, 3, out=work)
        np.add(work, total, out=work)
        np.mod(work, 1_000_003, out=work)
        work.sort()
        grid, work = work, grid
    return (time.perf_counter() - started) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set, in MB, of this process or of its largest
    child that has exited and been waited for (the ``serve_mix`` server)."""
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak / 1024.0  # Linux reports kilobytes


END_TO_END = (
    "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "sim_makespan_ms",
    "peak_rss_mb",
)


def end_to_end(
    timed: PassResult, setup_seconds: Sequence[float], ops: list[Op],
) -> dict[str, float]:
    """The end-to-end metrics of one timed pass, by BENCHMARK.json name.

    ``setup_seconds`` are already on the probed clock.  Call after
    tear-down, so a server child's memory is counted.
    """
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": timed.ops_per_second(),
        "op_p50_ms": timed.percentile_ms(0.50),
        "op_p90_ms": timed.percentile_ms(0.90),
        "sim_makespan_ms": sum(
            op.expected.sim_ms for op in ops if op.expected is not None
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
