"""Deterministic fault injection and the recovery layer it exercises.

A machine assembled from thousands of identical VLSI cells (§3–§7)
fails in identical, enumerable ways: a defective cell in one §8 block,
a dead array, a dropped interconnect message, a bad disk track.  This
package makes those failures *injectable* — seeded, site-keyed, and
deterministic under any host-thread interleaving — and provides the
retry/cancel/deadline primitives the machine, shard, and serving
layers use to recover from them.

The contract (tested by the differential suite and
``tools/chaos_smoke.py``): a run that recovers from injected transient
faults is **bit-identical** — results, timeline, span structure — to
the fault-free run, with every injection and retry counted in the
``faults.*`` metrics.  See ``docs/ROBUSTNESS.md``.
"""

from repro.faults.plan import FaultPlan, FaultRule, parse_faults
from repro.faults.recovery import (
    DEFAULT_RETRY_POLICY,
    CancelToken,
    RetryPolicy,
    guarded_call,
    replan_on_quarantine,
    retry_call,
    run_with_deadline,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "parse_faults",
    "CancelToken",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "guarded_call",
    "replan_on_quarantine",
    "retry_call",
    "run_with_deadline",
]
