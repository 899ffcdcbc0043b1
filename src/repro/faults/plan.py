"""Seeded, deterministic fault-injection plans.

The paper's machine is assembled from many identical VLSI cells, arrays,
and (in the sharded reading) whole machines — a world where a defective
cell, a dead device, or a dropped message is the *expected* failure
mode, and §8's block decomposition is the natural unit of re-execution.
A :class:`FaultPlan` describes which of those failures happen, where,
and how often, in a way that is **deterministic by construction**:

* every injection site is a stable key — ``(scope, kind, target,
  op key)`` — independent of thread timing;
* each site keeps its own attempt counter, so "fail the first two
  attempts" means the first two attempts *of that site*, whichever
  host thread makes them;
* probabilistic rules hash ``(seed, site, attempt)`` instead of drawing
  from a sequential RNG, so queries running side by side on one pool
  are injected exactly the faults they would be running alone.

That determinism is what lets the differential tests demand the
recovered run be **bit-identical** — results, timeline, span structure
— to the fault-free run (docs/ROBUSTNESS.md).

Fault spec grammar (the CLI's ``--faults`` argument)::

    SPEC  := RULE[,RULE...]
    RULE  := device:NAME[:N|:pP|:kill]   fail executes on device NAME
           | block:NAME:B[:N]            cell fault in §8 block B of NAME
           | shard:I[:N]                 crash shard I's stage runs
           | exchange:NAME[:N]           drop interconnect exchanges
                                         (NAME '*' matches every step)
           | disk:NAME[:N]               fail reads of base relation NAME
                                         (NAME '*' matches every read)
           | slow:NAME:SECONDS           inject host slowness per execute

``N`` (default 1) bounds the failures per site — the fault is
*transient* and heals, so bounded retries recover.  ``kill`` makes a
device fault *permanent*: its retry budget exhausts, it is quarantined,
and the pool replans the query onto the surviving roster.  ``pP`` (e.g.
``p0.5``) makes each attempt fail with probability ``P``, decided by
the seeded hash.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    ConfigError,
    DeviceFaultError,
    DiskFaultError,
    ExchangeFaultError,
    ShardFaultError,
)
from repro.obs import metrics

__all__ = ["FaultRule", "FaultPlan", "parse_faults"]

#: Failures-per-site used by ``kill`` rules: effectively unbounded, so
#: the site's retry budget always exhausts and the device quarantines.
ALWAYS = 1 << 30

_KINDS = ("device", "block", "shard", "exchange", "disk", "slow")


@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault spec.

    ``count`` bounds how many attempts fail per site; ``probability``
    (exclusive with a finite count) makes each attempt fail by seeded
    coin flip; ``block`` restricts a device rule to ops whose §8
    decomposition covers that block index; ``seconds`` is the injected
    slowness of a ``slow`` rule.
    """

    kind: str
    target: str
    count: int = 1
    probability: Optional[float] = None
    block: Optional[int] = None
    seconds: float = 0.0

    def describe(self) -> str:
        if self.kind == "slow":
            return f"slow:{self.target}:{self.seconds:g}"
        suffix = ""
        if self.probability is not None:
            suffix = f":p{self.probability:g}"
        elif self.count >= ALWAYS:
            suffix = ":kill"
        elif self.count != 1:
            suffix = f":{self.count}"
        block = f":{self.block}" if self.block is not None else ""
        return f"{self.kind}:{self.target}{block}{suffix}"


def _parse_rule(text: str) -> FaultRule:
    parts = text.strip().split(":")
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ConfigError(
            f"fault rule {text!r} is not KIND:TARGET[...]; kinds are "
            f"{', '.join(_KINDS)}"
        )
    kind, target = parts[0].lower(), parts[1]
    if kind not in _KINDS:
        raise ConfigError(
            f"unknown fault kind {kind!r} in {text!r}; kinds are "
            f"{', '.join(_KINDS)}"
        )
    if kind == "slow":
        if len(parts) != 3:
            raise ConfigError(f"slow rule {text!r} needs slow:DEVICE:SECONDS")
        try:
            seconds = float(parts[2])
        except ValueError:
            raise ConfigError(
                f"slow rule {text!r}: {parts[2]!r} is not a number"
            ) from None
        if seconds < 0:
            raise ConfigError(f"slow rule {text!r}: seconds must be >= 0")
        return FaultRule(kind=kind, target=target, seconds=seconds)
    block: Optional[int] = None
    rest = parts[2:]
    if kind == "block":
        if not rest:
            raise ConfigError(
                f"block rule {text!r} needs block:DEVICE:INDEX[:N]"
            )
        try:
            block = int(rest[0])
        except ValueError:
            raise ConfigError(
                f"block rule {text!r}: {rest[0]!r} is not a block index"
            ) from None
        if block < 0:
            raise ConfigError(f"block rule {text!r}: index must be >= 0")
        rest = rest[1:]
    count, probability = 1, None
    if rest:
        if len(rest) > 1:
            raise ConfigError(f"fault rule {text!r} has too many fields")
        spec = rest[0].lower()
        if spec == "kill":
            if kind not in ("device", "block"):
                raise ConfigError(
                    f"fault rule {text!r}: only device faults can be "
                    f"permanent (kill)"
                )
            count = ALWAYS
        elif spec.startswith("p"):
            try:
                probability = float(spec[1:])
            except ValueError:
                raise ConfigError(
                    f"fault rule {text!r}: {spec!r} is not pPROBABILITY"
                ) from None
            if not 0.0 <= probability <= 1.0:
                raise ConfigError(
                    f"fault rule {text!r}: probability must be in [0, 1]"
                )
        else:
            try:
                count = int(spec)
            except ValueError:
                raise ConfigError(
                    f"fault rule {text!r}: {spec!r} is neither a count, "
                    f"pPROBABILITY, nor 'kill'"
                ) from None
            if count < 0:
                raise ConfigError(f"fault rule {text!r}: count must be >= 0")
    return FaultRule(
        kind=kind, target=target, count=count, probability=probability,
        block=block,
    )


def parse_faults(spec: str, seed: int = 0) -> "FaultPlan":
    """Parse a ``--faults`` spec string into a :class:`FaultPlan`."""
    rules = [
        _parse_rule(clause)
        for clause in spec.split(",") if clause.strip()
    ]
    if not rules:
        raise ConfigError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules, seed=seed)


class FaultPlan:
    """A deterministic schedule of injected failures, plus their ledger.

    One plan is shared by every layer of one run (machine executor,
    shard executor, serving pool).  All mutable state — per-site attempt
    counters, the quarantine set, the injection ledger — sits behind
    one lock, and every decision is a pure function of ``(seed, site,
    attempt number)``, so concurrent execution cannot reorder faults.
    """

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._attempts: dict[tuple, int] = {}
        self._injected: dict[str, int] = {}
        self._retries = 0
        self._quarantined: set[str] = set()

    # -- the deterministic coin -------------------------------------------

    def _chance(self, site: tuple, attempt: int) -> float:
        """A uniform [0, 1) value pinned to (seed, site, attempt)."""
        text = f"{self.seed}|{'|'.join(map(str, site))}|{attempt}"
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def _fires(self, rule: FaultRule, site: tuple) -> bool:
        """Whether ``rule`` fails this site's next attempt (and count it)."""
        with self._lock:
            attempt = self._attempts.get(site, 0) + 1
            self._attempts[site] = attempt
            if rule.probability is not None:
                fired = self._chance(site, attempt) < rule.probability
            else:
                fired = attempt <= rule.count
            if fired:
                self._injected[rule.kind] = (
                    self._injected.get(rule.kind, 0) + 1
                )
        if fired:
            metrics.inc("faults.injected")
        return fired

    def _rule_for(
        self, kind: str, target: str, blocks: Optional[int] = None
    ) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.kind != kind:
                continue
            if rule.target not in (target, "*"):
                continue
            if rule.block is not None and (
                blocks is None or rule.block >= blocks
            ):
                # A cell fault in block B only manifests when the op's
                # §8 decomposition actually runs block B.
                continue
            return rule
        return None

    # -- injection sites ----------------------------------------------------

    def device_fault(
        self,
        device: str,
        op_key: str,
        scope: str = "",
        blocks: Optional[int] = None,
    ) -> Optional[DeviceFaultError]:
        """The fault (if any) injected into this execute attempt.

        Checked by the executor *before* dispatching an op to a device,
        so an injected attempt opens no span — which is what keeps the
        traces of runs that recover in place bit-identical to
        fault-free runs.  Returns the error instead of raising so the
        caller owns the retry bookkeeping.
        """
        fault = None
        rule = self._rule_for("device", device)
        if rule is not None and self._fires(
            rule, ("device", scope, device, op_key)
        ):
            fault = DeviceFaultError(
                f"injected fault on device {device!r} executing {op_key}"
                f"{f' (scope {scope})' if scope else ''}",
                device=device,
            )
        if fault is None:
            rule = self._rule_for("block", device, blocks=blocks)
            if rule is not None and self._fires(
                rule, ("block", scope, device, rule.block, op_key)
            ):
                fault = DeviceFaultError(
                    f"injected cell fault in block {rule.block} of device "
                    f"{device!r} executing {op_key}",
                    device=device,
                )
        return fault

    def disk_fault(
        self, name: str, scope: str = ""
    ) -> Optional[DiskFaultError]:
        """The injected read error (if any) for base relation ``name``."""
        rule = self._rule_for("disk", name)
        if rule is not None and self._fires(rule, ("disk", scope, name)):
            return DiskFaultError(
                f"injected read error on base relation {name!r}"
            )
        return None

    def shard_fault(
        self, shard: int, stage_key: str
    ) -> Optional[ShardFaultError]:
        """The injected crash (if any) of one shard's stage run."""
        rule = self._rule_for("shard", str(shard))
        if rule is not None and self._fires(
            rule, ("shard", shard, stage_key)
        ):
            return ShardFaultError(
                f"injected crash of shard {shard} running {stage_key}"
            )
        return None

    def exchange_fault(self, name: str) -> Optional[ExchangeFaultError]:
        """The injected drop (if any) of one interconnect exchange."""
        rule = self._rule_for("exchange", name)
        if rule is not None and self._fires(rule, ("exchange", name)):
            return ExchangeFaultError(
                f"injected drop of interconnect exchange {name!r}"
            )
        return None

    def slowness(self, device: str) -> float:
        """Injected host seconds of slowness for one execute on ``device``.

        Unlike failures, slowness is unconditional (every execute on the
        named device) — it exists to make deadlines testable.
        """
        rule = self._rule_for("slow", device)
        return rule.seconds if rule is not None else 0.0

    # -- quarantine ---------------------------------------------------------

    def quarantine(self, device: str) -> bool:
        """Mark a device dead; True if it was newly quarantined."""
        with self._lock:
            if device in self._quarantined:
                return False
            self._quarantined.add(device)
        metrics.inc("faults.quarantines")
        return True

    def quarantined(self) -> list[str]:
        """The dead devices, sorted (stable for fingerprints and docs)."""
        with self._lock:
            return sorted(self._quarantined)

    # -- ledger -------------------------------------------------------------

    def note_retry(self) -> None:
        """Count one recovery retry (kept even when metrics are off)."""
        with self._lock:
            self._retries += 1
        metrics.inc("faults.retries")

    @property
    def injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    @property
    def retries(self) -> int:
        with self._lock:
            return self._retries

    def snapshot(self) -> dict:
        """The ledger: injections by kind, retries, quarantined devices."""
        with self._lock:
            return {
                "rules": [rule.describe() for rule in self.rules],
                "seed": self.seed,
                "injected": dict(sorted(self._injected.items())),
                "retries": self._retries,
                "quarantined": sorted(self._quarantined),
            }

    def summary(self) -> str:
        """One human line for CLI output and example scripts."""
        snap = self.snapshot()
        injected = sum(snap["injected"].values())
        parts = [f"{injected} injected", f"{snap['retries']} retries"]
        if snap["quarantined"]:
            parts.append(f"quarantined: {', '.join(snap['quarantined'])}")
        return "faults: " + ", ".join(parts)

    def __repr__(self) -> str:
        rules = ",".join(rule.describe() for rule in self.rules)
        return f"FaultPlan({rules!r}, seed={self.seed})"
