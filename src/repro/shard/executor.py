"""Executing sharded plans on a cluster of simulated machines.

The :class:`ShardedExecutor` is the shard layer's counterpart of
:class:`~repro.machine.pool.EnginePool.execute`: it admits one query
through the pool's gate, then drives *per-shard* machines — each an
ordinary fresh :class:`~repro.machine.execution.MachineState` compiled
through the pool's shared plan cache — in stages:

1. for every :class:`~repro.shard.planner.ExchangeStep`, each shard
   evaluates the step's fragment locally, the per-shard results are
   redistributed (broadcast or re-partition), and every shard preloads
   the exchanged relation under the step's name — and, after the first
   stage, the base relations that stage prefetched in its disk sweep
   (:attr:`~repro.shard.planner.ShardedPlan.prefetch`);
2. each shard evaluates the final per-shard plans;
3. the per-shard answers merge — in shard order, under the relation's
   set semantics — into the logical results.

``compile`` and ``execute`` walk the stages through one loop
(:meth:`ShardedExecutor._stage_loop`) and differ only in what a lane
receives after an exchange stage: ``execute`` hands it the exchanged
piece, ``compile`` an empty placeholder of the exchanged relation,
which ROADMAP item 16 replaces with a record of what the lane will hold.

Every merge and exchange reads the :class:`~repro.shard.catalog.
Distribution` the planner tracked for the pieces (:func:`_combine`):
only ``scattered`` pieces can repeat a row across shards, so only they
pay for the duplicate search.

Determinism mirrors the single machine's one-pass contract: the host
runs the shard machines of a stage one after another, in shard order —
they are concurrent on the *simulated* clock, where a stage lasts as
long as its slowest shard — and every cross-shard decision (bucket
assignment, merge order, timeline composition) is a pure function of
the plan and the data, so each shard's ``machine.run`` span is exactly
what a standalone machine produces on that shard's piece of the data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ExchangeFaultError, ShardFaultError
from repro.faults.recovery import (
    CancelToken,
    guarded_call,
    replan_on_quarantine,
)
from repro.machine.catalog import Catalog
from repro.machine.physical import PhysicalPlan, plan_keys
from repro.machine.plan import PlanNode
from repro.machine.scheduler import ExecutionReport, ScheduledStep
from repro.obs import metrics
from repro.relational.relation import DistinctRows, MultiRelation, Relation
from repro.shard.catalog import (
    PARTITIONED,
    REPLICATED,
    Distribution,
    ShardedCatalog,
)
from repro.shard.planner import (
    BROADCAST,
    ExchangeStep,
    ShardedPlan,
    ShardPlanner,
)

__all__ = [
    "ShardedCompilation",
    "ShardedExecutionReport",
    "ShardedExecutor",
    "INTERCONNECT",
]

#: Device name carried by exchange steps on the composed timeline.
INTERCONNECT = "interconnect"


@dataclass
class ShardedCompilation:
    """A sharded plan plus its per-shard physical compilations."""

    plan: ShardedPlan
    physicals: list  # final-stage PhysicalPlan per shard
    predicted_makespan: float
    #: per exchange stage, its PhysicalPlan per shard
    stages: list = field(default_factory=list)

    @property
    def shards(self) -> int:
        return self.plan.shards

    def explain(self) -> str:
        """The sharded plan (exchanges, prefetch), then each shard's
        physical plans, stage by stage, with their disk sweeps."""
        lines = [self.plan.explain()]
        for shard in range(self.shards):
            for index, per_shard in enumerate(self.stages):
                step = self.plan.exchanges[index]
                lines.append(
                    f"shard {shard}, stage for {step.kind} -> {step.name}:"
                )
                lines.append(per_shard[shard].explain())
            lines.append(f"shard {shard}, final stage:")
            lines.append(self.physicals[shard].explain())
        lines.append(
            f"predicted makespan {self.predicted_makespan * 1e3:.3f} ms "
            f"(stages + exchanges)"
        )
        return "\n".join(lines)


class _Stage(NamedTuple):
    """A stage as :meth:`ShardedExecutor._stage_loop` hands it to the
    action of ``compile`` or ``execute``."""

    index: int
    step: Optional[ExchangeStep]  # None for the final stage
    roots: list[PlanNode]
    lanes: list[Catalog]
    compile: Callable[[int, Optional[Sequence]], PhysicalPlan]
    kept: list[list[PlanNode]]


@dataclass
class ShardedExecutionReport(ExecutionReport):
    """The composed cross-shard timeline of one sharded query.

    ``steps`` holds every shard's timeline steps — labelled
    ``shard{i}:`` and offset so stages follow each other in simulated
    time — plus one ``interconnect`` step per exchange.  The plain
    :class:`ExecutionReport` accessors (makespan, timeline, busy
    seconds) work unchanged; ``shard_reports`` keeps each shard's final
    unshifted report for per-machine inspection.
    """

    shards: int = 1
    shard_reports: list[ExecutionReport] = field(default_factory=list)
    exchanges: list[ExchangeStep] = field(default_factory=list)

    @property
    def exchange_seconds(self) -> float:
        """Simulated seconds spent on the cross-shard interconnect."""
        return sum(
            s.duration for s in self.steps if s.device == INTERCONNECT
        )


def _union(pieces: Sequence[Relation]) -> Relation:
    """The pieces' rows in piece order, under set semantics — a matrix
    concatenation when the pieces are columnar, never a tuple walk."""
    return reduce(
        MultiRelation.concat, pieces[1:], pieces[0].to_multi()
    ).distinct()


def _combine(
    pieces: Sequence[Relation], distribution: Distribution
) -> Relation:
    """:func:`_union` of one piece per shard — the same rows in the same
    order — without re-deriving what ``distribution`` already says:
    replicated pieces are equal sets, so piece 0 is the union;
    partitioned pieces are disjoint (a row's key value has one owner),
    so the concatenation is; scattered pieces promise nothing."""
    if distribution.kind == REPLICATED:
        return pieces[0]
    if distribution.kind == PARTITIONED:
        return Relation(
            pieces[0].schema,
            DistinctRows(np.concatenate([piece.array for piece in pieces])),
        )
    return _union(pieces)


def _read_free(physical: PhysicalPlan, root: int) -> bool:
    """Whether root ``root`` of a stage's plan costs the disk nothing
    beyond root 0's loads: it is one of them (its op comes no later
    than root 0's, which the walk reaches last of root 0's nodes), it
    is read in a sweep (its cylinder holds a root-0 load, which opened
    that sweep), or its read takes no time."""
    op = physical[physical.outputs[root]]
    return (
        op.op_id <= physical.outputs[0]
        or op.sweep is not None
        or op.est_seconds == 0
    )


class ShardedExecutor:
    """Runs logical plans over a :class:`ShardedCatalog` on a pool.

    One executor per (tenant, shard layout); sessions construct one
    lazily when opened with ``shards > 1``.  The pool supplies the
    device complement, plan cache, and admission gate; every shard of
    every query still executes against a private fresh machine state.
    """

    def __init__(self, pool, catalog: ShardedCatalog) -> None:
        self.pool = pool
        self.catalog = catalog
        self.shards = catalog.shard_count

    # -- planning ----------------------------------------------------------

    def plan(self, plans: Sequence[PlanNode] | PlanNode) -> ShardedPlan:
        """Lower logical plans into per-shard plans plus exchanges.

        The shards are snapshotted once
        (:meth:`ShardedCatalog.snapshot`), and the lowering is kept in
        the pool's plan cache under ``("sharded", plan_fingerprint,
        snapshot.fingerprint)`` — exactly what lowering reads, so a
        warm query lowers nothing and its stages compile the very same
        roots again.  Concurrent misses of one key lower once; a cache
        of size 0 lowers every query.
        """
        if isinstance(plans, PlanNode):
            plans = [plans]
        fingerprint, reads = plan_keys(plans)
        snapshot = self.catalog.snapshot(reads, self.pool.devices)
        sharded, _ = self.pool.plan_cache.get_or_build(
            ("sharded", fingerprint, snapshot.fingerprint),
            lambda: ShardPlanner().lower(plans, snapshot),
        )
        return sharded

    def compile(
        self,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
    ) -> ShardedCompilation:
        """Lower and compile without executing.

        The stages go through ``execute``'s loop (:meth:`_stage_loop`),
        but after an exchange stage a lane receives an empty placeholder
        of the exchanged relation (its true size is data-dependent)
        beside its own prefetched relations.  So the predicted makespan
        is the planner's estimate: exact for exchange-free plans, an
        approximation otherwise, until ROADMAP item 16 compiles each
        lane against a record of what it will hold.
        """
        sharded = self.plan(plans)
        stages = []

        def plan_stage(stage: _Stage):
            stages.append([stage.compile(s, None) for s in range(self.shards)])
            received = stage.step and [
                [Relation(stage.step.schema),
                 *(lane.relation(root.name) for root in kept)]
                for lane, kept in zip(stage.lanes, stage.kept)
            ]
            return [p.predicted_makespan for p in stages[-1]], received

        windows, _ = self._stage_loop(sharded, arrivals, pipeline, plan_stage)
        return ShardedCompilation(
            plan=sharded, physicals=stages.pop(), stages=stages,
            predicted_makespan=windows[-1][1],
        )

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> tuple[list[Relation], ShardedExecutionReport]:
        """Admit, lower, and run one query across all shards.

        Occupies **one** admission slot: the shards of a query are one
        unit of work to the pool, like the devices of one machine.
        """
        if isinstance(plans, PlanNode):
            plans = [plans]
        return self.pool._admitted(
            self.catalog.tenant, priority, timeout,
            lambda cancel: self._run_admitted(
                plans, arrivals, pipeline, priority, cancel
            ),
        )

    def _run_admitted(
        self,
        plans: Sequence[PlanNode],
        arrivals: Optional[Sequence[float]],
        pipeline: bool,
        priority: int,
        cancel: Optional[CancelToken],
    ) -> tuple[list[Relation], ShardedExecutionReport]:
        with obs.span(
            "service.query", tenant=self.catalog.tenant,
            plans=len(plans), priority=priority, shards=self.shards,
        ) as sp:
            sharded = self.plan(plans)
            report = ShardedExecutionReport(
                shards=self.shards, exchanges=list(sharded.exchanges),
            )
            ran = []  # per stage: its step, its shards' (results, report)

            def run_stage(stage: _Stage):
                step = stage.step
                attrs = {"stage": "final"} if step is None else {
                    "stage": stage.index, "kind": step.kind,
                    "relation": step.name,
                    "prefetch": ",".join(r.name for r in stage.roots[1:]),
                }
                with obs.span("shard.stage", **attrs):
                    outcomes = self._run_stage(stage, cancel)
                    received = [res for res, _ in outcomes]
                    if step is not None:
                        pieces = self._exchange(
                            step, [res[0] for res in received], cancel
                        )
                        # The prefetched roots' results, the shard's own
                        # pieces, stay resident beside the exchanged one.
                        received = [[piece, *res[1:]]
                                    for piece, res in zip(pieces, received)]
                ran.append((step, outcomes))
                return [rep.makespan for _, rep in outcomes], received

            windows, per_shard = self._stage_loop(
                sharded, arrivals, pipeline, run_stage
            )
            for (step, outcomes), (start, end) in zip(ran, windows):
                report.steps += [
                    ScheduledStep(
                        f"shard{index}:{st.label}", st.device,
                        st.start + start, st.end + start, st.output_key,
                        st.output_memory, st.input_keys, st.pulses,
                        st.block_runs, st.nbytes_out, st.swept,
                    )
                    for index, (_, rep) in enumerate(outcomes)
                    for st in rep.steps
                ]
                if step is not None:
                    report.steps.append(ScheduledStep(
                        f"exchange:{step.kind}:{step.name}", INTERCONNECT,
                        end, end + step.cost.seconds, step.name,
                        INTERCONNECT, nbytes_out=step.cost.nbytes,
                    ))
            report.shard_reports = [rep for _, rep in ran[-1][1]]
            results = self._merge(sharded.distributions, per_shard)
            if sharded.local_joins:
                metrics.inc("shard.local_joins", sharded.local_joins)
            sp.set(
                makespan_ms=report.makespan * 1e3,
                exchanges=len(sharded.exchanges),
            )
        return results, report

    # -- stages ------------------------------------------------------------

    def _lanes(self) -> list[Catalog]:
        """Per-query shard catalogs (:meth:`Catalog.lane`): private
        preloads, so exchanged relations never leak into other queries."""
        return [shard.lane() for shard in self.catalog.shards]

    def _stage_loop(
        self, sharded: ShardedPlan, arrivals: Optional[Sequence[float]],
        pipeline: bool,
        action: Callable[[_Stage], tuple[list[float], Optional[list]]],
    ) -> tuple[list[tuple[float, float]], Optional[list]]:
        """The one walk of a sharded plan's stages, ``compile``'s and
        ``execute``'s alike: each exchange stage, then the final one.

        ``action`` gets each stage's roots and lanes, with
        ``compile(shard, roster)``, which plans them on one lane and
        keeps in ``kept[shard]`` the prefetch roots that plan reads
        (:meth:`_stage_plan`).  It returns each shard's seconds and,
        after an exchange stage, what each lane receives — the
        exchanged relation, then one per kept prefetch root — for the
        loop to preload.  A stage lasts as long as its slowest shard,
        then its exchange.  Returns each stage's ``(start, end)`` and
        the final action's relations.
        """
        lanes = self._lanes()
        windows: list[tuple[float, float]] = []
        start = 0.0
        for index, step in enumerate([*sharded.exchanges, None]):
            final = step is None
            roots = sharded.roots if final else sharded.stage_roots(index)
            kept: list[list[PlanNode]] = [[] for _ in lanes]
            compile_lane = partial(
                self._stage_plan, lanes, kept, roots,
                0 if final else len(roots) - 1, arrivals if final else None,
                pipeline,
            )
            seconds, received = action(
                _Stage(index, step, roots, lanes, compile_lane, kept)
            )
            end = start + max(seconds)
            windows.append((start, end))
            if final:
                return windows, received
            for lane, reads, relations in zip(lanes, kept, received):
                for source, relation in zip([step, *reads], relations):
                    lane.preload(source.name, relation)
            start = end + step.cost.seconds

    def _stage_plan(
        self, lanes: list[Catalog], kept: list[list[PlanNode]],
        roots: list[PlanNode], prefetched: int,
        arrivals: Optional[Sequence[float]], pipeline: bool,
        shard: int, devices: Optional[Sequence],
    ) -> PhysicalPlan:
        """Compile one stage's ``roots`` on lane ``shard``.  Of the last
        ``prefetched``, the prefetch roots, it keeps in ``kept[shard]``
        those this shard's plan reads at no cost to the disk
        (:func:`_read_free`).  A prefetch the plan would read in a
        revolution of its own — its sweep fits no memory whole — is
        dropped, and the stage compiled again without it."""
        physical = self.pool.compile(
            lanes[shard], roots, arrivals, pipeline=pipeline, devices=devices
        )
        head = len(roots) - prefetched
        kept[shard] = [
            root for k, root in enumerate(roots[head:], start=head)
            if _read_free(physical, k)
        ]
        if len(kept[shard]) < prefetched:
            physical = self.pool.compile(
                lanes[shard], [*roots[:head], *kept[shard]], arrivals,
                pipeline=pipeline, devices=devices,
            )
        return physical

    def _run_stage(
        self, stage: _Stage, cancel: Optional[CancelToken]
    ) -> list[tuple[list[Relation], ExecutionReport]]:
        """Run one stage on every shard, in shard order; returns the
        shards' ``(results, report)`` pairs.  Each shard compiles the
        stage (``stage.compile``) inside its ``shard.run`` span.

        A shard machine that crashes (an injected
        :class:`ShardFaultError`) is re-run with bounded backoff; the
        crash is injected *before* its ``shard.run`` span opens, so a
        recovered run's trace — like its results and timeline, which
        re-execute the identical pure stage — is bit-identical to a
        fault-free run.  A shard that quarantines a device replans
        against the pool's surviving roster, same as an unsharded
        query, and like there the interrupted attempt's ``shard.run``
        stays in the trace ahead of the one that completed.
        """
        pool = self.pool
        faults = pool.faults
        key = "final" if stage.step is None else f"stage{stage.index}"
        outcomes = []
        for index, lane in enumerate(stage.lanes):

            def attempt(roster, plan):
                def run_once() -> tuple[list[Relation], ExecutionReport]:
                    with obs.span("shard.run", shard=index):
                        return pool._run_fresh(
                            lane, plan(), roster, cancel,
                            f"{self.catalog.tenant}/shard{index}",
                        )

                return guarded_call(
                    run_once,
                    lambda: faults.shard_fault(index, key),
                    site=f"shard:{index}:{key}",
                    faults=faults,
                    cancel=cancel,
                    retryable=(ShardFaultError,),
                )

            outcomes.append(replan_on_quarantine(
                pool.devices, faults,
                lambda roster: stage.compile(index, roster),
                attempt,
            ))
        return outcomes

    def _exchange(
        self,
        step: ExchangeStep,
        pieces: list[Relation],
        cancel: Optional[CancelToken],
    ) -> list[Relation]:
        """Redistribute, re-sending exchanges the fault plan drops.

        A dropped exchange loses its payload in flight; the source
        shards still hold their stage results, so the re-send replays
        :meth:`_redistribute` over the identical pieces — same buckets,
        same broadcast, bit-identical downstream state.  Re-sends are
        counted in ``faults.exchange_resends``; the composed timeline
        charges the exchange once (the *recovered* transfer), exactly
        as a fault-free run would.
        """
        faults = self.pool.faults
        dropped = 0

        def inject() -> Optional[ExchangeFaultError]:
            nonlocal dropped
            fault = faults.exchange_fault(step.name)
            if fault is not None:
                dropped += 1
            return fault

        def send() -> list[Relation]:
            if dropped:
                metrics.inc("faults.exchange_resends", dropped)
            return self._redistribute(step, pieces)

        with obs.span(
            "shard.exchange", kind=step.kind, relation=step.name,
            rows=sum(map(len, pieces)),
        ):
            return guarded_call(
                send, inject,
                site=f"exchange:{step.name}",
                faults=faults,
                cancel=cancel,
                retryable=(ExchangeFaultError,),
            )

    def _redistribute(
        self, step: ExchangeStep, pieces: list[Relation]
    ) -> list[Relation]:
        """Move a stage's per-shard results where the plan needs them.

        A bucket holds one part of every source piece, so its parts lie
        the way the pieces did (``step.source``): disjoint, equal, or
        neither.
        """
        if step.kind == BROADCAST:
            metrics.inc("shard.broadcasts")
            return [_combine(pieces, step.source)] * self.shards
        parts = [
            step.partitioner.partition(piece, step.key, self.shards)
            for piece in pieces
        ]
        # A row moves when its destination differs from its source shard.
        stayed = sum(len(kept[source]) for source, kept in enumerate(parts))
        metrics.inc(
            "shard.repartition_tuples", sum(map(len, pieces)) - stayed
        )
        return [_combine(bucket, step.source) for bucket in zip(*parts)]

    def _merge(
        self,
        distributions: Sequence[Distribution],
        per_shard: list[list[Relation]],
    ) -> list[Relation]:
        """Union each root's shard pieces, in shard order, as sets."""
        started = time.perf_counter()
        with obs.span("shard.merge", roots=len(distributions)):
            results = [
                _combine(pieces, distribution)
                for pieces, distribution
                in zip(zip(*per_shard), distributions)
            ]
        metrics.observe(
            "shard.merge_seconds", time.perf_counter() - started
        )
        return results

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(tenant={self.catalog.tenant!r}, "
            f"{self.shards} shards)"
        )
