"""Executing sharded plans on a cluster of simulated machines.

The :class:`ShardedExecutor` is the shard layer's counterpart of
:class:`~repro.machine.pool.EnginePool.execute`: it admits one query
through the pool's gate, then drives *per-shard* machines — each an
ordinary fresh :class:`~repro.machine.execution.MachineState` compiled
through the pool's shared plan cache — in stages:

1. for every :class:`~repro.shard.planner.ExchangeStep`, each shard
   evaluates the step's fragment locally, the per-shard results are
   redistributed (broadcast or re-partition), and every shard preloads
   the exchanged relation under the step's name;
2. each shard evaluates the final per-shard plans;
3. the per-shard answers merge — in shard order, under the relation's
   set semantics — into the logical results.

Every merge and exchange reads the :class:`~repro.shard.planner.
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
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ExchangeFaultError, ShardFaultError
from repro.faults.recovery import (
    CancelToken,
    guarded_call,
    replan_on_quarantine,
)
from repro.machine.catalog import Catalog
from repro.machine.operators import infer_schema
from repro.machine.plan import PlanNode
from repro.machine.scheduler import ExecutionReport, ScheduledStep
from repro.obs import metrics
from repro.relational.relation import DistinctRows, MultiRelation, Relation
from repro.shard.catalog import PARTITIONED, REPLICATED, ShardedCatalog
from repro.shard.planner import (
    BROADCAST,
    Distribution,
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

    @property
    def shards(self) -> int:
        return self.plan.shards


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
        """Lower logical plans into per-shard plans plus exchanges."""
        return ShardPlanner(
            self.catalog,
            devices=self.pool.devices,
            element_bits=self.catalog.element_bits,
        ).lower(plans)

    def compile(
        self,
        plans: Sequence[PlanNode] | PlanNode,
        arrivals: Optional[Sequence[float]] = None,
        pipeline: bool = True,
    ) -> ShardedCompilation:
        """Lower and compile without executing.

        Exchange intermediates are compiled against empty placeholder
        relations (their true sizes are data-dependent), so the
        predicted makespan is the planner's estimate — exact for
        exchange-free plans, a documented approximation otherwise.
        """
        sharded = self.plan(plans)
        lanes = self._lanes()
        predicted = 0.0
        for step in sharded.exchanges:
            per_shard = [
                self.pool.compile(lane, step.plan, pipeline=pipeline)
                for lane in lanes
            ]
            predicted += max(
                p.predicted_makespan for p in per_shard
            ) + step.cost.seconds
            schema = infer_schema(step.plan, self.catalog.schemas())
            for lane in lanes:
                lane.preload(step.name, Relation(schema))
        physicals = [
            self.pool.compile(lane, sharded.roots, arrivals, pipeline=pipeline)
            for lane in lanes
        ]
        predicted += max(p.predicted_makespan for p in physicals)
        return ShardedCompilation(
            plan=sharded, physicals=physicals, predicted_makespan=predicted
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
            lanes = self._lanes()
            report = ShardedExecutionReport(
                shards=self.shards, exchanges=list(sharded.exchanges),
            )
            offset = 0.0
            for index, step in enumerate(sharded.exchanges):
                with obs.span(
                    "shard.stage", stage=index, kind=step.kind,
                    relation=step.name,
                ):
                    outcomes = self._run_stage(
                        lanes, [step.plan], None, pipeline,
                        stage_key=f"stage{index}", cancel=cancel,
                    )
                    pieces = self._exchange(
                        step, [res[0] for res, _ in outcomes], cancel
                    )
                    for lane, piece in zip(lanes, pieces):
                        lane.preload(step.name, piece)
                offset = self._fold_stage(
                    report, outcomes, offset, step
                )
            with obs.span("shard.stage", stage="final"):
                outcomes = self._run_stage(
                    lanes, sharded.roots, arrivals, pipeline,
                    stage_key="final", cancel=cancel,
                )
            self._fold_stage(report, outcomes, offset, None)
            report.shard_reports = [rep for _, rep in outcomes]
            results = self._merge(
                sharded.distributions, [res for res, _ in outcomes]
            )
            if sharded.local_joins:
                metrics.inc("shard.local_joins", sharded.local_joins)
            sp.set(
                makespan_ms=report.makespan * 1e3,
                exchanges=len(sharded.exchanges),
            )
        return results, report

    # -- stages ------------------------------------------------------------

    def _lanes(self) -> list[Catalog]:
        """Per-query shard catalogs: shared disks, private preload sets.

        Exchange intermediates are preloaded per query, so they must
        not leak into the shard catalogs other queries read.
        """
        lanes = []
        for shard in self.catalog.shards:
            lane = Catalog(tenant=shard.tenant, disk=shard.disk)
            for name, relation in shard.preloaded():
                lane.preload(name, relation)
            lanes.append(lane)
        return lanes

    def _run_stage(
        self,
        lanes: list[Catalog],
        plans: Sequence[PlanNode],
        arrivals: Optional[Sequence[float]],
        pipeline: bool,
        stage_key: str = "final",
        cancel: Optional[CancelToken] = None,
    ) -> list[tuple[list[Relation], ExecutionReport]]:
        """Run one stage's plans on every shard, in shard order; returns
        the shards' ``(results, report)`` pairs.

        Each shard's subtree is a ``shard.run`` span, recorded in shard
        order.  A shard machine that crashes (an injected
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
        outcomes = []
        for index, lane in enumerate(lanes):

            def attempt(roster, plan):
                def run_once() -> tuple[list[Relation], ExecutionReport]:
                    with obs.span("shard.run", shard=index):
                        return pool._run_fresh(
                            lane, plan(), roster, cancel,
                            f"{self.catalog.tenant}/shard{index}",
                        )

                return guarded_call(
                    run_once,
                    lambda: faults.shard_fault(index, stage_key),
                    site=f"shard:{index}:{stage_key}",
                    faults=faults,
                    cancel=cancel,
                    retryable=(ShardFaultError,),
                )

            outcomes.append(replan_on_quarantine(
                pool.devices, faults,
                lambda roster: pool.compile(
                    lane, plans, arrivals, pipeline=pipeline, devices=roster
                ),
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

    def _fold_stage(
        self,
        report: ShardedExecutionReport,
        outcomes: list[tuple[list[Relation], ExecutionReport]],
        offset: float,
        step: Optional[ExchangeStep],
    ) -> float:
        """Append one stage's shard timelines (plus its exchange) to the
        composed report; returns the next stage's start offset."""
        stage_span = 0.0
        for index, (_, shard_report) in enumerate(outcomes):
            stage_span = max(stage_span, shard_report.makespan)
            for st in shard_report.steps:
                report.steps.append(replace(
                    st,
                    label=f"shard{index}:{st.label}",
                    start=st.start + offset,
                    end=st.end + offset,
                ))
        end = offset + stage_span
        if step is None:
            return end
        report.steps.append(ScheduledStep(
            label=f"exchange:{step.kind}:{step.name}",
            device=INTERCONNECT,
            start=end,
            end=end + step.cost.seconds,
            output_key=step.name,
            output_memory=INTERCONNECT,
            nbytes_out=step.cost.nbytes,
        ))
        return end + step.cost.seconds

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
