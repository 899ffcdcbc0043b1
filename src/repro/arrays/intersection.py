"""The intersection array of §4 (Fig 4-1) — and, inverted, difference.

Comparison array on the left, accumulation array on the right.  The
accumulators fold each row of ``T`` into ``t_i = OR_j t_ij`` (equation
4.1); a tuple ``a_i`` belongs to ``A ∩ B`` iff ``t_i`` is TRUE and to
``A − B`` iff ``t_i`` is FALSE (§4.3 — "alternatively, we could just
put an inverter on the output line of the accumulation array").

Both the counter-streaming design of the figures and the §8
fixed-relation variant are provided; they produce identical answers and
differ only in geometry, pulse counts, and utilization (experiment
E11).  ``backend=`` selects the execution engine — ``"pulse"`` for the
cycle-accurate simulator, ``"lattice"`` for the vectorized wavefront
engine (bit-identical results; see :mod:`repro.systolic.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arrays.base import (
    ArrayRun,
    attach_accumulation_column,
    build_counter_stream_grid,
    build_fixed_relation_grid,
    execute,
)
from repro.arrays.decode import accumulator_bits
from repro.arrays.schedule import CounterStreamSchedule, FixedRelationSchedule
from repro.errors import SimulationError
from repro.relational.relation import Relation
from repro.systolic.engine import GridPlan, t_init_true
from repro.systolic.metrics import ActivityMeter
from repro.systolic.trace import TraceRecorder
from repro.systolic.wiring import Network

__all__ = [
    "MembershipResult",
    "build_intersection_array",
    "systolic_membership_vector",
    "systolic_intersection",
    "systolic_difference",
    "systolic_semijoin",
    "systolic_antijoin",
]


@dataclass
class MembershipResult:
    """The accumulated vector ``t`` and the relation it selects."""

    relation: Relation
    t_vector: list[bool]
    run: ArrayRun


def _membership_schedule(
    n_a: int, n_b: int, arity: int, variant: str
) -> CounterStreamSchedule | FixedRelationSchedule:
    if variant == "counter":
        return CounterStreamSchedule(n_a=n_a, n_b=n_b, arity=arity)
    if variant == "fixed":
        return FixedRelationSchedule(n_a=n_a, n_b=n_b, arity=arity)
    raise SimulationError(f"unknown variant {variant!r}; use 'counter' or 'fixed'")


def build_intersection_array(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
) -> tuple[Network, CounterStreamSchedule | FixedRelationSchedule, dict[str, tuple[int, int]]]:
    """Assemble Fig 4-1: comparison grid + accumulation column.

    ``variant`` selects ``"counter"`` (both relations moving, the
    figures' design) or ``"fixed"`` (B preloaded, §8).
    """
    a.schema.require_union_compatible(b.schema)
    if not a or not b:
        raise SimulationError(
            "the intersection array needs non-empty operands; empty cases "
            "short-circuit in systolic_intersection"
        )
    schedule = _membership_schedule(len(a), len(b), a.arity, variant)
    if variant == "counter":
        network, layout = build_counter_stream_grid(
            a.tuples, b.tuples, schedule,
            t_init=t_init_true, tagged=tagged,
            name="intersection-array",
        )
    else:
        network, layout = build_fixed_relation_grid(
            a.tuples, b.tuples, schedule,
            t_init=t_init_true, tagged=tagged,
            name="intersection-array-fixed",
        )
    attach_accumulation_column(network, schedule, layout, tagged=tagged)
    return network, schedule, layout


def _run_membership(
    a_tuples,
    b_tuples,
    arity: int,
    variant: str,
    tagged: bool,
    meter: Optional[ActivityMeter],
    trace: Optional[TraceRecorder],
    backend,
    name: str,
) -> tuple[list[bool], ArrayRun]:
    """Plan, execute, and decode one Fig 4-1 membership run."""
    schedule = _membership_schedule(len(a_tuples), len(b_tuples), arity, variant)
    plan = GridPlan(
        a_tuples, b_tuples, schedule,
        t_init=t_init_true, accumulate=True, tagged=tagged, name=name,
    )
    result = execute(plan, backend=backend, meter=meter, trace=trace)
    bits = accumulator_bits(result, schedule, tagged)
    run = ArrayRun(
        pulses=result.pulses, rows=schedule.rows, cols=schedule.arity + 1,
        cells=result.cells, meter=meter, trace=trace, backend=result.engine,
    )
    return bits, run


def systolic_membership_vector(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> tuple[list[bool], ArrayRun]:
    """Run the array and read off ``t_i = OR_j (a_i == b_j)`` for all i.

    The vector is decoded from bottom-of-column arrival pulses alone,
    exactly as hardware would.
    """
    a.schema.require_union_compatible(b.schema)
    if not a or not b:
        raise SimulationError(
            "the intersection array needs non-empty operands; empty cases "
            "short-circuit in systolic_intersection"
        )
    return _run_membership(
        a.tuples, b.tuples, a.arity, variant, tagged, meter, trace, backend,
        name="intersection-array" if variant == "counter"
        else "intersection-array-fixed",
    )


def _empty_run() -> ArrayRun:
    return ArrayRun(pulses=0, rows=0, cols=0, cells=0)


def systolic_intersection(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> MembershipResult:
    """``A ∩ B`` on the intersection array (keep tuples with TRUE t_i)."""
    a.schema.require_union_compatible(b.schema)
    if not a or not b:
        return MembershipResult(Relation(a.schema), [], _empty_run())
    t_vector, run = systolic_membership_vector(
        a, b, variant=variant, tagged=tagged, meter=meter, trace=trace,
        backend=backend,
    )
    members = (row for row, keep in zip(a.tuples, t_vector) if keep)
    return MembershipResult(Relation(a.schema, members), t_vector, run)


def systolic_difference(
    a: Relation,
    b: Relation,
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> MembershipResult:
    """``A − B``: same array, keep tuples with FALSE t_i (§4.3)."""
    a.schema.require_union_compatible(b.schema)
    if not a:
        return MembershipResult(Relation(a.schema), [], _empty_run())
    if not b:
        return MembershipResult(
            Relation(a.schema, a.tuples), [False] * len(a), _empty_run()
        )
    t_vector, run = systolic_membership_vector(
        a, b, variant=variant, tagged=tagged, meter=meter, trace=trace,
        backend=backend,
    )
    members = (row for row, member in zip(a.tuples, t_vector) if not member)
    return MembershipResult(Relation(a.schema, members), t_vector, run)


def _semijoin_membership(
    a: Relation,
    b: Relation,
    on,
    variant: str,
    tagged: bool,
    meter,
    trace,
    backend,
) -> tuple[list[bool], ArrayRun]:
    """Membership bits of A's join-column tuples among B's (§4 hardware)."""
    from repro.relational.algebra import equi_join_layout

    a_positions, b_positions, _, _ = equi_join_layout(a, b, on)
    a_keys = [tuple(row[p] for p in a_positions) for row in a.tuples]
    b_keys = [tuple(row[p] for p in b_positions) for row in b.tuples]
    return _run_membership(
        a_keys, b_keys, len(on), variant, tagged, meter, trace, backend,
        name="semijoin-array" if variant == "counter" else "semijoin-array-fixed",
    )


def systolic_semijoin(
    a: Relation,
    b: Relation,
    on,
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> MembershipResult:
    """``A ⋉ B``: the §4 membership hardware fed with join columns only.

    Keeps the A tuples whose join-column combination matches some B
    tuple — the intersection array where "tuple" means "key".
    """
    from repro.relational.algebra import equi_join_layout

    equi_join_layout(a, b, on)  # validates columns and domains
    if not a or not b:
        return MembershipResult(Relation(a.schema), [], _empty_run())
    bits, run = _semijoin_membership(
        a, b, on, variant, tagged, meter, trace, backend
    )
    members = (row for row, keep in zip(a.tuples, bits) if keep)
    return MembershipResult(Relation(a.schema, members), bits, run)


def systolic_antijoin(
    a: Relation,
    b: Relation,
    on,
    variant: str = "counter",
    tagged: bool = False,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
    backend=None,
) -> MembershipResult:
    """``A ▷ B``: the same bits, kept where FALSE (§4.3's inverter)."""
    from repro.relational.algebra import equi_join_layout

    equi_join_layout(a, b, on)
    if not a:
        return MembershipResult(Relation(a.schema), [], _empty_run())
    if not b:
        return MembershipResult(
            Relation(a.schema, a.tuples), [False] * len(a), _empty_run()
        )
    bits, run = _semijoin_membership(
        a, b, on, variant, tagged, meter, trace, backend
    )
    members = (row for row, member in zip(a.tuples, bits) if not member)
    return MembershipResult(Relation(a.schema, members), bits, run)
