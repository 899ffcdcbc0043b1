"""Systolic devices: the operator boxes of Fig 9-1.

A device is one physical array of a fixed size (its
:class:`~repro.arrays.decomposition.ArrayCapacity`) plus the §8
technology that converts pulse counts to seconds.  Problems larger than
the device run blocked (§8's decomposition); the device reports how
many sub-problems it executed and the total pulse count.

A comparison device built with ``element_bits`` is §8's **bit-level**
variant of the same box: its columns are bit comparators, every tuple
streams as its MSB-first bit expansion
(:func:`~repro.bitlevel.bits.expand_matrix`), and its capacity's
``max_cols`` counts bit comparators rather than word comparators.  Bit
devices execute the equality-based comparison operations only — the
word→bit transformation is mechanical exactly for those — by running
the same blocked operators over the expanded operands, and report the
pulse counts :func:`repro.perf.cost.bit_comparison_cost` predicts.

The CPU device models the conventional host of Fig 9-1: it executes
selections (and nothing else — everything the paper makes systolic
*is* systolic here) at a configurable per-tuple cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arrays.decomposition import (
    ArrayCapacity,
    BlockedReport,
    blocked_difference,
    blocked_divide,
    blocked_intersection,
    blocked_join,
    blocked_remove_duplicates,
    blocked_union,
)
from repro import obs
from repro.errors import PlanError
from repro.machine.operators import operator_of
from repro.machine.plan import (
    DEVICE_COMPARISON,
    DEVICE_CPU,
    DEVICE_DIVISION,
    DEVICE_JOIN,
    PlanNode,
)
from repro.obs import metrics
from repro.perf.technology import PAPER_CONSERVATIVE, TechnologyModel
from repro.relational.relation import Relation, select_rows

__all__ = ["DeviceRun", "SystolicDevice", "CpuDevice"]


@dataclass
class DeviceRun:
    """Outcome of one operation on one device."""

    relation: Relation
    pulses: int
    seconds: float
    block_runs: int


class SystolicDevice:
    """One fixed-size systolic array attached to the crossbar."""

    def __init__(
        self,
        name: str,
        kind: str,
        capacity: ArrayCapacity = ArrayCapacity(max_rows=63, max_cols=8),
        technology: TechnologyModel = PAPER_CONSERVATIVE,
        backend=None,
        element_bits: Optional[int] = None,
    ) -> None:
        if kind not in (DEVICE_COMPARISON, DEVICE_JOIN, DEVICE_DIVISION):
            raise PlanError(
                f"device {name!r}: unknown kind {kind!r}; systolic kinds are "
                f"{DEVICE_COMPARISON!r}, {DEVICE_JOIN!r}, {DEVICE_DIVISION!r}"
            )
        if element_bits is not None:
            if element_bits < 1:
                raise PlanError(
                    f"device {name!r}: element_bits must be >= 1, got "
                    f"{element_bits}"
                )
            if kind != DEVICE_COMPARISON:
                raise PlanError(
                    f"device {name!r}: bit-level devices are §8 comparison "
                    f"arrays (equality only); {kind!r} needs word cells"
                )
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self.technology = technology
        #: execution engine for block runs ("pulse", "lattice",
        #: "bitplane", or an Engine instance); pulse counts and results
        #: are identical.
        self.backend = backend
        #: bit width of one element on a §8 bit-level device (None for
        #: a word device).  Tuples stream as their MSB-first expansions
        #: and ``capacity.max_cols`` counts bit comparators.
        self.element_bits = element_bits

    def execute(
        self, node: PlanNode, inputs: list[Relation], variant: str = "counter"
    ) -> DeviceRun:
        """Run one plan node's operation on this device, its block runs
        in the grid ``variant`` the physical plan recorded."""
        with obs.span(
            "device.execute", device=self.name, kind=self.kind,
            op=node.describe(),
        ) as sp:
            relation, report = self._dispatch(node, inputs, variant)
            sp.set(
                pulses=report.total_pulses, blocks=report.block_runs,
                rows_out=len(relation),
            )
        metrics.inc("device.executions")
        metrics.inc("device.block_runs", report.block_runs)
        metrics.inc("device.busy_pulses", report.total_pulses)
        return DeviceRun(
            relation=relation,
            pulses=report.total_pulses,
            seconds=self.technology.pulses_to_seconds(report.total_pulses),
            block_runs=report.block_runs,
        )

    def _dispatch(
        self, node: PlanNode, inputs: list[Relation], variant: str
    ) -> tuple[Relation, BlockedReport]:
        if node.device_kind != self.kind:
            raise PlanError(
                f"device {self.name!r} ({self.kind}) cannot execute "
                f"{node.describe()} ({node.device_kind})"
            )
        row = operator_of(node)
        args, params = row.operands(node, *inputs)
        if self.element_bits is not None:
            # A §8 bit-level device (comparison kind only) streams the
            # operands' bit expansions.
            params["element_bits"] = self.element_bits
        # benchmarks/e2e/trace.py times the blocked runners by wrapping
        # this module's ``blocked_*`` globals, so the runner is looked up
        # here, in one step (ROADMAP.md item 1 lifts this constraint).
        if len(row.variants) > 1:
            # The grid the plan chose, where the row gives a choice.
            params["variant"] = variant
        runner = globals()[row.blocked]
        return runner(*args, self.capacity, backend=self.backend, **params)

    def __repr__(self) -> str:
        bits = (
            f", {self.element_bits}b" if self.element_bits is not None else ""
        )
        return (
            f"SystolicDevice({self.name!r}, {self.kind}, "
            f"{self.capacity.max_rows}×{self.capacity.max_cols}{bits})"
        )


class CpuDevice:
    """The conventional host: selections at a per-tuple cost."""

    kind = DEVICE_CPU

    def __init__(self, name: str = "cpu", tuple_op_ns: float = 10_000.0) -> None:
        if tuple_op_ns <= 0:
            raise PlanError(f"tuple_op_ns must be positive, got {tuple_op_ns}")
        self.name = name
        self.tuple_op_ns = tuple_op_ns

    def execute(self, node: PlanNode, inputs: list[Relation]) -> DeviceRun:
        """Run a selection over its input (billed one tuple at a time)."""
        if node.device_kind != self.kind:
            raise PlanError(
                f"the CPU device only executes selections, not "
                f"{node.describe()}; route array work to a systolic device"
            )
        source = inputs[0]
        with obs.span(
            "device.execute", device=self.name, kind=self.kind,
            op=node.describe(),
        ) as sp:
            relation = select_rows(source, node.column, node.op, node.value)
            sp.set(rows_out=len(relation))
        metrics.inc("device.executions")
        seconds = len(source) * self.tuple_op_ns * 1e-9
        return DeviceRun(
            relation=relation, pulses=0, seconds=seconds, block_runs=0
        )

    def __repr__(self) -> str:
        return f"CpuDevice({self.name!r}, {self.tuple_op_ns:.0f} ns/tuple)"
