"""Shared execution kit for the operator arrays.

The operator modules in this package describe each §3–§7 array as an
:class:`~repro.systolic.engine.plan.ExecutionPlan` and hand it to
:func:`execute`, which dispatches to a pluggable backend — the
pulse-level reference simulator or the vectorized lattice engine (see
:mod:`repro.systolic.engine`).  The network builders that used to live
here moved to :mod:`repro.systolic.engine.materialize`; they are
re-exported under their old names for callers that assemble networks
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.systolic.engine import resolve_backend
from repro.systolic.engine.materialize import (
    CellFactory,
    attach_accumulation_column,
    attach_op_stream,
    build_counter_stream_grid,
    build_fixed_relation_grid,
)
from repro.systolic.engine.plan import (
    EngineRun,
    ExecutionPlan,
    TInit,
    acc_name,
    check_tuples as _check_tuples_impl,
    cmp_name,
)
from repro.systolic.metrics import ActivityMeter
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.trace import TraceRecorder
from repro.systolic.wiring import Network

__all__ = [
    "ArrayRun",
    "execute",
    "build_counter_stream_grid",
    "build_fixed_relation_grid",
    "attach_accumulation_column",
    "attach_op_stream",
    "run_array",
    "cmp_name",
    "acc_name",
    "TInit",
    "CellFactory",
]


@dataclass
class ArrayRun:
    """Operational record of one array execution."""

    pulses: int
    rows: int
    cols: int
    cells: int
    meter: Optional[ActivityMeter] = None
    trace: Optional[TraceRecorder] = None
    #: which engine produced this run ("pulse", "lattice", ...)
    backend: str = "pulse"

    @property
    def utilization(self) -> Optional[float]:
        """Busy fraction over the run, when a meter was attached."""
        if self.meter is None:
            return None
        return self.meter.report(self.cells).utilization


def execute(
    plan: ExecutionPlan,
    backend=None,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
) -> EngineRun:
    """Run a plan on the chosen backend (default: the pulse simulator).

    ``backend`` is an engine name (``"pulse"``, ``"lattice"``), an
    :class:`~repro.systolic.engine.plan.Engine` instance, or ``None``
    for the default.
    """
    return resolve_backend(backend).run(plan, meter=meter, trace=trace)


def run_array(
    network: Network,
    pulses: int,
    meter: Optional[ActivityMeter] = None,
    trace: Optional[TraceRecorder] = None,
) -> SystolicSimulator:
    """Simulate ``pulses`` pulses and return the simulator (for taps)."""
    simulator = SystolicSimulator(network, meter=meter, observer=trace)
    simulator.run(pulses)
    return simulator


def _check_tuples(tuples, expected_n, arity, label) -> None:
    _check_tuples_impl(tuples, expected_n, arity, label)
