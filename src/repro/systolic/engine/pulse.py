"""The reference engine: the array stepped pulse by pulse.

This is the paper's semantics verbatim — every register and every pulse
of the array exists.  Everything the faster engines produce is defined
as "whatever this engine produces".

A grid, linear or division plan is stepped by the register stepper
(:mod:`~repro.systolic.engine.registers`): each wire family is a numpy
register plane — a view of its boundary feed's delay line where the
wire only moves data — and the cell functions and the protocol and
ghost-tag checks run over windows of pulses, the feedback registers a
whole position or a whole pulse at a time, whichever axis of the
window is shorter; the run hands back one tap table per tapped edge
(no verdicts — operators decode the tables through the audited tap
path of :mod:`repro.arrays.decode`) and Token records are materialized
on demand.  A run that asks to *see cells* — a ``trace`` observer, or the
hexagonal mesh — is materialized as the cell network
(:mod:`~repro.systolic.engine.materialize`) and driven by the two-phase
:class:`~repro.systolic.simulator.SystolicSimulator`, which is also the
reference the register stepper is tested against, record for record;
its Token records come back as tap tables too
(:func:`~repro.systolic.engine.plan.tables_of`), so every run is read
through the same audited decoders.

A §8 blocked plan is executed the way §8 words it: every sub-problem of
``plan.blocks()`` stepped as its own array run and read off its taps
(:func:`repro.arrays.decode.blockwise_verdicts`).  The vectorized
engines run the same plan as one kernel; this is what they must equal.
"""

from __future__ import annotations

from typing import Any, Optional

from repro import obs
from repro.errors import SimulationError
from repro.systolic.engine.materialize import materialize
from repro.systolic.engine.plan import (
    BlockedPlan,
    EngineRun,
    ExecutionPlan,
    HexPlan,
    count_runs,
    run_attrs,
    tables_of,
)
from repro.systolic.engine.registers import step_plan
from repro.systolic.metrics import ActivityMeter
from repro.systolic.simulator import SystolicSimulator

__all__ = ["PulseEngine"]


class PulseEngine:
    """Cycle-accurate execution: register planes, or the cell network
    when the caller observes cells."""

    name = "pulse"

    def run(
        self,
        plan: ExecutionPlan,
        meter: Optional[ActivityMeter] = None,
        trace: Optional[Any] = None,
    ) -> EngineRun:
        with obs.span("engine.run", engine=self.name, **run_attrs(plan)):
            if isinstance(plan, BlockedPlan):
                run = self._run_blocked(plan, meter, trace)
            elif trace is not None or isinstance(plan, HexPlan):
                run = self._run_network(plan, meter, trace)
            else:
                run = self._step(plan, meter)
        count_runs(plan)
        return run

    def _step(
        self, plan: ExecutionPlan, meter: Optional[ActivityMeter] = None
    ) -> EngineRun:
        """One array run on the register stepper."""
        taps = step_plan(plan, meter)
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            meter=meter, tap_view=lambda: taps,
        )

    def _run_blocked(
        self, plan: BlockedPlan, meter: Optional[ActivityMeter],
        trace: Optional[Any],
    ) -> EngineRun:
        """§8 as written: the array is run once per sub-problem and the
        partial results are combined outside it — every block stepped
        pulse by pulse, every ``t_ij`` read off the taps."""
        # The audited tap decoders live above this package
        # (repro.arrays imports it), hence at call time.
        from repro.arrays.decode import blockwise_verdicts

        if meter is not None or trace is not None:
            raise SimulationError(
                "a blocked plan stands for many array runs; meter or "
                "trace them one by one (plan.blocks())"
            )
        verdicts, pulses = blockwise_verdicts(plan, self._step)
        return EngineRun(
            engine=self.name, pulses=pulses, cells=plan.cells,
            verdicts=verdicts, tap_view=dict,
        )

    def _run_network(
        self, plan: ExecutionPlan, meter: Optional[ActivityMeter],
        trace: Optional[Any],
    ) -> EngineRun:
        """Materialize the plan's cells and drive them one by one."""
        network = materialize(plan)
        peak_firing: Optional[int] = None
        observer = trace
        firing_per_pulse: list[int] = []
        if isinstance(plan, HexPlan):
            observer = _hex_observer(firing_per_pulse, trace)
        simulator = SystolicSimulator(network, meter=meter, observer=observer)
        simulator.run(plan.pulses)
        if isinstance(plan, HexPlan):
            peak_firing = max(firing_per_pulse, default=0)
        return EngineRun(
            engine=self.name,
            pulses=plan.pulses,
            cells=len(network.cells),
            tap_view=lambda: tables_of(simulator.collectors),
            meter=meter,
            trace=trace,
            peak_firing=peak_firing,
        )

    def __repr__(self) -> str:
        return "PulseEngine()"


def _hex_observer(firing_per_pulse: list[int], trace: Optional[Any]):
    """Count triple-coincidences per pulse, chaining any trace observer."""

    def observer(pulse, inputs_by_cell, outputs_by_cell):
        firing = sum(
            1 for ports in inputs_by_cell.values()
            if all(ports.get(p) is not None for p in ("a_in", "b_in", "c_in"))
        )
        firing_per_pulse.append(firing)
        if trace is not None:
            trace(pulse, inputs_by_cell, outputs_by_cell)

    return observer
