"""The reference engine: the array stepped pulse by pulse.

This is the paper's semantics verbatim — every register and every pulse
of the array exists.  Everything the faster engines produce is defined
as "whatever this engine produces".

A grid, linear or division plan is stepped by the register stepper
(:mod:`~repro.systolic.engine.registers`): each wire family is a numpy
register plane and one pulse advances every cell at once, protocol and
ghost-tag checks included; the run hands back columnar taps (no
verdicts — operators decode them through the audited tap path of
:mod:`repro.arrays.decode`) and Token records are materialized on
demand.  A run that asks to *see cells* — a ``trace`` observer, or the
hexagonal mesh — is materialized as the cell network
(:mod:`~repro.systolic.engine.materialize`) and driven by the two-phase
:class:`~repro.systolic.simulator.SystolicSimulator`, which is also the
reference the register stepper is tested against, record for record.
"""

from __future__ import annotations

from typing import Any, Optional

from repro import obs
from repro.obs import metrics
from repro.systolic.engine.materialize import materialize
from repro.systolic.engine.plan import EngineRun, ExecutionPlan, HexPlan
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
        with obs.span(
            "engine.run", engine=self.name,
            plan=type(plan).__name__, pulses=plan.pulses, cells=plan.cells,
        ):
            if trace is not None or isinstance(plan, HexPlan):
                run = self._run_network(plan, meter, trace)
            else:
                taps = step_plan(plan, meter)
                run = EngineRun(
                    engine=self.name, pulses=plan.pulses, cells=plan.cells,
                    meter=meter, tap_view=lambda: taps,
                )
        metrics.inc("engine.runs")
        metrics.observe("engine.run.pulses", plan.pulses)
        return run

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
            collectors=simulator.collectors,
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
