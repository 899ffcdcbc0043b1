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
on demand.  The hexagonal mesh is materialized as the cell network
(:mod:`~repro.systolic.engine.materialize`) and driven by the two-phase
:class:`~repro.systolic.simulator.SystolicSimulator`, which is also the
reference the register stepper is tested against, record for record;
its Token records come back as tap tables too
(:func:`~repro.systolic.engine.plan.tables_of`), so every run is read
through the same audited decoders.  The engine only computes: a trace
or a busy count is taken on that network, with a simulator observer.

A §8 blocked plan is executed the way §8 words it: every sub-problem of
``plan.blocks()`` stepped as its own array run and read off its taps
(:func:`repro.arrays.decode.blockwise_verdicts`).  The vectorized
engines run the same plan as one kernel; this is what they must equal.
"""

from __future__ import annotations

from repro import obs
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
from repro.systolic.simulator import SystolicSimulator

__all__ = ["PulseEngine"]


class PulseEngine:
    """Cycle-accurate execution: register planes, or the cell network
    for the hexagonal mesh."""

    name = "pulse"

    def run(self, plan: ExecutionPlan) -> EngineRun:
        with obs.span("engine.run", engine=self.name, **run_attrs(plan)):
            if isinstance(plan, BlockedPlan):
                run = self._run_blocked(plan)
            elif isinstance(plan, HexPlan):
                run = self._run_hex(plan)
            else:
                run = self._step(plan)
        count_runs(plan)
        return run

    def _step(self, plan: ExecutionPlan) -> EngineRun:
        """One array run on the register stepper."""
        taps = step_plan(plan)
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            tap_view=lambda: taps,
        )

    def _run_blocked(self, plan: BlockedPlan) -> EngineRun:
        """§8 as written: the array is run once per sub-problem and the
        partial results are combined outside it — every block stepped
        pulse by pulse, every ``t_ij`` read off the taps."""
        # The audited tap decoders live above this package
        # (repro.arrays imports it), hence at call time.
        from repro.arrays.decode import blockwise_verdicts

        verdicts, pulses = blockwise_verdicts(plan, self._step)
        return EngineRun(
            engine=self.name, pulses=pulses, cells=plan.cells,
            verdicts=verdicts, tap_view=dict,
        )

    def _run_hex(self, plan: HexPlan) -> EngineRun:
        """Materialize the hex mesh's cells and drive them one by one,
        counting the cells that see all three operands on each pulse."""
        network = materialize(plan)
        firing_per_pulse: list[int] = []

        def count_firing(pulse, inputs_by_cell, outputs_by_cell):
            firing_per_pulse.append(sum(
                1 for ports in inputs_by_cell.values()
                if all(ports.get(p) is not None
                       for p in ("a_in", "b_in", "c_in"))
            ))

        simulator = SystolicSimulator(network, observer=count_firing)
        simulator.run(plan.pulses)
        return EngineRun(
            engine=self.name,
            pulses=plan.pulses,
            cells=len(network.cells),
            tap_view=lambda: tables_of(simulator.collectors),
            peak_firing=max(firing_per_pulse, default=0),
        )

    def __repr__(self) -> str:
        return "PulseEngine()"
