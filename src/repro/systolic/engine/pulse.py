"""The reference engine: the array stepped pulse by pulse.

This is the paper's semantics verbatim — every register and every pulse
of the array exists.  Everything the faster engines produce is defined
as "whatever this engine produces".

Every plan is stepped by the register stepper
(:mod:`~repro.systolic.engine.registers`): each wire family is a numpy
register plane — a view of its boundary feed's delay line where the
wire only moves data — and the cell functions and the protocol and
ghost-tag checks run on the planes, only the partial results feeding
back from pulse to pulse; the run hands back one tap table per tapped
edge (no verdicts — operators decode the tables through the audited
tap path of :mod:`repro.arrays.decode`).  The Fig 3-1 linear array is
the grid of one tuple against one; the hexagonal mesh's ``a`` and ``b``
planes are delay lines along their hex axes, and only ``c`` folds.
The engine only computes: a trace or a busy count is taken on a grid
or division array's cell network
(:mod:`~repro.systolic.engine.materialize`), with a
:class:`~repro.systolic.simulator.SystolicSimulator` observer — the
network the register stepper is held to, record for record.

A §8 blocked plan is executed the way §8 words it: every sub-problem of
``plan.blocks()`` stepped as its own array run and read off its taps
(:func:`repro.arrays.decode.blockwise_verdicts`).  The vectorized
engines run the same plan as one kernel; this is what they must equal.
"""

from __future__ import annotations

from repro import obs
from repro.systolic.engine.plan import (
    BlockedPlan,
    EngineRun,
    ExecutionPlan,
    count_runs,
    run_attrs,
)
from repro.systolic.engine.registers import step_plan

__all__ = ["PulseEngine"]


class PulseEngine:
    """Cycle-accurate execution on register planes."""

    name = "pulse"

    def run(self, plan: ExecutionPlan) -> EngineRun:
        with obs.span("engine.run", engine=self.name, **run_attrs(plan)):
            if isinstance(plan, BlockedPlan):
                run = self._run_blocked(plan)
            else:
                run = self._step(plan)
        count_runs(plan)
        return run

    def _step(self, plan: ExecutionPlan) -> EngineRun:
        """One array run on the register stepper."""
        taps, peak_firing = step_plan(plan)
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            tap_view=lambda: taps, peak_firing=peak_firing,
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

    def __repr__(self) -> str:
        return "PulseEngine()"
