"""Systolic machine substrate: the engines, and the cell network a
run is watched on.

The engines (:mod:`~repro.systolic.engine`) compute every array.  The
cell network is the paper's processors one object each: a
:class:`~repro.systolic.wiring.Network` of
:class:`~repro.systolic.cell.Cell`\\ s driven by a
:class:`~repro.systolic.simulator.SystolicSimulator` at pulse
granularity, fed and observed through :mod:`~repro.systolic.streams`.
It computes nothing for an engine: a grid or division plan is
materialized on it (:func:`~repro.systolic.engine.materialize.materialize`)
to be traced or metered, and as the reference the register stepper is
held to.  The package re-exports nothing, so importing an engine loads
none of the cell kit.
"""
