"""Systolic machine substrate: the engines, and the cell network a
run is watched on.

The engines (:mod:`~repro.systolic.engine`) compute every array.  The
cell network is the paper's processors one object each: a
:class:`~repro.systolic.wiring.Network` of
:class:`~repro.systolic.cell.Cell`\\ s driven by a
:class:`~repro.systolic.simulator.SystolicSimulator` at pulse
granularity, fed and observed through :mod:`~repro.systolic.streams`.
It computes nothing for an engine: a grid or division array is
materialized on it to be traced or metered, and as the reference the
register stepper is held to.
"""

from repro.systolic.cell import Cell, PortMap
from repro.systolic.metrics import ActivityMeter, UtilizationReport
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.streams import (
    Collector,
    ConstantFeeder,
    PeriodicFeeder,
    ScheduleFeeder,
    silent,
)
from repro.systolic.trace import TraceRecorder, render_grid
from repro.systolic.values import FALSE, NULL_VALUE, TRUE, Token, tok, value_of
from repro.systolic.wiring import Endpoint, Network, Wire

__all__ = [
    "ActivityMeter",
    "Cell",
    "Collector",
    "ConstantFeeder",
    "Endpoint",
    "FALSE",
    "NULL_VALUE",
    "Network",
    "PeriodicFeeder",
    "PortMap",
    "ScheduleFeeder",
    "SystolicSimulator",
    "Token",
    "TraceRecorder",
    "TRUE",
    "UtilizationReport",
    "Wire",
    "render_grid",
    "silent",
    "tok",
    "value_of",
]
