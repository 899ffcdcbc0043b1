"""The synchronous pulse simulator.

All data in a systolic array "moves synchronously" (§2.1): on every
pulse each processor latches its inputs, performs its short
computation, and emits outputs that arrive at neighbours on the next
pulse.  :class:`SystolicSimulator` implements exactly that two-phase
semantics over a :class:`~repro.systolic.wiring.Network`:

1. **Compute phase** — every cell's :meth:`~repro.systolic.cell.Cell.step`
   runs on the tokens latched at the end of the previous pulse (boundary
   inputs come from feeders, evaluated at the current pulse).
2. **Transfer phase** — outputs propagate along wires into the latches
   the next pulse will read; tapped outputs are recorded into
   collectors.

Because phase 1 reads only previous-pulse latches, cell evaluation
order is immaterial — the simulator is deterministic and faithful to a
globally-clocked array.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.systolic.cell import Cell
from repro.systolic.streams import Collector
from repro.systolic.values import Token
from repro.systolic.wiring import Endpoint, Network

__all__ = ["SystolicSimulator"]

#: Optional per-pulse observer: (pulse, inputs-by-cell, outputs-by-cell).
PulseObserver = Callable[[int, dict[str, dict[str, Optional[Token]]], dict[str, dict[str, Optional[Token]]]], None]


class SystolicSimulator:
    """Drives a network pulse by pulse and records tap output.

    Parameters
    ----------
    network:
        The cell network to simulate.
    observer:
        Optional callback invoked after every pulse with the full
        input/output picture (a trace recorder, a work meter).
    """

    def __init__(
        self,
        network: Network,
        observer: Optional[PulseObserver] = None,
    ) -> None:
        self.network = network
        self.observer = observer
        self.pulse = 0
        #: input endpoint -> token latched for the *next* compute phase
        self._latches: dict[Endpoint, Token] = {}
        # The network's shape is read once, here: its cells, wires and
        # feeders properties each build a fresh copy, and an endpoint is
        # a frozen dataclass — neither belongs in the per-pulse loop.
        self._cells = tuple(network.cells.items())
        self._wires = network.wires
        feeders = network.feeders
        #: per cell: (name, its input ports as (port, endpoint, feeder))
        self._inputs = []
        for name, cell in self._cells:
            endpoints = [Endpoint(name, port) for port in cell.IN_PORTS]
            self._inputs.append(
                (name, [(e.port, e, feeders.get(e)) for e in endpoints])
            )
        self.collectors: dict[str, Collector] = {
            name: Collector(name) for name in network.taps
        }
        #: tap lookup: output endpoint -> collector names observing it
        self._taps_by_endpoint: dict[Endpoint, list[str]] = {}
        for name, endpoint in network.taps.items():
            self._taps_by_endpoint.setdefault(endpoint, []).append(name)
        for cell in network:
            cell.reset()

    # -- running -----------------------------------------------------------

    def step_once(self) -> None:
        """Advance the array by one pulse."""
        pulse = self.pulse
        latches = self._latches

        inputs_by_cell: dict[str, dict[str, Optional[Token]]] = {}
        for name, ports in self._inputs:
            inputs_by_cell[name] = {
                port: latches.pop(endpoint, None) if feeder is None
                else feeder(pulse)
                for port, endpoint, feeder in ports
            }

        outputs_by_cell: dict[str, dict[str, Optional[Token]]] = {}
        for name, cell in self._cells:
            try:
                outputs = cell.step(inputs_by_cell[name]) or {}
            except SimulationError as exc:
                raise SimulationError(f"pulse {pulse}: {exc}") from exc
            for port in outputs:
                if port not in cell.OUT_PORTS:
                    raise SimulationError(
                        f"pulse {pulse}: cell {name!r} emitted on undeclared "
                        f"output port {port!r}"
                    )
            outputs_by_cell[name] = outputs

        # Transfer phase: move outputs into next-pulse latches and taps.
        new_latches: dict[Endpoint, Token] = {}
        for wire in self._wires:
            token = outputs_by_cell.get(wire.source.cell, {}).get(wire.source.port)
            if token is not None:
                if wire.target in new_latches:
                    raise SimulationError(
                        f"pulse {pulse}: two tokens latched at {wire.target!r}"
                    )
                new_latches[wire.target] = token
        # Preserve latches not consumed this pulse?  No: a systolic latch
        # holds data for exactly one pulse; anything unconsumed is gone.
        self._latches = new_latches

        for endpoint, names in self._taps_by_endpoint.items():
            token = outputs_by_cell.get(endpoint.cell, {}).get(endpoint.port)
            if token is not None:
                for tap_name in names:
                    self.collectors[tap_name].record(pulse, token)

        if self.observer is not None:
            self.observer(pulse, inputs_by_cell, outputs_by_cell)
        self.pulse += 1

    def run(self, pulses: int) -> "SystolicSimulator":
        """Advance by ``pulses`` pulses; returns self for chaining."""
        if pulses < 0:
            raise SimulationError(f"cannot run {pulses} pulses")
        for _ in range(pulses):
            self.step_once()
        return self

    # -- results -----------------------------------------------------------

    def collector(self, name: str) -> Collector:
        """Look up a collector by tap name."""
        try:
            return self.collectors[name]
        except KeyError:
            raise SimulationError(
                f"no tap named {name!r}; have {sorted(self.collectors)}"
            ) from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.network!r}, pulse={self.pulse})"
