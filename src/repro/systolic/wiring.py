"""Cell networks: local, regular interconnection (paper property 2).

A :class:`Network` owns a set of named cells and the wires between
them.  Wires connect one cell's output port to another cell's input
port; an output may fan out, but each input has at most one driver.
Boundary input ports are driven by *feeders* (see
:mod:`repro.systolic.streams`); boundary outputs are observed by
named *taps* which the simulator records into collectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import WiringError
from repro.systolic.cell import Cell
from repro.systolic.values import Token

__all__ = ["Network", "Wire", "Endpoint", "Feeder"]

#: A feeder maps a pulse number to the token injected on that pulse.
Feeder = Callable[[int], Optional[Token]]


@dataclass(frozen=True)
class Endpoint:
    """One end of a wire: a port on a named cell."""

    cell: str
    port: str

    def __repr__(self) -> str:
        return f"{self.cell}.{self.port}"


@dataclass(frozen=True)
class Wire:
    """A directed connection from an output port to an input port."""

    source: Endpoint
    target: Endpoint

    def __repr__(self) -> str:
        return f"{self.source!r} -> {self.target!r}"


class Network:
    """A graph of cells, wires, feeders, and output taps."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._cells: dict[str, Cell] = {}
        self._wires: list[Wire] = []
        #: input endpoint -> driving output endpoint
        self._driver: dict[Endpoint, Endpoint] = {}
        #: input endpoint -> feeder
        self._feeders: dict[Endpoint, Feeder] = {}
        #: tap name -> observed output endpoint
        self._taps: dict[str, Endpoint] = {}

    # -- construction -------------------------------------------------------

    def add(self, cell: Cell) -> Cell:
        """Register a cell; names must be unique; returns the cell."""
        if cell.name in self._cells:
            raise WiringError(f"duplicate cell name {cell.name!r}")
        self._cells[cell.name] = cell
        return cell

    def _endpoint(self, cell: str, port: str, direction: str) -> Endpoint:
        owner = self._cells.get(cell)
        if owner is None:
            raise WiringError(f"unknown cell {cell!r}")
        ports = owner.OUT_PORTS if direction == "out" else owner.IN_PORTS
        if port not in ports:
            raise WiringError(
                f"cell {cell!r} has no {direction}put port {port!r}; "
                f"has {list(ports)}"
            )
        return Endpoint(cell, port)

    def connect(
        self, src_cell: str, src_port: str, dst_cell: str, dst_port: str
    ) -> Wire:
        """Wire ``src_cell.src_port`` (output) to ``dst_cell.dst_port`` (input)."""
        source = self._endpoint(src_cell, src_port, "out")
        target = self._endpoint(dst_cell, dst_port, "in")
        self._claim_input(target, f"wire from {source!r}")
        wire = Wire(source, target)
        self._wires.append(wire)
        self._driver[target] = source
        return wire

    def feed(self, cell: str, port: str, feeder: Feeder) -> None:
        """Drive a boundary input port from a feeder."""
        target = self._endpoint(cell, port, "in")
        self._claim_input(target, "feeder")
        self._feeders[target] = feeder

    def _claim_input(self, target: Endpoint, claimant: str) -> None:
        if target in self._driver:
            raise WiringError(
                f"input {target!r} already driven by {self._driver[target]!r}; "
                f"cannot attach {claimant}"
            )
        if target in self._feeders:
            raise WiringError(
                f"input {target!r} already driven by a feeder; "
                f"cannot attach {claimant}"
            )

    def tap(self, name: str, cell: str, port: str) -> None:
        """Observe a boundary output port under ``name``."""
        if name in self._taps:
            raise WiringError(f"duplicate tap name {name!r}")
        self._taps[name] = self._endpoint(cell, port, "out")

    # -- introspection -------------------------------------------------------

    @property
    def cells(self) -> dict[str, Cell]:
        """Registered cells by name."""
        return dict(self._cells)

    @property
    def wires(self) -> tuple[Wire, ...]:
        """All wires."""
        return tuple(self._wires)

    @property
    def feeders(self) -> dict[Endpoint, Feeder]:
        """Feeder-driven boundary inputs."""
        return dict(self._feeders)

    @property
    def taps(self) -> dict[str, Endpoint]:
        """Named output taps."""
        return dict(self._taps)

    def cell(self, name: str) -> Cell:
        """Look up a cell by name."""
        try:
            return self._cells[name]
        except KeyError:
            raise WiringError(f"unknown cell {name!r}") from None

    def unconnected_inputs(self) -> list[Endpoint]:
        """Input ports with neither a wire nor a feeder (read empty)."""
        dangling = []
        for name, cell in self._cells.items():
            for port in cell.IN_PORTS:
                endpoint = Endpoint(name, port)
                if endpoint not in self._driver and endpoint not in self._feeders:
                    dangling.append(endpoint)
        return dangling

    def validate(self, strict: bool = False) -> None:
        """Check structural soundness.

        Always verifies that wires reference live cells/ports (enforced
        at construction).  With ``strict=True`` additionally rejects
        dangling input ports, which otherwise read as permanently-empty
        wires.
        """
        if strict:
            dangling = self.unconnected_inputs()
            if dangling:
                raise WiringError(
                    f"network {self.name!r} has unconnected inputs: "
                    f"{dangling[:8]}{'...' if len(dangling) > 8 else ''}"
                )

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, {len(self._cells)} cells, "
            f"{len(self._wires)} wires)"
        )
