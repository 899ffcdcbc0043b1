"""Trace recording — reproducing Fig 3-4-style data-movement snapshots.

Figure 3-4 of the paper shows the contents of the two-dimensional
comparison array at one instant: which ``a`` elements, ``b`` elements,
and partial ``t`` results sit in which processors.  The
:class:`TraceRecorder` plugs into the simulator's per-pulse observer
hook, remembers what every cell saw on every pulse, and can render any
pulse as a text grid given a layout (cell name → grid coordinate).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.errors import SimulationError
from repro.systolic.values import Token

__all__ = ["TraceRecorder", "render_grid"]

#: cell name -> (row, column) position used when rendering snapshots.
Layout = Mapping[str, tuple[int, int]]


class TraceRecorder:
    """Records the tokens present at each cell on each pulse.

    Attach it as a :class:`~repro.systolic.simulator.SystolicSimulator`'s
    ``observer``.  Only non-empty ports are stored, so memory stays
    proportional to actual traffic.
    """

    def __init__(self) -> None:
        #: pulse -> cell -> port -> token (inputs seen during the pulse)
        self._inputs: dict[int, dict[str, dict[str, Token]]] = {}

    def __call__(
        self,
        pulse: int,
        inputs_by_cell: dict[str, dict[str, Optional[Token]]],
        outputs_by_cell: dict[str, dict[str, Optional[Token]]],
    ) -> None:
        snapshot: dict[str, dict[str, Token]] = {}
        for cell, ports in inputs_by_cell.items():
            present = {port: token for port, token in ports.items() if token is not None}
            if present:
                snapshot[cell] = present
        self._inputs[pulse] = snapshot

    # -- queries -------------------------------------------------------------

    @property
    def pulses(self) -> list[int]:
        """Pulses with a retained snapshot, ascending."""
        return sorted(self._inputs)

    def at(self, pulse: int) -> dict[str, dict[str, Token]]:
        """The inputs seen by every busy cell on ``pulse``."""
        try:
            return self._inputs[pulse]
        except KeyError:
            raise SimulationError(
                f"no snapshot retained for pulse {pulse}; have {self.pulses[:10]}"
            ) from None


def render_grid(
    snapshot: Mapping[str, Mapping[str, Token]],
    layout: Layout,
    fmt: Callable[[Mapping[str, Token]], str] | None = None,
    empty: str = ".",
) -> str:
    """Render one snapshot as a text grid (the Fig 3-4 view).

    ``layout`` places each cell at a (row, column); ``fmt`` turns a
    cell's port→token mapping into a short label (default: comma-joined
    payloads).  Cells absent from the snapshot render as ``empty``.
    """
    if not layout:
        return ""
    if fmt is None:
        def fmt(ports: Mapping[str, Token]) -> str:
            return ",".join(str(ports[p].value) for p in sorted(ports))

    rows = max(r for r, _ in layout.values()) + 1
    cols = max(c for _, c in layout.values()) + 1
    grid = [[empty for _ in range(cols)] for _ in range(rows)]
    for cell, (row, col) in layout.items():
        ports = snapshot.get(cell)
        if ports:
            grid[row][col] = fmt(ports)
    width = max(max(len(label) for label in line) for line in grid)
    return "\n".join(
        " ".join(label.center(width) for label in line) for line in grid
    )
