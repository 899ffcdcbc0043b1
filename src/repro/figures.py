"""Render the paper's figures from the live simulated hardware.

Each function draws an ASCII schematic of an *actual constructed
network* — cells and wires as
:func:`~repro.systolic.engine.materialize.materialize` builds them from
the plans :mod:`repro.arrays` runs — so the diagrams cannot drift from
the implementation.  Covered:

* Fig 2-1: the orthogonal and linear connection patterns;
* Fig 3-1 / 3-3 / 4-1 / 6-1: the operator arrays, drawn from their
  networks' layouts;
* Fig 7-2: the division array with its preloaded elements;
* Fig 9-1: the integrated machine's boxes and the crossbar.

``python examples/render_figures.py`` prints the full set.
"""

from __future__ import annotations

from typing import Mapping

from repro.machine.system import SystolicDatabaseMachine
from repro.systolic.wiring import Network

__all__ = [
    "network_summary",
    "grid_schematic",
    "division_schematic",
    "machine_schematic",
]


def network_summary(network: Network) -> str:
    """A one-glance census of a network: cell types, wires, boundaries."""
    histogram: dict[str, int] = {}
    for cell in network:
        kind = type(cell).__name__
        histogram[kind] = histogram.get(kind, 0) + 1
    lines = [f"network {network.name!r}:"]
    for kind in sorted(histogram):
        lines.append(f"  {histogram[kind]:>4} × {kind}")
    lines.append(f"  {len(network.wires):>4} wires")
    lines.append(f"  {len(network.feeders):>4} boundary feeders")
    lines.append(f"  {len(network.taps):>4} output taps")
    dangling = network.unconnected_inputs()
    lines.append(f"  {len(dangling):>4} unconnected inputs")
    return "\n".join(lines)


def grid_schematic(
    layout: Mapping[str, tuple[int, int]],
    label: Mapping[str, str] | None = None,
    cell_width: int = 5,
) -> str:
    """Draw a grid layout the way the paper draws its arrays.

    ``layout`` is the cell-name → (row, col) mapping ``materialize``
    returns beside a network; ``label`` optionally overrides the text in each box
    (default: a glyph from the cell-name prefix: ``cmp``→``=``,
    ``acc``→``+``, ``dm``/``dg``/``dv``→``÷``).
    """
    if not layout:
        return "(empty layout)"
    rows = max(r for r, _ in layout.values()) + 1
    cols = max(c for _, c in layout.values()) + 1
    boxes = [["" for _ in range(cols)] for _ in range(rows)]
    for name, (row, col) in layout.items():
        if label and name in label:
            text = label[name]
        elif name.startswith("cmp"):
            text = "="
        elif name.startswith("acc"):
            text = "+"
        elif name.startswith(("dm", "dg", "dv")):
            text = "÷"
        else:
            text = "?"
        boxes[row][col] = text
    inner = cell_width - 2
    lines = []
    for row in range(rows):
        tops, mids, bottoms = [], [], []
        for col in range(cols):
            text = boxes[row][col]
            if text:
                tops.append("+" + "-" * inner + "+")
                mids.append("|" + text.center(inner) + "|")
                bottoms.append("+" + "-" * inner + "+")
            else:
                tops.append(" " * cell_width)
                mids.append(" " * cell_width)
                bottoms.append(" " * cell_width)
        lines.append(" ".join(tops))
        lines.append("-".join(mids))  # the horizontal t-wires
        lines.append(" ".join(bottoms))
    return "\n".join(lines)


def division_schematic(distinct_x: list, divisor: list) -> str:
    """Fig 7-2's shape: dividend columns beside the divisor rows."""
    lines = ["  dividend     divisor rows"]
    for x in distinct_x:
        stored = " ".join(f"[{value}]" for value in divisor)
        lines.append(f"  [{x}]->[gate] -> {stored} -> AND")
    lines.append("   ^x     ^y   (pairs stream upward; the sweep moves right)")
    return "\n".join(lines)


def machine_schematic(machine: SystolicDatabaseMachine) -> str:
    """Fig 9-1: memories on the left, devices on the right, crossbar between."""
    memory_names = [memory.name for memory in machine.memories]
    device_names = [device.name for device in machine.devices] + ["disk"]
    height = max(len(memory_names), len(device_names))
    memory_width = max(len(name) for name in memory_names) + 2
    lines = ["      (Fig 9-1)"]
    for index in range(height):
        memory = (
            f"[{memory_names[index]}]".ljust(memory_width)
            if index < len(memory_names) else " " * memory_width
        )
        device = (
            f"[{device_names[index]}]" if index < len(device_names) else ""
        )
        crossbar = "--X--" if index < len(memory_names) else "  |  "
        lines.append(f"  {memory}{crossbar}{device}")
    lines.append(
        f"  crossbar: every memory to every device, "
        f"{machine.crossbar.configurations()} links so far"
    )
    return "\n".join(lines)
