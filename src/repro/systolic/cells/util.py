"""Utility cells: plumbing that appears around the main arrays.

:class:`LatchCell` is a pure one-pulse delay (the transfer along its
wire provides the delay; the cell itself just forwards), the unit a
stream is aligned with.
"""

from __future__ import annotations

from typing import Optional

from repro.systolic.cell import Cell, PortMap
from repro.systolic.values import Token

__all__ = ["LatchCell"]


class LatchCell(Cell):
    """Forwards its input unchanged (net effect: one pulse of delay)."""

    IN_PORTS = ("d_in",)
    OUT_PORTS = ("d_out",)

    def step(self, inputs: PortMap) -> dict[str, Optional[Token]]:
        token = inputs.get("d_in")
        if token is None:
            return {}
        return {"d_out": token}

