"""Hexagonal-mesh geometry (§2.1, ref [5]).

The hexagonally connected alternative array: three data streams flow
through a hex mesh along directions summing to zero, every cell
computing ``c ← c ⊕ (a ⊗ b)`` when a triple coincides.  This module
holds what the engines share — the :class:`Semiring` algebra and the
stream geometry — so the operator layer (:mod:`repro.arrays.hexagonal`)
only states the problem.  The register stepper
(:mod:`~repro.systolic.engine.registers`) steps the mesh pulse by pulse;
the lattice engine walks each ``c`` stream down its line.

Schedule (α = β = γ = 1, δ = 0; derivation in the tests):

* stream directions ``u_a = (1, 0)``, ``u_b = (0, 1)``,
  ``u_c = (−1, −1)`` — the three hexagonal axes, summing to zero;
* ``a[i][k]`` starts at ``i·(u_b − u_a) + k·(u_c − u_a)`` and moves
  along ``u_a`` one cell per pulse (``b`` and ``c`` symmetrically);
* the triple ``(i, j, k)`` coincides in one cell at pulse
  ``i + j + k`` — and *only* scheduled triples ever coincide, so the
  array needs no guards beyond "compute when all three are present".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Semiring",
    "COMPARISON_SEMIRING",
    "BOOLEAN_SEMIRING",
    "U_A",
    "U_B",
    "U_C",
    "a_start",
    "b_start",
    "c_start",
    "meeting_cell",
    "hex_horizon",
    "hex_positions",
    "hex_tap_name",
]

#: The three hexagonal stream directions (they sum to the zero vector).
U_A = (1, 0)
U_B = (0, 1)
U_C = (-1, -1)


@dataclass(frozen=True)
class Semiring:
    """The algebra a hex cell computes over: ``c ← combine(c, interact(a, b))``."""

    name: str
    combine: Callable[[Any, Any], Any]
    interact: Callable[[Any, Any], Any]
    identity: Any


#: Tuple comparison: t_ij = AND_k (a_ik = b_jk); identity TRUE.
COMPARISON_SEMIRING = Semiring(
    name="comparison",
    combine=lambda c, x: bool(c) and bool(x),
    interact=lambda a, b: a == b,
    identity=True,
)

#: Boolean matrix product (OR of ANDs) — e.g. one step of reachability.
BOOLEAN_SEMIRING = Semiring(
    name="boolean",
    combine=lambda c, x: bool(c) or bool(x),
    interact=lambda a, b: bool(a) and bool(b),
    identity=False,
)


def _vadd(p: tuple[int, int], q: tuple[int, int], scale: int = 1) -> tuple[int, int]:
    return (p[0] + scale * q[0], p[1] + scale * q[1])


def _vsub(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return (p[0] - q[0], p[1] - q[1])


def a_start(i: int, k: int) -> tuple[int, int]:
    """Start cell of element ``a[i][k]`` (injected at pulse 0)."""
    base = _vsub(U_B, U_A)
    off = _vsub(U_C, U_A)
    return (base[0] * i + off[0] * k, base[1] * i + off[1] * k)


def b_start(k: int, j: int) -> tuple[int, int]:
    """Start cell of element ``b[k][j]`` (injected at pulse 0)."""
    base = _vsub(U_A, U_B)
    off = _vsub(U_C, U_B)
    return (off[0] * k + base[0] * j, off[1] * k + base[1] * j)


def c_start(i: int, j: int) -> tuple[int, int]:
    """Start cell of accumulator ``c[i][j]`` (injected at pulse 0)."""
    bi = _vsub(U_B, U_C)
    bj = _vsub(U_A, U_C)
    return (bi[0] * i + bj[0] * j, bi[1] * i + bj[1] * j)


def meeting_cell(i: int, j: int, k: int) -> tuple[int, int]:
    """Where the (i, j, k) triple coincides, at pulse i + j + k."""
    t = i + j + k
    return _vadd(a_start(i, k), U_A, t)


def hex_horizon(n_a: int, n_b: int, m: int) -> int:
    """The last pulse on which a scheduled triple meets."""
    return (n_a - 1) + (n_b - 1) + (m - 1)


def hex_positions(n_a: int, n_b: int, m: int) -> set[tuple[int, int]]:
    """Every lattice cell any token ever occupies during the run."""
    horizon = hex_horizon(n_a, n_b, m)
    positions: set[tuple[int, int]] = set()
    for i in range(n_a):
        for k in range(m):
            start = a_start(i, k)
            for t in range(horizon + 1):
                positions.add(_vadd(start, U_A, t))
    for j in range(n_b):
        for k in range(m):
            start = b_start(k, j)
            for t in range(horizon + 1):
                positions.add(_vadd(start, U_B, t))
    for i in range(n_a):
        for j in range(n_b):
            start = c_start(i, j)
            # c streams matter only until their last meeting.
            for t in range(i + j + m):
                positions.add(_vadd(start, U_C, t))
    return positions


def hex_tap_name(pos: tuple[int, int]) -> str:
    """Canonical tap name for a ``c``-stream exit at ``pos``."""
    return f"c@{pos[0]},{pos[1]}"
