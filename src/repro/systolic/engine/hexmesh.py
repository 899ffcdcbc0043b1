"""Hexagonal-mesh geometry and cells (§2.1, ref [5]).

The hexagonally connected alternative array: three data streams flow
through a hex mesh along directions summing to zero, every cell
computing ``c ← c ⊕ (a ⊗ b)`` when a triple coincides.  This module
holds everything both engines share — the :class:`Semiring` algebra,
the :class:`HexCell` processor, the stream geometry, and the
pulse-level network builder — so the operator layer
(:mod:`repro.arrays.hexagonal`) only states the problem.

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
from typing import Any, Callable, Optional, Sequence

from repro.systolic.cell import Cell, PortMap
from repro.systolic.streams import ScheduleFeeder
from repro.systolic.values import Token
from repro.systolic.wiring import Network

__all__ = [
    "Semiring",
    "COMPARISON_SEMIRING",
    "BOOLEAN_SEMIRING",
    "HexCell",
    "U_A",
    "U_B",
    "U_C",
    "a_start",
    "b_start",
    "c_start",
    "meeting_cell",
    "hex_horizon",
    "hex_positions",
    "hex_cell_name",
    "hex_tap_name",
    "build_hex_network",
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


class HexCell(Cell):
    """One hexagonal-mesh processor: three pass-through streams.

    When tokens are present on all three inputs the cell performs the
    semiring step on the ``c`` value; any other combination just
    forwards what arrived (tokens passing through without a scheduled
    meeting).
    """

    IN_PORTS = ("a_in", "b_in", "c_in")
    OUT_PORTS = ("a_out", "b_out", "c_out")

    def __init__(self, name: str, semiring: Semiring) -> None:
        super().__init__(name)
        self.semiring = semiring

    def step(self, inputs: PortMap) -> dict[str, Optional[Token]]:
        a = inputs.get("a_in")
        b = inputs.get("b_in")
        c = inputs.get("c_in")
        outputs: dict[str, Optional[Token]] = {}
        if a is not None:
            outputs["a_out"] = a
        if b is not None:
            outputs["b_out"] = b
        if c is not None:
            if a is not None and b is not None:
                self._check_tags(a, b, c)
                updated = self.semiring.combine(
                    c.value, self.semiring.interact(a.value, b.value)
                )
                outputs["c_out"] = Token(updated, c.tag)
            else:
                outputs["c_out"] = c
        return outputs

    def _check_tags(self, a: Token, b: Token, c: Token) -> None:
        a_tag, b_tag, c_tag = a.tag, b.tag, c.tag
        if not (
            isinstance(a_tag, tuple) and len(a_tag) == 3 and a_tag[0] == "a"
            and isinstance(b_tag, tuple) and len(b_tag) == 3 and b_tag[0] == "b"
            and isinstance(c_tag, tuple) and len(c_tag) == 3 and c_tag[0] == "c"
        ):
            return
        _, a_i, a_k = a_tag
        _, b_k, b_j = b_tag
        _, c_i, c_j = c_tag
        if a_k != b_k or a_i != c_i or b_j != c_j:
            raise self.protocol_error(
                f"unscheduled triple met: a={a_tag!r} b={b_tag!r} c={c_tag!r}"
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


def hex_cell_name(pos: tuple[int, int]) -> str:
    """Canonical name of the hex processor at lattice position ``pos``."""
    return f"hex[{pos[0]},{pos[1]}]"


def hex_tap_name(pos: tuple[int, int]) -> str:
    """Canonical tap name for a ``c``-stream exit at ``pos``."""
    return f"c@{pos[0]},{pos[1]}"


def build_hex_network(
    a_rows: Sequence[Sequence[Any]],
    b_cols: Sequence[Sequence[Any]],
    semiring: Semiring,
    tagged: bool = True,
) -> tuple[Network, dict[tuple[int, int], str]]:
    """Assemble the hex mesh with feeders and final-meeting taps.

    Returns the network plus the tap map (final meeting position →
    tap name); :func:`repro.arrays.decode.hex_products` reads ``C`` off
    those taps.
    """
    n_a, n_b = len(a_rows), len(b_cols)
    m = len(a_rows[0])
    positions = hex_positions(n_a, n_b, m)

    network = Network("hexagonal-array")
    for pos in positions:
        network.add(HexCell(hex_cell_name(pos), semiring))
    for pos in positions:
        for direction, out_port, in_port in (
            (U_A, "a_out", "a_in"), (U_B, "b_out", "b_in"), (U_C, "c_out", "c_in"),
        ):
            neighbour = _vadd(pos, direction)
            if neighbour in positions:
                network.connect(hex_cell_name(pos), out_port,
                                hex_cell_name(neighbour), in_port)

    # Feeders: every token is injected at its start cell on pulse 0.
    # (Start positions are injective per stream — see the tests — so no
    # two tokens contend for one feeder slot.)
    schedules: dict[tuple[str, str], dict[int, Token]] = {}

    def schedule_injection(pos, port, token):
        key = (hex_cell_name(pos), port)
        schedules.setdefault(key, {})[0] = token

    for i in range(n_a):
        for k in range(m):
            schedule_injection(
                a_start(i, k), "a_in",
                Token(a_rows[i][k], ("a", i, k) if tagged else None),
            )
    for j in range(n_b):
        for k in range(m):
            schedule_injection(
                b_start(k, j), "b_in",
                Token(b_cols[j][k], ("b", k, j) if tagged else None),
            )
    for i in range(n_a):
        for j in range(n_b):
            schedule_injection(
                c_start(i, j), "c_in",
                Token(semiring.identity, ("c", i, j) if tagged else None),
            )
    for (name, port), schedule in schedules.items():
        network.feed(name, port, ScheduleFeeder(schedule), merge=True)

    # Taps: the cell of each c stream's final meeting (k = m−1).
    taps: dict[tuple[int, int], str] = {}
    for i in range(n_a):
        for j in range(n_b):
            pos = meeting_cell(i, j, m - 1)
            if pos not in taps:
                tap_name = hex_tap_name(pos)
                network.tap(tap_name, hex_cell_name(pos), "c_out")
                taps[pos] = tap_name
    return network, taps
