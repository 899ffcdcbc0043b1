"""The register stepper: every cell of an array advanced one clock at a
time, as a handful of numpy operations.

The paper's array is "a synchronous grid of identical, trivially simple
processors" (§2.1–§2.2): on a pulse every processor latches its inputs,
does the same short computation, and hands its outputs to its
neighbours.  Most wires move data one cell a pulse whatever it holds, so
a latch ``d`` cells from the edge holds what the edge was fed ``d``
pulses earlier ("all of the data must be in the right place at the
right time", §3.1).  A run is therefore cut into windows of pulses,
each stepped in two passes:

    feed-forward, in bulk — every such wire family is a strided view of
    its boundary feed's delay line (the θ grid's ``t`` ghosts, which
    start wherever a pair first meets, take one pass per column); the
    cell functions and every protocol and ghost-tag check are array
    operations over the whole window →
    feedback, along the short axis — each register whose value depends
    on an earlier pulse (``t``'s value, the accumulators, the division
    array's AND sweep) also moves one position a pulse, so
    :func:`_advance` steps it a whole column, row or divisor cell at a
    time when its path is no longer than the window, and a whole pulse
    at a time otherwise.

Each wire's latch is a value plus an integer *ghost* that doubles as the
presence bit: ``-1`` is an empty wire, anything else names the datum
riding there (tuple index ``i`` for an ``a`` element or a descending
accumulator, ``j`` for ``b``, ``i·n_b + j`` for a travelling ``t``, the
pair number in the division array).  Ghosts are always carried, so the
cells' tag cross-checks run on every plan, tagged or not; ``tagged``
only decides whether the taps report them.  (An element's column
position is not carried: elements move only vertically, so it is the
column they sit in.)  The checks read ghosts only, so they depend on the
schedule alone: a window's first fault is raised at the pulse and cell,
and with the message, the cell network stops at.  An empty wire's value
is never read.

This is a pulse-by-pulse simulation and an independent oracle: it reads
only the *input* side of a schedule — element entry pulses, the ``t``
injection law, accumulator seeds, the AND sweep's injection — exactly
what :mod:`~repro.systolic.engine.materialize` reads to build feeders.
Results exist only because a present token sat on a tapped output on
some pulse, and each tapped edge hands back one table of them (a
:class:`~repro.systolic.engine.plan.ColumnarTap` with a position
column); where and when that should have happened is for the decoders
of :mod:`repro.arrays.decode` to audit.  The hand-wired cell
network (:mod:`~repro.systolic.simulator`) is the reference this module
is held to, record for record and fault message for fault message
(``tests/systolic/test_register_stepper.py``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Callable, Optional

import numpy as np

from repro.errors import SimulationError
from repro.relational.algebra import COMPARISON_OPS
from repro.systolic.engine.plan import (
    ColumnarTap,
    DivisionPlan,
    ExecutionPlan,
    GridPlan,
    TInit,
    acc_name,
    cmp_name,
    operand_matrix,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine.schedule import CounterStreamSchedule

__all__ = ["step_plan"]

_OPS = tuple(COMPARISON_OPS)
_UNKNOWN_OP = len(_OPS)
#: ``_ANSWER[code, state]``: what op ``_OPS[code]`` answers when the
#: elements compare as state 0 (a < b), 1 (a == b) or 2 (a > b); the
#: last row stands for an unknown op code, which is refused in flight.
_ANSWER = np.array(
    [[COMPARISON_OPS[op](state, 1) for state in (0, 1, 2)] for op in _OPS]
    + [[False] * 3]
)
#: Pulses a window × cells of the array's main plane (the comparison grid,
#: the divisor rows): the bulk planes of a window stay cache-sized, and a
#: run's memory is bounded whatever its length.
_WINDOW_CELLS = 1 << 16


def step_plan(plan: ExecutionPlan) -> dict[str, ColumnarTap]:
    """Step a grid or division plan through all its pulses and return
    what left each tapped edge, as one table an edge (every tap of the
    plan, empty ones included)."""
    if isinstance(plan, GridPlan):
        return _step_grid(plan)
    if isinstance(plan, DivisionPlan):
        return _step_division(plan)
    raise SimulationError(f"unknown plan type {type(plan).__name__}")


# -- delay lines, windows, tapped edges, faults -------------------------------


class _DelayLine:
    """One boundary input stream as a delay line: ghost, value and
    presence tables with an entry per pulse and position of the fed edge
    (``lag`` empty pulses before pulse 0, one after the last).  Tokens
    come as broadcastable (pulses, where, ghost, value); of two that
    reach one position on one pulse the later in feed order wins, as in
    the cell network's ``{pulse: token}`` feeders.  Each position's
    pulses are contiguous, or with ``pulse_major`` each pulse's
    positions: whichever the planes' last axis walks."""

    def __init__(self, horizon: int, edge: int, lag: int, pulses, where,
                 ghost, value, pulse_major: bool = False) -> None:
        pulses = np.asarray(pulses)

        def per_token(column) -> np.ndarray:
            column = np.asarray(column)
            if column.shape == pulses.shape:
                return column.ravel()
            # np.broadcast_to costs ten times this on a small array.
            full = np.empty(pulses.shape, column.dtype)
            full[...] = column
            return full.ravel()

        stamps, where, ghost, value = map(
            per_token, (pulses, where, ghost, value)
        )
        if stamps.min() < 0:
            raise SimulationError(f"schedule pulse {stamps.min()} is negative")
        rows = lag + horizon + 1
        # Elements from one pulse to the next, one position to the next.
        pulse, position = (edge, 1) if pulse_major else (1, rows)
        self._steps = (pulse, position)
        self._lag = lag
        ghosts = np.full(rows * edge, -1)
        values = np.zeros(rows * edge, value.dtype)
        token = np.flatnonzero(stamps < horizon)
        slot = (lag + stamps[token]) * pulse + where[token] * position
        # The last token fed to a slot wins: np.maximum.at is defined on
        # repeated slots, where ``[slot] = token`` is not.
        np.maximum.at(ghosts, slot, token)
        last = ghosts[slot] == token
        slot, token = slot[last], token[last]
        ghosts[slot], values[slot] = ghost[token], value[token]
        self._tables = (ghosts, values, ghosts >= 0)

    def window(self, lo: int, shape: tuple[int, ...], delay: int, *axes):
        """``(ghost, value, present)`` on pulses ``lo, lo + 1, …`` (axis
        0 of ``shape``) at the wires of ``shape[1:]``, as strided views:
        the wire at index ``(k₁, k₂, …)`` sits ``delay + Σ dᵢ·kᵢ`` cells
        downstream of edge position ``Σ eᵢ·kᵢ``, ``axes`` giving each
        ``(dᵢ, eᵢ)``.  (``np.ndarray`` checks the view's bounds.)"""
        pulse, position = self._steps
        steps = (pulse, *(e * position - d * pulse for d, e in axes))
        return tuple(
            np.ndarray(
                shape, table.dtype, table,
                (self._lag + lo - delay) * pulse * table.itemsize,
                tuple(step * table.itemsize for step in steps),
            )
            for table in self._tables
        )


def _windows(pulses: int, cells: int) -> list[tuple[int, int]]:
    """The run's pulses cut into windows of ``[lo, hi)``, at least one
    pulse long."""
    width = max(1, _WINDOW_CELLS // cells)
    return [(lo, min(lo + width, pulses)) for lo in range(0, pulses, width)]


def _advance(op, v: np.ndarray, x: np.ndarray) -> None:
    """Advance a moving value register over a window:
    ``v[w + 1, l + 1] = op(v[w, l], x[w, l])``.

    ``v`` is ``(W + 1, L + 1, …)`` — the window's pulses (row 0: the
    value carried from the last window) by the ``L`` positions along
    the register's path (column 0: what enters the path), then any axes
    it does not move along — and ``x`` is ``(W, L, …)``, what each latch
    is combined with.  The value moves one position a pulse, so a whole
    position (or a whole pulse) is one call: the loop walks whichever
    axis is shorter."""
    W, L = x.shape[:2]
    if L <= W:
        for at in range(L):
            op(v[:W, at], x[:, at], out=v[1:, at + 1])
    else:
        for w in range(W):
            op(v[w, :L], x[w], out=v[w + 1, 1:])


@lru_cache(maxsize=16)
def _meetings(
    kind: type, schedule: CounterStreamSchedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair's ``(i, j, row)`` on a counter-streaming grid, row by
    row in the order ``schedule.row_pairs`` lists them.  A frozen
    schedule's meetings depend on its class and sizes only, so each is
    listed once; ``kind`` keeps a subclass that rewrites a law apart
    from its base."""
    met = [schedule.row_pairs(row) for row in range(schedule.rows)]
    row = np.repeat(np.arange(schedule.rows), [len(pairs) for pairs in met])
    i, j = np.fromiter(
        chain.from_iterable(chain.from_iterable(met)), np.int64
    ).reshape(-1, 2).T
    for column in (i, j, row):
        column.flags.writeable = False
    return i, j, row


def _seeds(t_init: TInit, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The initial ``t`` of every pair ``(i, j)``: one array operation
    for the canonical seeds, a call a pair for any other."""
    if t_init is t_init_true:
        return np.ones(np.broadcast(i, j).shape, bool)
    if t_init is t_init_strict_lower:
        return j < i
    return np.frompyfunc(t_init, 2, 1)(i, j).astype(bool)


class _Taps:
    """What left a tapped edge: the (pulse, position, ghost, value) of
    every token, in pulse order."""

    _NONE = (np.empty(0, np.int64),) * 3 + (np.empty(0, bool),)

    def __init__(self) -> None:
        self._records = [self._NONE]

    def capture(self, lo: int, ghost, value) -> None:
        """Pulses ``lo, lo + 1, …`` of the edge: ``(pulses, edge)``."""
        at, where = (ghost >= 0).nonzero()
        if at.size:
            self._records.append(
                (lo + at, where, ghost[at, where], value[at, where])
            )

    def table(
        self,
        name: str,
        width: Optional[int],
        tag_kind: Optional[str],
        tag_indices: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    ) -> ColumnarTap:
        """The edge's :class:`ColumnarTap` table (``width`` None: an
        edge that is one tap); ``tag_indices`` unpacks ghosts into the
        tag's index columns (``tag_kind`` None: an untagged plan, whose
        records carry no tag)."""
        pulses, where, ghost, value = map(np.concatenate, zip(*self._records))
        return ColumnarTap(
            name, pulses, value, tag_kind,
            tag_indices(ghost) if tag_kind is not None else (),
            positions=where if width is not None else None, width=width,
        )


def _fault(pulse: int, cell: str, message: str) -> SimulationError:
    """A protocol violation, worded as the cell network words it."""
    return SimulationError(f"pulse {pulse}: cell {cell!r}: {message}")


def _first(bad: np.ndarray) -> tuple[int, ...]:
    """The first offending cell in the order a network steps its cells
    (of a window: on its first pulse with a fault)."""
    return tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))


# -- the rectangular grid (Figs 3-1, 3-3, 4-1, 6-1) ---------------------------


def _step_grid(plan: GridPlan):
    sched = plan.schedule
    n_a, n_b, R, C, P = sched.n_a, sched.n_b, plan.rows, plan.cols, plan.pulses
    A = operand_matrix(plan.a_tuples, n_a, C, "pulse", "A")
    B = operand_matrix(plan.b_tuples, n_b, C, "pulse", "B")
    I, J, K = np.arange(n_a)[:, None], np.arange(n_b)[:, None], np.arange(C)
    counter = plan.variant == "counter"

    # a moves down from row 0 and b up from row R − 1, so cell (r, c)
    # latches what column c was fed r (or R − 1 − r) pulses earlier; t
    # moves right from column 0, the accumulators down from acc[0].
    # Planes are column by column, rows innermost: [pulse, column, row].
    # a's ghost rides as its pair's row offset i·n_b, so a pair is a sum.
    a_line = _DelayLine(P, C, R, sched.a_entry_pulse(I, K), K, I * n_b, A)
    if counter:
        b_line = _DelayLine(P, C, R, sched.b_entry_pulse(J, K), K, J, B)
    else:  # §8: b_row is preloaded into row ``row`` and never moves
        b_g, b_v, b_p = J.T, B.T, True

    ops, dynamic = plan.ops, plan.dynamic_ops
    if ops is None:
        if counter:
            i, j, row = _meetings(type(sched), sched)
        else:
            i, j, row = I, J.T, J.T
        seeds = _seeds(plan.t_init, i, j)
        t_line = _DelayLine(
            P, R, C + 1, sched.t_init_pulse(i, j), row, i * n_b + j, seeds,
            pulse_major=True,
        )
    else:
        codes = np.array(
            [_OPS.index(op) if op in _OPS else _UNKNOWN_OP for op in ops]
        )
        if dynamic:  # §6.3.2: the op code rides down beside its a element
            op_line = _DelayLine(
                P, C, R, sched.a_entry_pulse(I, K), K, I, codes
            )
        elif _UNKNOWN_OP in codes:
            k = codes.tolist().index(_UNKNOWN_OP)
            raise SimulationError(
                f"cell {cmp_name(0, k)!r}: unknown comparison operator "
                f"{ops[k]!r}; have {sorted(COMPARISON_OPS)}"
            )
        else:  # preloaded: every cell of column k holds ops[k]
            op_g, op_v = None, codes[:, None]

    if plan.accumulate:
        seed_line = _DelayLine(
            P, 1, R, sched.accumulator_seed_pulse(I), 0, I, np.False_
        )
    row_taps, acc_taps = _Taps(), _Taps()
    # Carried from window to window: t's latches (column C: each row's
    # output wire) — values, and the θ grid's ghosts — and the
    # accumulators' values.
    t_v, t_g, top_v = np.ones((C + 1, R), bool), np.full((C + 1, R), -1), False

    for lo, hi in _windows(P, R * C):
        W = hi - lo
        a_g, a_v, a_p = a_line.window(lo, (W, C, R), 0, (0, 1), (1, 0))
        if counter:
            b_g, b_v, b_p = b_line.window(
                lo, (W, C, R), R - 1, (0, 1), (-1, 0)
            )
        both = a_p & b_p
        # t's latches on pulses lo … hi: [w, c] is column c's input on
        # pulse lo + w, [w, C] the row's output on the pulse before.
        v = np.empty((W + 1, C + 1, R), bool)
        v[0] = t_v
        if ops is None:
            # Fig 3-2: a partial result rides with exactly the element
            # pair it claims to compare, and every pair with one; so its
            # ghost is the left edge's feed, one pulse later a column.
            g, fed, t_p = t_line.window(
                lo, (W + 1, C + 1, R), 0, (1, 0), (0, 1)
            )
            v[:W, 0] = fed[:W, 0]
            bad = (t_p[:W, :C] > both) | (both & (g[:W, :C] != a_g + b_g))
            gate = a_v == b_v
        else:
            # Fig 6-1: the pair originates t (column 0) or ANDs into it.
            pair = np.where(both, a_g + b_g, -1)
            g = np.empty((W + 1, C + 1, R), np.int64)
            g[0], g[:, 0] = t_g, -1
            for c in range(C):
                t_in = g[:W, c]
                g[1:, c + 1] = np.where(t_in >= 0, t_in, pair[:, c])
            t_p = g >= 0
            bad = t_p[:W, :C] & ~both
            if dynamic:
                op_g, op_v, op_p = op_line.window(
                    lo, (W, C, R), 0, (0, 1), (1, 0)
                )
                bad |= a_p != op_p
                bad |= both & (op_v == _UNKNOWN_OP)
            state = (a_v >= b_v).view(np.int8) + (a_v > b_v)
            # t_out = answer ∧ (t_in ∨ no t_in): an empty t wire holds
            # TRUE, so one AND a pulse computes it.
            gate = _ANSWER[op_v, state] | ~t_p[1:, 1:]
            v[:, 0] = True

        first = _first(bad)[0] if bad.any() else W
        if plan.accumulate:
            # Fig 4-1: the row result of a pulse ago merges into the
            # descending t_i of the tuple it belongs to.  (Within a
            # pulse, the cells' fault comes first.)
            top_g, _, _ = seed_line.window(lo, (W, R), 0, (1, 0))
            left_g, left_p = g[:W, C], t_p[:W, C]
            bad_acc = np.where(left_p, left_g // n_b, top_g) != top_g
            w = _first(bad_acc)[0] if bad_acc.any() else W
            if w < first:
                raise _accumulator_fault(
                    lo + w, bad_acc[w], left_g[w], top_g[w], n_b
                )
        if first < W:
            w = first
            if ops is None:
                raise _comparison_fault(
                    lo + w, g[w, :C].T, a_g[w].T // n_b,
                    np.broadcast_to(b_g, a_g.shape)[w].T, n_b,
                )
            raise _theta_fault(
                lo + w, bad[w].T, a_p[w].T,
                None if op_g is None else op_g[w].T, both[w].T, ops,
            )

        _advance(np.logical_and, v, gate)
        t_v, t_g = v[W], g[W]
        if plan.row_taps:
            row_taps.capture(lo, g[1:, C], v[1:, C])
        if plan.accumulate:
            into = v[:W, C] & left_p
            top = np.empty((W + 1, R + 1), bool)
            top[0], top[:, 0] = top_v, False  # every seed is FALSE
            _advance(np.logical_or, top, into)
            top_v = top[W]
            acc_taps.capture(lo, top_g[:, R - 1:], top[1:, R:])

    taps: dict[str, ColumnarTap] = {}
    if plan.row_taps:
        taps["t_row"] = row_taps.table(
            "t_row", R, "t" if plan.tagged else None,
            lambda ghost: divmod(ghost, n_b),
        )
    if plan.accumulate:
        taps["t_i"] = acc_taps.table(
            "t_i", None, "acc" if plan.tagged else None,
            lambda ghost: (ghost,),
        )
    return taps


def _comparison_fault(pulse, t_g, a_g, b_g, n_b):
    pair = np.where((a_g >= 0) & (b_g >= 0), a_g * n_b + b_g, -1)
    r, c = _first(t_g != pair)
    t, a, b = int(t_g[r, c]), int(a_g[r, c]), int(b_g[r, c])
    if t < 0:
        message = ("elements met with no partial result on t_in — the t "
                   "injection schedule missed this meeting")
    elif a < 0 or b < 0:
        message = ("a partial result arrived without an element pair to "
                   "compare — the input schedule is mis-staggered")
    elif t // n_b != a:
        message = f"t claims tuple a_{t // n_b} but element is {('a', a, c)!r}"
    else:
        message = f"t claims tuple b_{t % n_b} but element is {('b', b, c)!r}"
    return _fault(pulse, cmp_name(r, c), message)


def _theta_fault(pulse, bad, a_p, op_g, both, ops):
    r, c = _first(bad)
    if op_g is None:
        message = ("a partial join result arrived without an element pair — "
                   "the join-column schedule is mis-staggered")
    elif a_p[r, c] != (op_g[r, c] >= 0):
        message = ("the op code must travel with relation A's element — "
                   "one arrived without the other")
    elif both[r, c]:
        message = f"unknown op code {ops[c]!r} arrived on op_in"
    else:
        message = "a partial join result arrived without an element pair"
    return _fault(pulse, cmp_name(r, c), message)


def _accumulator_fault(pulse, bad, left_g, top_g, n_b):
    (r,) = _first(bad)
    left, top = int(left_g[r]), int(top_g[r])
    if top < 0:
        message = ("a row result arrived from the left with no descending "
                   "accumulator to merge into — t_i injection is misaligned")
    else:
        message = (f"row result {('t', *divmod(left, n_b))!r} merged into "
                   f"accumulator {('acc', top)!r}")
    return _fault(pulse, acc_name(r), message)


# -- the division array (Fig 7-2) ---------------------------------------------


def _step_division(plan: DivisionPlan):
    sched = plan.schedule
    n, R, S, P = sched.n_pairs, sched.p_rows, sched.n_divisor, plan.pulses
    pairs = operand_matrix(plan.pairs, n, 2, "pulse", "dividend")
    stored_x = np.asarray(plan.distinct_x, dtype=np.int64)
    stored_y = np.asarray(plan.divisor, dtype=np.int64)[:, None]
    Q, ROWS = np.arange(n), np.arange(R)

    # x and y climb from the bottom row; dg[r] passes y and its x's match
    # bit (false: the explicit null) into divisor row r, where they and
    # the AND sweep move right.  Planes are [pulse, divisor column, row].
    x_line = _DelayLine(P, 1, R + S, sched.x_entry_pulse(Q), 0, Q, pairs[:, 0])
    y_line = _DelayLine(P, 1, R + S, sched.y_entry_pulse(Q), 0, Q, pairs[:, 1])
    and_line = _DelayLine(
        P, R, S, sched.and_inject_pulse(ROWS), ROWS, ROWS, np.True_,
        pulse_major=True,
    )
    taps = _Taps()
    # Carried from window to window: each dv cell's sticky flag, and the
    # AND sweep's values (column S: the row's output wire).
    seen, sweep = np.zeros((S, R), bool), np.ones((S + 1, R), bool)

    for lo, hi in _windows(P, R * S):
        W = hi - lo
        x_g, _, _ = x_line.window(lo - 1, (W + 1, R), R - 1, (-1, 0))
        y_g, _, _ = y_line.window(lo, (W, R), R - 1, (-1, 0))
        # dg: y arrives together with the match bit of its own pair —
        # the one of the x that left dm the pulse before.
        bad = y_g != x_g[:W]
        if bad.any():
            w = _first(bad)[0]
            raise _gate_fault(lo + w, y_g[w], x_g[w])
        # dv[r, s] latches the gated y that left dg[r] s + 1 pulses ago,
        # and the match bit of its x, which left dm[r] one pulse earlier.
        _, g_v, g_p = y_line.window(lo, (W, S, R), R, (1, 0), (-1, 0))
        _, x_v, _ = x_line.window(lo, (W, S, R), R + 1, (1, 0), (-1, 0))
        sighted = g_p & (x_v == stored_x) & (g_v == stored_y)
        sighted[0] |= seen
        sighted = np.logical_or.accumulate(sighted, axis=0)
        and_g, _, _ = and_line.window(lo, (W, S, R), 0, (1, 0), (0, 1))

        v = np.empty((W + 1, S + 1, R), bool)
        v[0], v[:, 0] = sweep, True  # the sweep enters TRUE
        _advance(np.logical_and, v, sighted)
        seen, sweep = sighted[W - 1], v[W]
        taps.capture(lo, and_g[:, S - 1], v[1:, S])

    return {"and_row": taps.table(
        "and_row", R, "and" if plan.tagged else None, lambda ghost: (ghost,),
    )}


def _gate_fault(pulse, y_g, m_g):
    (row,) = _first(y_g != m_g)
    y, t = int(y_g[row]), int(m_g[row])
    if y < 0 or t < 0:
        message = ("y and its match bit must arrive together — the pair "
                   "stream is mis-staggered")
    else:
        message = f"y of pair {y} met the match bit of pair {t}"
    return _fault(pulse, f"dg[{row}]", message)
