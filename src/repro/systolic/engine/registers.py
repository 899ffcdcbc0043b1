"""The register stepper: every cell of an array advanced one clock at a
time, as a handful of numpy operations.

The paper's array is "a synchronous grid of identical, trivially simple
processors" (§2.1–§2.2): on a pulse every processor latches its inputs,
does the same short computation, and hands its outputs to its
neighbours.  So the whole array's state is a few register planes — one
per wire family — and one pulse is

    inject the boundary feeds → one vectorized cell function (protocol
    and ghost-tag checks included) → move every register one cell by
    slice assignment → capture what sits on the tapped edge.

Each wire's latch is a value array plus an integer *ghost* array that
doubles as the presence bit: ``-1`` is an empty wire, anything else
names the datum riding there (tuple index ``i`` for an ``a`` element or
a descending accumulator, ``j`` for ``b``, ``i·n_b + j`` for a
travelling ``t``, the pair number in the division array).  Ghosts are
always carried, so the cells' tag cross-checks run on every plan,
tagged or not; ``tagged`` only decides whether the taps report them.
(An element's column position is not carried: elements move only
vertically, so it is the column they sit in.)

This is a pulse-by-pulse simulation and an independent oracle: it reads
only the *input* side of a schedule — element entry pulses, the ``t``
injection law, accumulator seeds, the AND sweep's injection — exactly
what :mod:`~repro.systolic.engine.materialize` reads to build feeders.
Results exist only because a present token sat on a tapped output on
some pulse; where and when that should have happened is for the
decoders of :mod:`repro.arrays.decode` to audit.  The hand-wired cell
network (:mod:`~repro.systolic.simulator`) is the reference this module
is held to, record for record and fault message for fault message
(``tests/systolic/test_register_stepper.py``).
"""

from __future__ import annotations

from dataclasses import replace
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
    LinearPlan,
    acc_name,
    cmp_name,
    operand_matrix,
)
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.systolic.metrics import ActivityMeter

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


def step_plan(
    plan: ExecutionPlan, meter: Optional[ActivityMeter] = None
) -> dict[str, ColumnarTap]:
    """Step a grid, linear or division plan through all its pulses and
    return what left each tap (every tap of ``plan.tap_names()``, empty
    ones included); per-cell busy-pulse counts go to ``meter``."""
    metered = meter is not None
    if isinstance(plan, GridPlan):
        taps, busy = _step_grid(plan, metered, cmp_name)
    elif isinstance(plan, LinearPlan):
        # Fig 3-1 is the grid of one tuple against one tuple: same
        # stagger, same seed on pulse 0, one row whose tap is ``t``.
        grid = GridPlan(
            [plan.a], [plan.b], CounterStreamSchedule(1, 1, plan.arity),
            t_init=lambda i, j: plan.seed, row_taps=True, tagged=plan.tagged,
        )
        taps, busy = _step_grid(grid, metered, lambda row, k: f"cmp[{k}]")
        taps = {"t": replace(taps["t_row[0]"], name="t")}
    elif isinstance(plan, DivisionPlan):
        taps, busy = _step_division(plan, metered)
    else:
        raise SimulationError(f"unknown plan type {type(plan).__name__}")
    if metered:
        # ``busy``: one (cell namer, busy-count plane) per cell family.
        meter.absorb(
            {
                name_of(*at): int(count)
                for name_of, plane in busy
                for at, count in np.ndenumerate(plane)
                if count
            },
            plan.pulses, plan.cells,
        )
    return taps


# -- boundary feeds, tapped edges, operands, faults ---------------------------


class _Feed:
    """One boundary input stream, bucketed by pulse: on pulse ``p`` its
    tokens of that pulse land on positions ``where`` of the fed edge and
    the rest of the edge is an empty wire.  ``pulses`` has one entry per
    token; ``where``, ``ghost`` and ``value`` broadcast against it."""

    def __init__(self, horizon: int, pulses, where, ghost, value) -> None:
        order = np.argsort(pulses, axis=None, kind="stable")
        stamps = pulses.ravel()[order]
        if stamps[0] < 0:
            raise SimulationError(f"schedule pulse {stamps[0]} is negative")
        self._bounds = np.searchsorted(
            stamps, np.arange(horizon + 1)
        ).tolist()

        def per_token(column) -> np.ndarray:
            # np.broadcast_to costs ten times this on a small array.
            full = np.empty(pulses.shape, np.asarray(column).dtype)
            full[...] = column
            return full.ravel()[order]

        self._where, self._ghost, self._value = (
            per_token(where), per_token(ghost), per_token(value)
        )

    def inject(self, pulse: int, edge_g, edge_v) -> None:
        edge_g[...] = -1
        lo, hi = self._bounds[pulse], self._bounds[pulse + 1]
        if lo < hi:
            where = self._where[lo:hi]
            edge_g[where] = self._ghost[lo:hi]
            edge_v[where] = self._value[lo:hi]


class _Taps:
    """What left a tapped edge (one tap per edge position): the (pulse,
    position, ghost, value) of every token, in pulse order."""

    _NONE = (np.empty(0, np.int64),) * 3 + (np.empty(0, bool),)

    def __init__(self) -> None:
        self._records = [self._NONE]

    def capture(self, pulse: int, edge_g, edge_v) -> None:
        (where,) = (edge_g >= 0).nonzero()
        if where.size:
            stamps = np.full(where.size, pulse)
            self._records.append((stamps, where, edge_g[where], edge_v[where]))

    def columnar(
        self,
        names: list[str],
        tag_kind: Optional[str],
        tag_indices: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    ) -> dict[str, ColumnarTap]:
        """One :class:`ColumnarTap` per edge position; ``tag_indices``
        unpacks ghosts into the tag's index columns (``tag_kind`` None:
        an untagged plan, whose records carry no tag)."""
        pulses, where, ghost, value = map(np.concatenate, zip(*self._records))
        order = np.argsort(where, kind="stable")
        pulses, ghost, value = pulses[order], ghost[order], value[order]
        bounds = np.searchsorted(
            where[order], np.arange(len(names) + 1)
        ).tolist()
        indices = tag_indices(ghost) if tag_kind is not None else ()
        return {
            name: ColumnarTap(
                name, pulses[lo:hi], value[lo:hi], tag_kind,
                tuple(column[lo:hi] for column in indices),
            )
            for name, lo, hi in zip(names, bounds, bounds[1:])
        }


def _fault(pulse: int, cell: str, message: str) -> SimulationError:
    """A protocol violation, worded as the cell network words it."""
    return SimulationError(f"pulse {pulse}: cell {cell!r}: {message}")


def _first(bad: np.ndarray) -> tuple[int, ...]:
    """The first offending cell in the order a network steps its cells."""
    return tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))


# -- the rectangular grid (Figs 3-1, 3-3, 4-1, 6-1) ---------------------------


def _step_grid(
    plan: GridPlan, metered: bool, name_of: Callable[[int, int], str]
):
    sched = plan.schedule
    n_a, n_b, R, C, P = sched.n_a, sched.n_b, plan.rows, plan.cols, plan.pulses
    A = operand_matrix(plan.a_tuples, n_a, C, "pulse", "A")
    B = operand_matrix(plan.b_tuples, n_b, C, "pulse", "B")
    I, J, K = np.arange(n_a)[:, None], np.arange(n_b)[:, None], np.arange(C)
    counter = plan.variant == "counter"

    # Wire (r, c) of a plane is the input latch of cell (r, c); the extra
    # column of the t plane is each row's right-edge output wire.
    a_g, a_v = np.full((R, C), -1), np.zeros((R, C), A.dtype)
    b_g, b_v = np.full((R, C), -1), np.zeros((R, C), B.dtype)
    t_g, t_v = np.full((R, C + 1), -1), np.zeros((R, C + 1), bool)
    t_in_g, t_in_v = t_g[:, :C], t_v[:, :C]
    a_feed = _Feed(P, sched.a_entry_pulse(I, K), K, I, A)
    if counter:
        b_feed = _Feed(P, sched.b_entry_pulse(J, K), K, J, B)
    else:  # §8: b_row is preloaded into row ``row`` and never moves
        b_g[:], b_v[:] = J, B

    t_feed = None
    if plan.t_init is not None:
        if counter:
            met = [sched.row_pairs(row) for row in range(R)]
            row = np.repeat(np.arange(R), [len(pairs) for pairs in met])
            i, j = np.array(
                list(chain.from_iterable(met)), dtype=np.int64
            ).reshape(-1, 2).T
        else:
            i, j, row = I, J.T, J.T
        seeds = np.frompyfunc(lambda i, j: bool(plan.t_init(i, j)), 2, 1)
        t_feed = _Feed(
            P, sched.t_init_pulse(i, j), row, i * n_b + j,
            seeds(i, j).astype(bool),
        )

    ops, dynamic = plan.ops, plan.dynamic_ops
    if ops is not None:
        codes = np.array(
            [_OPS.index(op) if op in _OPS else _UNKNOWN_OP for op in ops]
        )
        if dynamic:  # §6.3.2: the op code rides down beside its a element
            op_g, op_v = np.full((R, C), -1), np.zeros((R, C), np.int64)
            op_feed = _Feed(P, sched.a_entry_pulse(I, K), K, I, codes)
        elif _UNKNOWN_OP in codes:
            k = codes.tolist().index(_UNKNOWN_OP)
            raise SimulationError(
                f"cell {name_of(0, k)!r}: unknown comparison operator "
                f"{ops[k]!r}; have {sorted(COMPARISON_OPS)}"
            )
        else:  # preloaded: every cell of column k holds ops[k]
            op_g, op_v = None, codes[None, :]

    if plan.accumulate:
        # Wire r is acc[r]'s descending input, wire R the bottom output.
        top_g, top_v = np.full(R + 1, -1), np.zeros(R + 1, bool)
        top_in = top_g[:R]
        seed_feed = _Feed(P, sched.accumulator_seed_pulse(I), 0, I, np.False_)
    row_taps, acc_taps = _Taps(), _Taps()
    busy, acc_busy = np.zeros((R, C), np.int64), np.zeros(R, np.int64)

    for pulse in range(P):
        a_feed.inject(pulse, a_g[0], a_v[0])
        if counter:
            b_feed.inject(pulse, b_g[R - 1], b_v[R - 1])
        if t_feed is not None:
            t_feed.inject(pulse, t_g[:, 0], t_v[:, 0])
        if dynamic:
            op_feed.inject(pulse, op_g[0], op_v[0])

        a_p, b_p = a_g >= 0, b_g >= 0
        both = a_p & b_p
        pair = np.where(both, a_g * n_b + b_g, -1)
        if ops is None:
            # Fig 3-2: a partial result rides with exactly the element
            # pair it claims to compare, and every pair with one.
            if (t_in_g != pair).any():
                raise _comparison_fault(
                    pulse, t_in_g, a_g, b_g, pair, n_b, name_of
                )
            out_g, out_v = t_in_g, t_in_v & (a_v == b_v)
        else:
            # Fig 6-1: the pair originates t (column 0) or ANDs into it.
            t_p = t_in_g >= 0
            bad = t_p & ~both
            if dynamic:
                bad |= a_p != (op_g >= 0)
                bad |= both & (op_v == _UNKNOWN_OP)
            if bad.any():
                raise _theta_fault(pulse, bad, a_p, op_g, both, ops, name_of)
            state = (a_v >= b_v).view(np.int8) + (a_v > b_v)
            out_g = np.where(t_p, t_in_g, pair)
            out_v = _ANSWER[op_v, state] & (t_in_v | ~t_p)
        if metered:
            # Past the checks, t and a streamed op never arrive alone.
            busy += a_p | b_p

        if plan.accumulate:
            # Fig 4-1: OR the row result into the descending t_i of the
            # tuple it belongs to.
            seed_feed.inject(pulse, top_g[:1], top_v[:1])
            left_g = t_g[:, C]
            left_p = left_g >= 0
            merged = np.where(left_p, left_g // n_b, top_in)
            if (merged != top_in).any():
                raise _accumulator_fault(
                    pulse, merged != top_in, left_g, top_in, n_b
                )
            if metered:
                acc_busy += top_in >= 0
            top_g[1:], top_v[1:] = top_in, top_v[:R] | (t_v[:, C] & left_p)
            acc_taps.capture(pulse, top_g[R:], top_v[R:])

        t_g[:, 1:], t_v[:, 1:] = out_g, out_v
        a_g[1:], a_v[1:] = a_g[:-1], a_v[:-1]
        if counter:
            b_g[:-1], b_v[:-1] = b_g[1:], b_v[1:]
        if dynamic:
            op_g[1:], op_v[1:] = op_g[:-1], op_v[:-1]
        if plan.row_taps:
            row_taps.capture(pulse, t_g[:, C], t_v[:, C])

    taps: dict[str, ColumnarTap] = {}
    if plan.row_taps:
        taps.update(row_taps.columnar(
            [f"t_row[{row}]" for row in range(R)],
            "t" if plan.tagged else None, lambda ghost: divmod(ghost, n_b),
        ))
    if plan.accumulate:
        taps.update(acc_taps.columnar(
            ["t_i"], "acc" if plan.tagged else None, lambda ghost: (ghost,),
        ))
    return taps, [(name_of, busy), (acc_name, acc_busy)]


def _comparison_fault(pulse, t_g, a_g, b_g, pair, n_b, name_of):
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
    return _fault(pulse, name_of(r, c), message)


def _theta_fault(pulse, bad, a_p, op_g, both, ops, name_of):
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
    return _fault(pulse, name_of(r, c), message)


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


def _step_division(plan: DivisionPlan, metered: bool):
    sched = plan.schedule
    n, R, S, P = sched.n_pairs, sched.p_rows, sched.n_divisor, plan.pulses
    pairs = operand_matrix(plan.pairs, n, 2, "pulse", "dividend")
    stored_x = np.asarray(plan.distinct_x, dtype=np.int64)
    stored_y = np.asarray(plan.divisor, dtype=np.int64)
    Q, ROWS = np.arange(n), np.arange(R)

    # The dividend columns: x and y climb from the bottom row; the match
    # bit crosses from dm[row] to dg[row].
    x_g, x_v = np.full(R, -1), np.zeros(R, pairs.dtype)
    y_g, y_v = np.full(R, -1), np.zeros(R, pairs.dtype)
    m_g, m_v = np.full(R, -1), np.zeros(R, bool)
    # The divisor rows: the gated y (``live`` false: the explicit null)
    # and the AND sweep move right; column S of the sweep is the row's
    # output wire.  ``seen`` is each dv cell's sticky flag.
    g_g, g_v = np.full((R, S), -1), np.zeros((R, S), pairs.dtype)
    live, seen = np.zeros((R, S), bool), np.zeros((R, S), bool)
    and_g, and_v = np.full((R, S + 1), -1), np.zeros((R, S + 1), bool)
    x_feed = _Feed(P, sched.x_entry_pulse(Q), 0, Q, pairs[:, 0])
    y_feed = _Feed(P, sched.y_entry_pulse(Q), 0, Q, pairs[:, 1])
    and_feed = _Feed(P, sched.and_inject_pulse(ROWS), ROWS, ROWS, np.True_)
    taps = _Taps()
    dm_busy, dg_busy = np.zeros(R, np.int64), np.zeros(R, np.int64)
    dv_busy = np.zeros((R, S), np.int64)

    for pulse in range(P):
        x_feed.inject(pulse, x_g[R - 1:], x_v[R - 1:])
        y_feed.inject(pulse, y_g[R - 1:], y_v[R - 1:])
        and_feed.inject(pulse, and_g[:, 0], and_v[:, 0])

        # dg: y arrives together with the match bit of its own pair.
        if (y_g != m_g).any():
            raise _gate_fault(pulse, y_g, m_g)
        # dv: latch a sighting of the stored element, then answer the sweep.
        g_p = g_g >= 0
        seen |= g_p & live & (g_v == stored_y)
        if metered:
            dm_busy += x_g >= 0
            dg_busy += y_g >= 0
            dv_busy += g_p | (and_g[:, :S] >= 0)

        and_g[:, 1:], and_v[:, 1:] = and_g[:, :S], and_v[:, :S] & seen
        g_g[:, 1:], g_v[:, 1:] = g_g[:, :-1], g_v[:, :-1]
        live[:, 1:] = live[:, :-1]
        g_g[:, 0], g_v[:, 0], live[:, 0] = y_g, y_v, m_v
        m_g[:], m_v[:] = x_g, x_v == stored_x
        x_g[:-1], x_v[:-1] = x_g[1:], x_v[1:]
        y_g[:-1], y_v[:-1] = y_g[1:], y_v[1:]
        taps.capture(pulse, and_g[:, S], and_v[:, S])

    return taps.columnar(
        [f"and_row[{row}]" for row in range(R)],
        "and" if plan.tagged else None, lambda ghost: (ghost,),
    ), [("dm[{}]".format, dm_busy), ("dg[{}]".format, dg_busy),
        ("dv[{},{}]".format, dv_busy)]


def _gate_fault(pulse, y_g, m_g):
    (row,) = _first(y_g != m_g)
    y, t = int(y_g[row]), int(m_g[row])
    if y < 0 or t < 0:
        message = ("y and its match bit must arrive together — the pair "
                   "stream is mis-staggered")
    else:
        message = f"y of pair {y} met the match bit of pair {t}"
    return _fault(pulse, f"dg[{row}]", message)
