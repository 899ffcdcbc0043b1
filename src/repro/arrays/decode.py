"""The decode seam: from an engine run to the verdicts an operator reads.

The arrays exist to produce results — the matrix ``T`` (§3.3), the
accumulated ``t_i = OR_j t_ij`` (§4), the individual ``t_ij`` of a join
(§6), the quotient bits (§7), the hex mesh's product (§2.1).  Every
operator module reads them through the functions here, and each reads
one of two sources:

1. ``run.verdicts`` — the vectorized engines' primary product, read
   directly (shape and dtype checked; no tap is ever built);
2. tap tables — one :class:`~repro.systolic.engine.plan.ColumnarTap`
   per tapped edge (``t_row``, ``t_i``, ``and_row``), each decoded in
   one pass by inverting the schedule's affine exit laws, with the full
   audit: parity, bounds, duplicates, ghost tags, completeness.  Every
   pulse run is read this way: its tables are what the register
   stepper saw leave the array, and the stepper does not consult the
   exit laws, so this audit is where they are checked.  A run without
   the edge's table is refused.  A hex mesh run has no verdicts on any
   engine: the register stepper steps the mesh too
   (``registers._step_hex``), the pulse and lattice engines both build
   its tables with ``HexPlan.tables``, and :func:`hex_products` reads
   each final-meeting cell's table.

Tagged runs always take path 2: their point is to check the ghost
tags riding on the tap records, so the taps are what gets read.

A §8 blocked run (:class:`~repro.systolic.engine.plan.BlockedPlan`)
has no taps of its own — they belong to its block runs — and hands back
only what the operator asked to keep of ``T``.  :class:`Reduction` is
that keeping, written once for every engine; :func:`blocked_verdicts`
reads it back, checked like path 1; and :func:`blockwise_verdicts` is
the decomposition done the hardware's way, block run by block run
through path 2 — how the pulse engine executes a blocked plan,
and the reference the one-run kernels are tested against.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Optional

import numpy as np

from repro.errors import SimulationError
from repro.systolic.engine.hexmesh import hex_tap_name, meeting_cell
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    preload_pulses,
)

__all__ = [
    "pair_verdicts",
    "true_pairs",
    "matches_in_exit_order",
    "accumulator_bits",
    "quotient_bits",
    "hex_products",
    "Reduction",
    "blocked_verdicts",
    "blockwise_verdicts",
]


def _run_verdicts(
    result, shape: tuple[Optional[int], ...], dtype=np.bool_
) -> Optional[np.ndarray]:
    """``result.verdicts`` if the engine produced them, validated
    (``None`` in ``shape`` admits any length along that axis)."""
    verdicts = getattr(result, "verdicts", None)
    if verdicts is None:
        return None
    if (not isinstance(verdicts, np.ndarray) or verdicts.dtype != dtype
            or len(verdicts.shape) != len(shape)
            or any(want is not None and want != got
                   for want, got in zip(shape, verdicts.shape))):
        found = (
            f"{verdicts.dtype} array of shape {verdicts.shape}"
            if isinstance(verdicts, np.ndarray) else type(verdicts).__name__
        )
        raise SimulationError(
            f"the run's verdicts must be a {np.dtype(dtype).name} array of "
            f"shape {shape}, got {found}"
        )
    return verdicts


def _table_of(result, edge: str):
    """The tap table of ``edge`` (one
    :class:`~repro.systolic.engine.plan.ColumnarTap` for the whole
    edge); a run without it is refused."""
    table = result.table(edge)
    if table is None:
        raise SimulationError(f"the run has no {edge!r} tap table")
    return table


def _first_by_position(bad: np.ndarray, positions: np.ndarray) -> int:
    """The first flagged record in read-out order — by edge position,
    then pulse (a table holds each position's records in pulse order)."""
    flagged = np.flatnonzero(bad)
    return int(flagged[np.argmin(positions[flagged])])


# -- the matrix T: row taps of the comparison and join grids -----------------


def pair_verdicts(result, schedule, tagged: bool) -> np.ndarray:
    """The ``(n_a, n_b)`` bool matrix ``T`` of a grid run with row taps.

    ``result`` is an :class:`~repro.systolic.engine.plan.EngineRun` —
    anything with ``verdicts`` and a ``table(edge)`` method.
    """
    if not tagged:
        verdicts = _run_verdicts(result, (schedule.n_a, schedule.n_b))
        if verdicts is not None:
            return verdicts
    return _pair_verdicts_from_taps(
        _table_of(result, "t_row"), schedule, tagged
    )


def true_pairs(verdicts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The TRUE ``(i, j)`` of a verdict matrix as two index vectors, in
    row-major order — so already ``(i, j)``-sorted.  (One flat scan and
    a ``divmod``: the 2-D ``nonzero`` costs ≈ 8× as much on a 512 × 64
    block.)"""
    return np.divmod(np.flatnonzero(verdicts), verdicts.shape[1])


def matches_in_exit_order(verdicts: np.ndarray) -> list[tuple[int, int]]:
    """The TRUE ``(i, j)`` of ``T`` in the order they leave the array:
    by exit pulse (``i + j`` plus a constant on either schedule), then
    ``i``, then ``j``."""
    i, j = true_pairs(verdicts)
    order = np.argsort(i + j, kind="stable")
    return list(zip(i[order].tolist(), j[order].tolist()))


def _pair_verdicts_from_taps(table, schedule, tagged: bool) -> np.ndarray:
    """Bulk decode of the ``t_row`` table.

    ``pair_from_exit`` is affine in (row, pulse), so every arrival
    decodes in one vectorized inversion; validity (parity, bounds,
    duplicates, ghost tags, completeness) is checked in bulk too.
    """
    rows, pulses = table.positions, table.pulses

    m = schedule.arity
    if isinstance(schedule, CounterStreamSchedule):
        d = rows - schedule.mid
        total = pulses - (m - 1) - schedule.mid  # i + j
        bad = (total - d) % 2 != 0
        i = (total - d) // 2
        j = i + d
    else:
        j = rows
        i = pulses - rows - (m - 1)
        bad = np.zeros(len(pulses), dtype=bool)
    bad |= (i < 0) | (i >= schedule.n_a) | (j < 0) | (j >= schedule.n_b)
    if bad.any():
        # Re-raise through the scalar decoder for the exact diagnostic.
        k = _first_by_position(bad, rows)
        schedule.pair_from_exit(int(rows[k]), int(pulses[k]))

    keys = i * schedule.n_b + j
    ordered = np.sort(keys)
    dup = np.flatnonzero(ordered[1:] == ordered[:-1])
    if dup.size:
        key = int(ordered[dup[0]])
        raise SimulationError(
            f"pair ({key // schedule.n_b}, {key % schedule.n_b}) exited twice"
        )
    if tagged and table.tag_kind is not None:
        if table.tag_kind != "t":
            row = 0
        else:
            wrong = ((table.tag_indices[0] != i)
                     | (table.tag_indices[1] != j))
            row = int(rows[wrong].min()) if wrong.any() else None
        if row is not None:
            raise SimulationError(
                f"arrivals at tap {f't_row[{row}]'!r} carry tags "
                f"inconsistent with their decoded pairs"
            )
    expected = schedule.n_a * schedule.n_b
    if len(keys) != expected:
        raise SimulationError(
            f"only {len(keys)} of {expected} pair results exited the array"
        )
    verdicts = np.empty(expected, dtype=bool)
    verdicts[keys] = table.values
    return verdicts.reshape(schedule.n_a, schedule.n_b)


# -- §8: what a blocked operator keeps of T -----------------------------------


class Reduction:
    """``plan.reduce`` applied to ``T`` a band of rows at a time.

    ``add(a_lo, band)`` takes the finished verdicts (column blocks
    ANDed, ``t_init`` applied) of A-tuples ``a_lo ...`` against all of
    B, bands in ascending order; ``verdicts()`` is the run's result:
    the bool vector ``t_i`` (``"rows"``), the TRUE pairs as a
    ``(2, k)`` int64 array of ``i`` over ``j`` in lexicographic order
    (``"pairs"`` — row-major bands in ascending order need no sort), or
    the bool matrix (``"matrix"``).  Only the last ever holds
    ``n_a × n_b`` values.
    """

    def __init__(self, plan) -> None:
        self.kind = plan.reduce
        if self.kind == "pairs":
            self._found: list[tuple[np.ndarray, np.ndarray]] = []
        else:
            shape = (plan.n_a, plan.n_b)
            self._kept = np.empty(
                shape if self.kind == "matrix" else shape[:1], dtype=bool
            )

    def add(self, a_lo: int, band: np.ndarray) -> None:
        if self.kind == "pairs":
            i, j = true_pairs(band)
            i += a_lo
            self._found.append((i, j))
        elif self.kind == "rows":
            band.any(axis=1, out=self._kept[a_lo:a_lo + len(band)])
        else:
            self._kept[a_lo:a_lo + len(band)] = band

    def verdicts(self) -> np.ndarray:
        if self.kind != "pairs":
            return self._kept
        return np.stack([
            np.concatenate(column) for column in zip(*self._found)
        ])


def blocked_verdicts(result, plan) -> np.ndarray:
    """What a run of the blocked ``plan`` kept of ``T``
    (see :class:`Reduction`), shape and dtype checked."""
    shape, dtype = {
        "rows": ((plan.n_a,), np.bool_),
        "pairs": ((2, None), np.int64),
        "matrix": ((plan.n_a, plan.n_b), np.bool_),
    }[plan.reduce]
    verdicts = _run_verdicts(result, shape, dtype)
    if verdicts is None:
        raise SimulationError(
            "a blocked run must hand back its reduced verdicts; this "
            "one has none"
        )
    return verdicts


def blockwise_verdicts(
    plan, run_block: Callable
) -> tuple[np.ndarray, int]:
    """A blocked plan executed as §8 describes it: one array run per
    sub-problem, partial results combined outside the array.

    Every plan of ``plan.blocks()`` goes through ``run_block`` (a
    :class:`~repro.systolic.engine.plan.GridPlan` → its run) on its
    own and its ``t_ij`` are read off the row taps with the full audit;
    column blocks are ANDed, B-blocks laid side by side, and each
    finished band of A-tuples reduced.  Returns the reduced verdicts
    and the pulses summed over the block runs.  This is the only loop
    over grid blocks in the package: the pulse engine's execution of a
    blocked plan, and the reference the vectorized engines' one-run
    kernels are held to (tests, ``repro selftest``).

    A fixed-relation plan's one A stream past each held block is run in
    bands of ``max_rows`` tuples (``plan.blocks(band=...)``), so what
    is held at once stays a band of ``T`` and one band run's taps, as
    counter-streaming.  The stream's pulses are then its preload plus
    the end of its last band: a band from tuple ``a_lo`` on runs as the
    stream does from pulse ``a_lo`` on.
    """
    reduction = Reduction(plan)
    pulses = 0
    #: held block (b_lo, c_lo) → preload + where A's stream past it ends
    streams: dict[tuple[int, int], int] = {}
    for a_lo, blocks in groupby(
        plan.blocks(band=plan.max_rows), key=lambda block: block[0]
    ):
        band = None
        for _, b_lo, c_lo, block in blocks:
            run = run_block(block)
            # Only a fixed-relation run holds (preloads) its B block.
            held = preload_pulses(block.schedule)
            if held:
                streams[b_lo, c_lo] = held + a_lo + run.pulses
            else:
                pulses += run.pulses
            if band is None:
                band = np.empty((block.schedule.n_a, plan.n_b), dtype=bool)
            # tagged=True: always off the taps, never ``run.verdicts``.
            verdicts = pair_verdicts(run, block.schedule, tagged=True)
            window = band[:, b_lo:b_lo + block.schedule.n_b]
            if c_lo == 0:
                window[...] = verdicts
            else:
                window &= verdicts
        reduction.add(a_lo, band)
    return reduction.verdicts(), pulses + sum(streams.values())


# -- the vector t_i: the accumulation column (Fig 4-1) -----------------------


def accumulator_bits(result, schedule, tagged: bool) -> list[bool]:
    """``t_i = OR_j t_ij`` for every tuple of A: the run's ``(n_a,)``
    verdicts when it has them, else off the ``t_i`` tap."""
    if not tagged:
        verdicts = _run_verdicts(result, (schedule.n_a,))
        if verdicts is not None:
            return verdicts.tolist()
    return _accumulator_bits_from_tap(
        _table_of(result, "t_i"), schedule, tagged
    )


def _accumulator_bits_from_tap(tap, schedule, tagged: bool) -> list[bool]:
    """Bulk decode of the ``t_i`` table: the exit pulses are
    affine in the tuple index, so the whole vector decodes as one
    arithmetic inversion plus the validity checks (range, duplicates,
    ghost tags, completeness)."""
    n = schedule.n_a
    pulses = np.asarray(tap.pulses, dtype=np.int64)
    step = 2 if isinstance(schedule, CounterStreamSchedule) else 1
    offset = pulses - (schedule.arity + schedule.rows - 1)
    idx = offset // step
    bad = (offset < 0) | (offset % step != 0) | (idx >= n)
    if bad.any():
        # Re-raise through the scalar decoder for the exact diagnostic.
        schedule.tuple_from_accumulator_exit(int(pulses[np.argmax(bad)]))
    ordered = np.sort(idx)
    dup = np.flatnonzero(ordered[1:] == ordered[:-1])
    if dup.size:
        raise SimulationError(
            f"tuple {int(ordered[dup[0]])} exited the accumulator twice"
        )
    if tagged and tap.tag_kind is not None:
        mismatch = (
            tap.tag_kind != "acc"
            or not np.array_equal(tap.tag_indices[0], idx)
        )
        if mismatch:
            k = (0 if tap.tag_kind != "acc"
                 else int(np.flatnonzero(tap.tag_indices[0] != idx)[0]))
            tag = (tap.tag_kind, int(tap.tag_indices[0][k]))
            raise SimulationError(
                f"arrival decoded as tuple {int(idx[k])} but carries tag "
                f"{tag!r}"
            )
    if idx.size != n:
        present = np.zeros(n, dtype=bool)
        present[idx] = True
        missing = np.flatnonzero(~present)[:8].tolist()
        raise SimulationError(
            f"tuples {missing} never exited the accumulation array"
        )
    vector = np.empty(n, dtype=bool)
    vector[idx] = np.asarray(tap.values, dtype=bool)
    return vector.tolist()


# -- the quotient bits: the division array's AND sweep (Fig 7-2) -------------


def quotient_bits(result, schedule, tagged: bool) -> list[bool]:
    """One bit per dividend row: TRUE iff that row's ``x`` is paired
    with every divisor element (§7)."""
    if not tagged:
        verdicts = _run_verdicts(result, (schedule.p_rows,))
        if verdicts is not None:
            return verdicts.tolist()
    return _quotient_bits_from_tap(_table_of(result, "and_row"), schedule)


def _quotient_bits_from_tap(table, schedule) -> list[bool]:
    """Bulk decode of the ``and_row`` table: exactly one bit a row, on
    the row's result pulse (the first row that breaks either is
    reported)."""
    n = schedule.p_rows
    rows = table.positions
    counts = np.bincount(rows, minlength=n)
    pulses = np.zeros(n, dtype=np.int64)
    bits = np.zeros(n, dtype=bool)
    pulses[rows], bits[rows] = table.pulses, table.values
    bad = (counts != 1) | (pulses != schedule.result_pulse(np.arange(n)))
    if bad.any():
        row = int(np.argmax(bad))
        if counts[row] != 1:
            raise _quotient_count_error(row, int(counts[row]))
        schedule.row_from_result(row, int(pulses[row]))
    return bits.tolist()


def _quotient_count_error(row: int, count: int) -> SimulationError:
    return SimulationError(
        f"divisor row {row} produced {count} quotient bits, expected "
        f"exactly 1"
    )


# -- the hexagonal mesh's product (§2.1, [5]) --------------------------------


def hex_products(result, plan) -> list[list[bool]]:
    """``C[i][j]`` of a :class:`~repro.systolic.engine.plan.HexPlan`
    run: what ``c_ij`` carried out of its final meeting cell on pulse
    ``i + j + m − 1``, read off that cell's tap table (on a tagged run
    an arrival that carries a tag must carry ``("c", i, j)``)."""
    m = plan.inner
    matrix = []
    for i in range(plan.n_a):
        row = []
        for j in range(plan.n_b):
            table = _table_of(result, hex_tap_name(meeting_cell(i, j, m - 1)))
            pulse = i + j + m - 1
            at = np.flatnonzero(table.pulses == pulse)
            if not at.size:
                raise SimulationError(
                    f"c[{i}][{j}] did not exit its final meeting cell on "
                    f"pulse {pulse}"
                )
            k = int(at[-1])
            if plan.tagged and table.tag_kind is not None:
                tag = (table.tag_kind,
                       *(int(column[k]) for column in table.tag_indices))
                if tag != ("c", i, j):
                    raise SimulationError(
                        f"final-cell arrival for ({i}, {j}) carries tag "
                        f"{tag!r}"
                    )
            row.append(bool(table.values[k]))
        matrix.append(row)
    return matrix
