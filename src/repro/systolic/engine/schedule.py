"""Feeding-schedule arithmetic for the paper's arrays (§3.1–§3.2, §8).

"To make this all work, all of the data must be in the right place at
the right time" (§3.1).  This module is the closed-form answer to
*when* and *where*: entry pulses for staggered elements, meeting
rows/pulses for tuple pairs, exit pulses for results, and the inverse
maps a hardware result-collector would use to turn an arrival
``(row, pulse)`` back into tuple indices.

Schedules are pure arithmetic — no cells, no wires — which is what
lets an :class:`~repro.systolic.engine.Engine` evaluate them either
pulse-by-pulse (the reference simulator) or as bulk wavefronts.

Three disciplines are covered:

* :class:`CounterStreamSchedule` — the design of Fig 3-3: relation A
  streams top-to-bottom and B bottom-to-top, tuples two pulses apart,
  elements staggered one pulse.  Every pair ``(a_i, b_j)`` meets in
  exactly one row.  Needs ``R = 2·max(n_A, n_B) − 1`` rows (and R must
  be odd, or counter-moving tuples would swap between cells without
  ever co-residing).
* :class:`FixedRelationSchedule` — the §8 optimization: B is held
  still (one tuple per row, elements preloaded) and only A moves, so
  tuples can follow each other one pulse apart and every processor
  compares on every pulse once the pipeline fills.
* :class:`DivisionSchedule` — the Fig 7-2 division array (§7):
  dividend pairs stream up the two dividend columns, gated ``y``
  values flow along the divisor rows, and an AND token sweeps each row
  one pulse behind the last ``y``.

:func:`block_span_law` is §8's decomposition of a problem larger than
the device in the same closed form, on either grid variant: how many
block runs, and how many pulses they take in total, without visiting a
block;
:func:`division_span_law` is the same for the division array.

All pulse numbers follow the simulator convention: a feeder value at
pulse ``p`` is processed by its cell during pulse ``p``; the cell's
output is processed by the downstream neighbour during pulse ``p+1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import CapacityError, SimulationError

__all__ = [
    "VARIANTS",
    "CounterStreamSchedule",
    "FixedRelationSchedule",
    "DivisionSchedule",
    "BlockSpanLaw",
    "block_bounds",
    "preload_pulses",
    "block_run_pulses",
    "block_span_law",
    "division_span_law",
]

#: The two geometries of the comparison and join grids: §3.2's
#: counter-streaming array and §8's fixed-relation variant.
VARIANTS = ("counter", "fixed")


@dataclass(frozen=True)
class CounterStreamSchedule:
    """Timing of the counter-streaming two-dimensional array (§3.2).

    Parameters: ``n_a`` and ``n_b`` are the relation cardinalities,
    ``arity`` the tuple length ``m`` (= number of processor columns).
    """

    n_a: int
    n_b: int
    arity: int

    def __post_init__(self) -> None:
        if self.n_a < 1 or self.n_b < 1:
            raise SimulationError(
                f"schedules need non-empty relations (n_a={self.n_a}, "
                f"n_b={self.n_b}); empty operands short-circuit upstream"
            )
        if self.arity < 1:
            raise SimulationError(f"arity must be >= 1, got {self.arity}")

    # -- geometry ----------------------------------------------------------

    @property
    def rows(self) -> int:
        """Processor rows needed so every pair meets: 2·max − 1 (odd)."""
        return 2 * max(self.n_a, self.n_b) - 1

    @property
    def mid(self) -> int:
        """The central row index M = max(n_a, n_b) − 1 where a₀ meets b₀."""
        return max(self.n_a, self.n_b) - 1

    # -- input schedule ------------------------------------------------------

    def a_entry_pulse(self, i: int, k: int) -> int:
        """Pulse at which element ``a[i][k]`` enters the top of column k."""
        return 2 * i + k

    def b_entry_pulse(self, j: int, k: int) -> int:
        """Pulse at which element ``b[j][k]`` enters the bottom of column k."""
        return 2 * j + k

    def t_init_pulse(self, i: int, j: int) -> int:
        """Pulse at which the initial t for pair (i, j) enters column 0."""
        return self.mid + i + j

    def row_pairs(self, row: int) -> list[tuple[int, int]]:
        """All pairs (i, j) that meet in ``row``, in meeting order.

        A row hosts a fixed index difference ``d = j − i = row − M``;
        successive pairs meet two pulses apart.
        """
        d = row - self.mid
        lo = max(0, -d)
        hi = min(self.n_a, self.n_b - d)
        return [(i, i + d) for i in range(lo, hi)]

    # -- meetings ------------------------------------------------------------

    def meeting_row(self, i: int, j: int) -> int:
        """The row in which tuples a_i and b_j cross (M + j − i)."""
        return self.mid + j - i

    def meeting_pulse(self, i: int, j: int, k: int = 0) -> int:
        """Pulse at which elements a[i][k] and b[j][k] co-reside."""
        return self.mid + i + j + k

    # -- output schedule -------------------------------------------------------

    def t_exit_pulse(self, i: int, j: int) -> int:
        """Pulse at which t_ij leaves the last comparator of its row."""
        return self.meeting_pulse(i, j, self.arity - 1)

    def pair_from_exit(self, row: int, pulse: int) -> tuple[int, int]:
        """Invert :meth:`t_exit_pulse`: which pair produced this arrival."""
        d = row - self.mid
        total = pulse - self.arity + 1 - self.mid  # i + j
        if (total - d) % 2:
            raise SimulationError(
                f"arrival (row={row}, pulse={pulse}) matches no pair "
                f"in the schedule"
            )
        i = (total - d) // 2
        j = i + d
        if not (0 <= i < self.n_a and 0 <= j < self.n_b):
            raise SimulationError(
                f"arrival (row={row}, pulse={pulse}) decodes to pair "
                f"({i}, {j}) outside the relations"
            )
        return i, j

    # -- accumulation column (Fig 4-1) ----------------------------------------

    def accumulator_seed_pulse(self, i: int) -> int:
        """Pulse at which t_i^initial = FALSE enters the top accumulator."""
        return 2 * i + self.arity

    def accumulator_exit_pulse(self, i: int) -> int:
        """Pulse at which the final t_i leaves the bottom accumulator."""
        return 2 * i + self.arity + self.rows - 1

    def tuple_from_accumulator_exit(self, pulse: int) -> int:
        """Invert :meth:`accumulator_exit_pulse`."""
        offset = pulse - self.arity - self.rows + 1
        if offset < 0 or offset % 2:
            raise SimulationError(
                f"accumulator arrival at pulse {pulse} matches no tuple"
            )
        i = offset // 2
        if i >= self.n_a:
            raise SimulationError(
                f"accumulator arrival at pulse {pulse} decodes to tuple "
                f"{i} outside relation A"
            )
        return i

    # -- run length --------------------------------------------------------------

    @property
    def comparison_pulses(self) -> int:
        """Pulses until the last t_ij has left the comparison array."""
        return self.t_exit_pulse(self.n_a - 1, self.n_b - 1) + 1

    @property
    def total_pulses(self) -> int:
        """Pulses until the last accumulated t_i has left the bottom."""
        return self.accumulator_exit_pulse(self.n_a - 1) + 1


@dataclass(frozen=True)
class FixedRelationSchedule:
    """Timing of the §8 fixed-relation variant.

    Relation B is preloaded, one tuple per row (``rows = n_b``); A
    streams downward with tuples only **one** pulse apart, so in steady
    state every processor compares on every pulse — the utilization fix
    §8 describes.
    """

    n_a: int
    n_b: int
    arity: int

    def __post_init__(self) -> None:
        if self.n_a < 1 or self.n_b < 1:
            raise SimulationError(
                f"schedules need non-empty relations (n_a={self.n_a}, "
                f"n_b={self.n_b})"
            )
        if self.arity < 1:
            raise SimulationError(f"arity must be >= 1, got {self.arity}")

    @property
    def rows(self) -> int:
        """One processor row per stored B tuple."""
        return self.n_b

    def a_entry_pulse(self, i: int, k: int) -> int:
        """Pulse at which element a[i][k] enters the top of column k."""
        return i + k

    def t_init_pulse(self, i: int, row: int) -> int:
        """Pulse at which the initial t for (a_i, b_row) enters column 0."""
        return i + row

    def meeting_pulse(self, i: int, row: int, k: int = 0) -> int:
        """Pulse at which a[i][k] visits the stored b[row][k]."""
        return i + row + k

    def t_exit_pulse(self, i: int, row: int) -> int:
        """Pulse at which t_{i,row} leaves the last comparator of ``row``."""
        return self.meeting_pulse(i, row, self.arity - 1)

    def pair_from_exit(self, row: int, pulse: int) -> tuple[int, int]:
        """Invert :meth:`t_exit_pulse`."""
        i = pulse - row - self.arity + 1
        if not (0 <= i < self.n_a and 0 <= row < self.n_b):
            raise SimulationError(
                f"arrival (row={row}, pulse={pulse}) decodes to tuple "
                f"{i} outside relation A"
            )
        return i, row

    def accumulator_seed_pulse(self, i: int) -> int:
        """Pulse at which t_i^initial = FALSE enters the top accumulator."""
        return i + self.arity

    def accumulator_exit_pulse(self, i: int) -> int:
        """Pulse at which the final t_i leaves the bottom accumulator."""
        return i + self.arity + self.rows - 1

    def tuple_from_accumulator_exit(self, pulse: int) -> int:
        """Invert :meth:`accumulator_exit_pulse`."""
        i = pulse - self.arity - self.rows + 1
        if not 0 <= i < self.n_a:
            raise SimulationError(
                f"accumulator arrival at pulse {pulse} decodes to tuple "
                f"{i} outside relation A"
            )
        return i

    @property
    def comparison_pulses(self) -> int:
        """Pulses until the last t has left the comparison rows."""
        return self.t_exit_pulse(self.n_a - 1, self.n_b - 1) + 1

    @property
    def total_pulses(self) -> int:
        """Pulses until the last accumulated t_i has left the bottom."""
        return self.accumulator_exit_pulse(self.n_a - 1) + 1


@dataclass(frozen=True)
class DivisionSchedule:
    """Timing of the division array.

    ``n_pairs`` dividend pairs stream through ``p_rows`` dividend rows;
    each divisor row holds ``n_divisor`` processors.
    """

    n_pairs: int
    p_rows: int
    n_divisor: int

    def __post_init__(self) -> None:
        if min(self.n_pairs, self.p_rows, self.n_divisor) < 1:
            raise SimulationError(
                "the division array needs non-empty dividend and divisor"
            )

    def x_entry_pulse(self, q: int) -> int:
        """Pulse at which pair q's ``x`` enters the bottom left processor."""
        return q

    def y_entry_pulse(self, q: int) -> int:
        """Pulse at which pair q's ``y`` enters (one step behind its x)."""
        return q + 1

    def and_inject_pulse(self, row: int) -> int:
        """Earliest pulse the AND sweep may enter divisor row ``row``.

        One pulse behind the last gated ``y`` at the row's first
        processor, so the sweep trails the dividend through every cell.
        """
        return self.n_pairs + 2 + (self.p_rows - 1 - row)

    def result_pulse(self, row: int) -> int:
        """Pulse at which row ``row``'s quotient bit leaves the right edge."""
        return self.and_inject_pulse(row) + self.n_divisor - 1

    def row_from_result(self, row: int, pulse: int) -> int:
        """Sanity-check a result arrival; returns the row."""
        if pulse != self.result_pulse(row):
            raise SimulationError(
                f"divisor row {row} produced its quotient bit on pulse "
                f"{pulse}, expected {self.result_pulse(row)}"
            )
        return row

    @property
    def total_pulses(self) -> int:
        """Pulses until the topmost row's quotient bit has exited."""
        return self.result_pulse(0) + 1


# -- §8: a problem larger than the device ------------------------------------


def block_bounds(n: int, size: int) -> list[tuple[int, int]]:
    """§8's cut of ``n`` items into ``size``-blocks, as ``[lo, hi)`` bounds."""
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _span_counts(n: int, size: int) -> list[tuple[int, int]]:
    """The block lengths of :func:`block_bounds` as ``(span, how many)``:
    every block is full except possibly the last."""
    full, rest = divmod(n, size)
    return [(size, full)] * (full > 0) + [(rest, 1)] * (rest > 0)


def preload_pulses(
    schedule: CounterStreamSchedule | FixedRelationSchedule,
) -> int:
    """Pulses that shift a block run's held B block into its rows
    before A streams: one a held tuple on the fixed-relation variant
    (docs/DERIVATIONS.md), none counter-streaming, where both blocks
    move."""
    return schedule.n_b if isinstance(schedule, FixedRelationSchedule) else 0


def block_run_pulses(
    schedule: CounterStreamSchedule | FixedRelationSchedule,
) -> int:
    """One comparison block run of :func:`block_span_law`: its preload,
    then the run through its last ``t_ij``."""
    return preload_pulses(schedule) + schedule.comparison_pulses


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise SimulationError(
            f"unknown variant {variant!r}; have {VARIANTS}"
        )


def _block_schedule(
    variant: str, n_a: int, n_b: int, arity: int
) -> CounterStreamSchedule | FixedRelationSchedule:
    if variant == "counter":
        return CounterStreamSchedule(n_a, n_b, arity)
    return FixedRelationSchedule(n_a, n_b, arity)


def _block_tuples(max_rows: int, variant: str) -> int:
    """Tuples a block holds on a device of ``max_rows`` processor rows:
    ``(max_rows + 1) // 2`` of each relation counter-streaming (a block
    of ``b`` a side needs ``2b − 1`` rows), ``max_rows`` of B on the
    fixed-relation variant (one held tuple a row; A streams whole)."""
    _check_variant(variant)
    return (max_rows + 1) // 2 if variant == "counter" else max_rows


@dataclass(frozen=True)
class BlockSpanLaw:
    """A problem too large for its device, decomposed arithmetically.

    Each dimension has at most two distinct block lengths, so the whole
    decomposition is at most eight distinct sub-problems: ``spans``
    holds one ``(schedule, multiplicity)`` per distinct span triple,
    the first block's first.  Summing over them is exact (integer
    pulses) and independent of the block count.
    """

    a_blocks: int
    b_blocks: int
    column_blocks: int
    spans: tuple[
        tuple[CounterStreamSchedule | FixedRelationSchedule
              | DivisionSchedule, int], ...
    ]
    #: total over all block runs — a comparison run through its last
    #: ``t_ij`` (the blocks read every ``t_ij`` off the row taps) plus
    #: the preload of its held block, a division run through its last
    #: quotient bit
    pulses: int
    #: the grid geometry of every block run (:data:`VARIANTS`); a
    #: division array has only the one
    variant: str = "counter"

    @property
    def block_runs(self) -> int:
        """Sub-problems executed on the device."""
        return self.a_blocks * self.b_blocks * self.column_blocks

    @property
    def first(
        self,
    ) -> CounterStreamSchedule | FixedRelationSchedule | DivisionSchedule:
        """The schedule of block (0, 0, 0) — the largest sub-problem,
        whose spans are the block sizes of the decomposition."""
        return self.spans[0][0]

    def block(
        self, n_a: int, n_b: int, arity: int
    ) -> CounterStreamSchedule | FixedRelationSchedule:
        """The schedule of a comparison block run over these spans."""
        return _block_schedule(self.variant, n_a, n_b, arity)

    @property
    def band_unit(self) -> int:
        """The A rows a band of a one-run kernel is a whole multiple
        of: an A block counter-streaming, one tuple on the fixed
        variant — A streams whole there, and any run of its tuples
        meets every held block as the stream does."""
        return self.first.n_a if self.variant == "counter" else 1


@lru_cache(maxsize=1024)
def block_span_law(
    n_a: int, n_b: int, arity: int, max_rows: int, max_cols: int,
    variant: str = "counter",
) -> BlockSpanLaw:
    """Decompose an ``n_a × n_b`` comparison over ``arity`` columns onto
    a device of ``max_rows`` processor rows and ``max_cols`` element
    columns (§8), its block runs in the grid ``variant``.

    Counter-streaming (``variant="counter"``), both relations are cut
    into blocks of ``(max_rows + 1) // 2`` tuples (a block of ``b`` a
    side needs ``2b − 1`` rows) and every A block meets every B block.
    On the fixed-relation variant (``"fixed"``) only B is cut, into
    blocks of ``max_rows`` tuples held one a row, and A streams whole
    past every held block, one pulse apart, after the block's preload
    (:func:`preload_pulses`).

    The one statement of the decomposition: the blocked plan
    (:class:`~repro.systolic.engine.plan.BlockedPlan`) executes it and
    :mod:`repro.perf.cost` prices it, so predicted == simulated pulses.
    Pure and frozen, so each shape is decomposed once (LRU-cached).
    """
    if max_rows < 1 or max_cols < 1:
        raise SimulationError(
            f"a device has at least one row and one column, got "
            f"max_rows={max_rows}, max_cols={max_cols}"
        )
    tuple_block = _block_tuples(max_rows, variant)
    if min(n_a, n_b, arity) < 1:
        raise SimulationError(
            f"nothing to decompose: n_a={n_a}, n_b={n_b}, arity={arity}; "
            f"empty operands short-circuit upstream"
        )
    if variant == "counter":
        a_spans = _span_counts(n_a, tuple_block)
    else:
        a_spans = [(n_a, 1)]
    b_spans = _span_counts(n_b, tuple_block)
    column_spans = _span_counts(arity, max_cols)
    spans = tuple(
        (_block_schedule(variant, sa, sb, sc), ca * cb * cc)
        for sa, ca in a_spans
        for sb, cb in b_spans
        for sc, cc in column_spans
    )
    return BlockSpanLaw(
        a_blocks=sum(count for _, count in a_spans),
        b_blocks=sum(count for _, count in b_spans),
        column_blocks=sum(count for _, count in column_spans),
        spans=spans,
        pulses=sum(block_run_pulses(schedule) * count
                   for schedule, count in spans),
        variant=variant,
    )


def division_span_law(
    n_pairs: int, n_distinct: int, n_divisor: int, max_rows: int, max_cols: int
) -> BlockSpanLaw:
    """Decompose a division of ``n_pairs`` dividend pairs over
    ``n_distinct`` groups by ``n_divisor`` divisor values onto a
    ``max_rows`` × ``max_cols`` device (§7 array, §8 blocking): the
    groups blocked to the device height (``a``), the divisor row to the
    width beside the two dividend columns (``b``), every block
    streaming the full pair list.  Like :func:`block_span_law`, the one
    statement: :func:`~repro.arrays.decomposition.blocked_divide`
    executes it and :func:`~repro.perf.cost.division_cost` prices it.
    """
    if max_cols < 3:
        raise CapacityError(
            f"the division array needs at least 3 processor columns, "
            f"device has {max_cols}"
        )
    if min(n_pairs, n_distinct, n_divisor, max_rows) < 1:
        raise SimulationError(
            f"nothing to decompose: n_pairs={n_pairs}, "
            f"n_distinct={n_distinct}, n_divisor={n_divisor}, "
            f"max_rows={max_rows}; empty operands short-circuit upstream"
        )
    x_spans = _span_counts(n_distinct, max_rows)
    divisor_spans = _span_counts(n_divisor, max_cols - 2)
    spans = tuple(
        (DivisionSchedule(n_pairs, sx, sd), cx * cd)
        for sx, cx in x_spans
        for sd, cd in divisor_spans
    )
    return BlockSpanLaw(
        a_blocks=sum(count for _, count in x_spans),
        b_blocks=sum(count for _, count in divisor_spans),
        column_blocks=1,
        spans=spans,
        pulses=sum(
            schedule.total_pulses * count for schedule, count in spans
        ),
    )
