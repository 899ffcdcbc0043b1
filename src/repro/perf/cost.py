"""Operator cost model for the physical planner.

The §9 machine has to *choose* — which device runs an operation, and
whether chained operations stream into each other — and both choices
need predicted times.  This module turns relation sizes into pulse
counts using exactly the schedule arithmetic the simulated hardware
executes (§3's :class:`~repro.systolic.engine.schedule.CounterStreamSchedule`,
§7's :class:`~repro.systolic.engine.schedule.DivisionSchedule`) and the
§8 block decomposition (:mod:`repro.arrays.decomposition`), so a
prediction over *actual* input sizes equals the executed pulse count
bit for bit.  A :class:`~repro.perf.technology.TechnologyModel`
converts pulses to seconds, as everywhere else in :mod:`repro.perf`.

Each cost splits into **fill** (pulses before the first result emerges
— the array's latency, ≈ its row count) and **stream** (the remaining
pulses while the relation flows through).  The split is what the
pipeline law of :mod:`repro.machine.pipelining` consumes: a chain of
fused stages finishes in Σ fill + max stream instead of Σ (fill +
stream).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.perf.technology import TechnologyModel
from repro.systolic.engine.schedule import (
    block_span_law,
    division_span_law,
    preload_pulses,
)

__all__ = [
    "OpCost",
    "ExchangeCost",
    "ScanCost",
    "SHARD_LINK_BYTES_PER_SECOND",
    "comparison_cost",
    "join_cost",
    "division_cost",
    "bit_comparison_cost",
    "broadcast_cost",
    "shuffle_cost",
]


@dataclass(frozen=True)
class OpCost:
    """Predicted cost of one operation on one fixed-size device."""

    fill_pulses: int
    stream_pulses: int
    a_blocks: int = 1
    b_blocks: int = 1
    column_blocks: int = 1

    def __post_init__(self) -> None:
        if self.fill_pulses < 0 or self.stream_pulses < 0:
            raise ReproError(f"pulse counts must be non-negative: {self}")

    @property
    def total_pulses(self) -> int:
        """Stand-alone pulse count: fill + stream."""
        return self.fill_pulses + self.stream_pulses

    @property
    def block_runs(self) -> int:
        """§8 sub-problems executed on the device."""
        if self.total_pulses == 0:
            return 0
        return self.a_blocks * self.b_blocks * self.column_blocks

    def seconds(self, technology: TechnologyModel) -> float:
        """Stand-alone completion time under a technology model."""
        return technology.pulses_to_seconds(self.total_pulses)

    def fill_seconds(self, technology: TechnologyModel) -> float:
        """Latency to the first emerging result."""
        return technology.pulses_to_seconds(self.fill_pulses)


_ZERO = OpCost(fill_pulses=0, stream_pulses=0, a_blocks=0, b_blocks=0,
               column_blocks=0)


def comparison_cost(
    n_a: int, n_b: int, arity: int, max_rows: int, max_cols: int,
    variant: str = "counter",
) -> OpCost:
    """Cost of an intersection-array run (∩, −, dedup, ∪, projection).

    Counter-streaming, the tuple dimension is blocked to
    ``(max_rows + 1) // 2`` per side; on the fixed-relation variant
    (``variant="fixed"``) B is held in blocks of ``max_rows`` and A
    streams whole past each.  The element dimension is blocked to the
    device width, and each sub-problem costs its schedule's
    ``comparison_pulses`` plus its preload — by
    :func:`~repro.systolic.engine.schedule.block_span_law`, the same
    statement of the decomposition the blocked operators execute
    (:mod:`repro.arrays.decomposition`), which is why prediction and
    simulation agree to the pulse.  The fill is the first block run's
    preload and rows.
    """
    if n_a == 0 or n_b == 0:
        return _ZERO
    law = block_span_law(n_a, n_b, arity, max_rows, max_cols, variant)
    first = law.first
    total, fill = law.pulses, preload_pulses(first) + first.rows
    return OpCost(
        fill_pulses=min(fill, total), stream_pulses=max(0, total - fill),
        a_blocks=law.a_blocks, b_blocks=law.b_blocks,
        column_blocks=law.column_blocks,
    )


def join_cost(
    n_a: int, n_b: int, n_on: int, max_rows: int, max_cols: int,
    variant: str = "counter",
) -> OpCost:
    """Cost of a (θ-)join-array run over ``n_on`` column pairs.

    Mirrors :func:`repro.arrays.decomposition.blocked_join`: identical
    decomposition, but only the join columns stream through the array.
    """
    return comparison_cost(n_a, n_b, n_on, max_rows, max_cols, variant)


def division_cost(
    n_pairs: int, n_distinct: int, n_divisor: int, max_rows: int, max_cols: int
) -> OpCost:
    """Cost of a §7 division-array run.

    By :func:`~repro.systolic.engine.schedule.division_span_law`, the
    decomposition :func:`repro.arrays.decomposition.blocked_divide`
    executes: distinct dividend groups blocked to the device height,
    the divisor row to the device width minus the two dividend columns,
    every block streaming the full pair list.
    """
    if n_pairs == 0 or n_divisor == 0:
        return _ZERO
    law = division_span_law(n_pairs, n_distinct, n_divisor, max_rows, max_cols)
    # First quotient bit: the bottom row's result of the first block.
    total, fill = law.pulses, law.first.result_pulse(law.first.p_rows - 1)
    return OpCost(
        fill_pulses=min(fill, total), stream_pulses=max(0, total - fill),
        a_blocks=law.a_blocks, b_blocks=law.b_blocks,
        column_blocks=law.column_blocks,
    )


def bit_comparison_cost(
    n_a: int,
    n_b: int,
    arity: int,
    element_bits: int,
    max_rows: int,
    max_cols: int,
    variant: str = "counter",
) -> OpCost:
    """Cost of a comparison-array run on a §8 **bit-level** device.

    The word→bit transformation replaces every word column by
    ``element_bits`` bit columns, so the same run streams
    ``arity × element_bits`` columns through a device whose
    ``max_cols`` counts *bit comparators* — §8's area unit.  Identical
    schedule arithmetic otherwise, which keeps the prediction
    pulse-exact against a bit-level device's blocked execution (the
    expanded tuples run through the same
    :func:`repro.arrays.decomposition.blocked_pair_matrix`).
    """
    if element_bits < 1:
        raise ReproError(
            f"element_bits must be >= 1, got {element_bits}"
        )
    return comparison_cost(
        n_a, n_b, arity * element_bits, max_rows, max_cols, variant
    )


#: Sustained rate of one cross-shard link.  A shard interconnect of the
#: paper's era moves data at about the §8 disk's streaming rate — one
#: 500 KB cylinder per 17 ms revolution — so exchanges are costed
#: against the same channel the storage hierarchy already models.
SHARD_LINK_BYTES_PER_SECOND: float = 500_000 / (60.0 / 3600.0)


@dataclass(frozen=True)
class ExchangeCost:
    """Predicted cost of one cross-shard data movement.

    ``tuples`` counts tuples that cross a link, ``nbytes`` the bytes
    they occupy on the wire, and ``seconds`` the completion time with
    every shard's link running in parallel — the shard-level analogue
    of :class:`OpCost` for the planner's placement choice.
    """

    tuples: int
    nbytes: int
    seconds: float

    def __post_init__(self) -> None:
        if self.tuples < 0 or self.nbytes < 0 or self.seconds < 0:
            raise ReproError(f"exchange cost must be non-negative: {self}")


_NO_EXCHANGE = ExchangeCost(tuples=0, nbytes=0, seconds=0.0)


@dataclass(frozen=True)
class ScanCost:
    """Predicted cost of one store-backed base-relation scan.

    The storage-layer analogue of :class:`OpCost`: ``chunks_total`` is
    the relation's §8 block count on the persistent store,
    ``chunks_read`` how many survive index/zone-map pruning for the
    scan's predicate, ``rows_scanned``/``nbytes`` the tuples and bytes
    those surviving chunks stream under the machine's disk model.  The
    physical planner attaches one to each pruned load op so
    ``explain()`` can show ``chunks k/N pruned`` next to the predicted
    read time.
    """

    chunks_total: int
    chunks_read: int
    rows_scanned: int
    nbytes: int

    def __post_init__(self) -> None:
        if not (0 <= self.chunks_read <= self.chunks_total):
            raise ReproError(f"inconsistent scan chunk counts: {self}")
        if self.rows_scanned < 0 or self.nbytes < 0:
            raise ReproError(f"scan cost must be non-negative: {self}")

    @property
    def chunks_pruned(self) -> int:
        """Chunks the zone maps skipped entirely."""
        return self.chunks_total - self.chunks_read


def _element_bytes(element_bits: int) -> int:
    if element_bits < 1:
        raise ReproError(f"element_bits must be >= 1, got {element_bits}")
    return (element_bits + 7) // 8


def broadcast_cost(
    n_tuples: int,
    arity: int,
    element_bits: int,
    shards: int,
    bytes_per_second: float = SHARD_LINK_BYTES_PER_SECOND,
) -> ExchangeCost:
    """Cost of replicating a relation onto every shard.

    With the relation spread roughly evenly, each shard already holds
    ``1/shards`` of it and must receive the rest; every shard's link
    receives concurrently, so the completion time is one shard's
    missing bytes over one link — ``shards``× the per-link bill of
    :func:`shuffle_cost` for the same relation.
    """
    if shards < 1:
        raise ReproError(f"shard count must be >= 1, got {shards}")
    if shards == 1 or n_tuples == 0:
        return _NO_EXCHANGE
    tuple_bytes = arity * _element_bytes(element_bits)
    moved = n_tuples * (shards - 1)
    received = n_tuples * tuple_bytes * (shards - 1) // shards
    return ExchangeCost(
        tuples=moved,
        nbytes=moved * tuple_bytes,
        seconds=received / bytes_per_second,
    )


def shuffle_cost(
    n_tuples: int,
    arity: int,
    element_bits: int,
    shards: int,
    bytes_per_second: float = SHARD_LINK_BYTES_PER_SECOND,
) -> ExchangeCost:
    """Cost of re-partitioning a relation by a new key.

    A deterministic hash sends each tuple to an effectively uniform
    shard, so ``(shards - 1) / shards`` of the relation changes shard;
    the moved bytes spread over all ``shards`` parallel links.
    """
    if shards < 1:
        raise ReproError(f"shard count must be >= 1, got {shards}")
    if shards == 1 or n_tuples == 0:
        return _NO_EXCHANGE
    tuple_bytes = arity * _element_bytes(element_bits)
    moved = n_tuples * (shards - 1) // shards
    nbytes = moved * tuple_bytes
    return ExchangeCost(
        tuples=moved,
        nbytes=nbytes,
        seconds=nbytes / (bytes_per_second * shards),
    )
