"""Deterministic partitioning of relations across shards.

§8 chops one oversized problem into blocks that fit one array; the
shard layer applies the same idea one level up, chopping a *relation*
into pieces that fit one machine.  A :class:`Partitioner` maps the
encoded value of a chosen key column to a shard index — the same tuple
always lands on the same shard, on any host, in any process — which is
what lets two relations partitioned the same way join shard-locally
with zero cross-shard traffic.

Two strategies, following the array-storage literature's chunking
vocabulary:

* :class:`HashPartitioner` — multiplicative (Fibonacci) hashing of the
  encoded key; spreads any key distribution near-uniformly and is the
  canonical partitioner for planner-inserted re-partition exchanges;
* :class:`RangePartitioner` — explicit cut points over the encoded
  (order-preserving) value space; keeps key ranges together, the way a
  clustered store would.

A partitioner's :meth:`~Partitioner.fingerprint` is a hashable identity
two relations must share (along with the key position) to count as
co-partitioned; it also feeds the sharded catalog's content
fingerprint, so the shared plan cache distinguishes placements.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro.errors import PlanError
from repro.relational.relation import DistinctRows, Relation
from repro.relational.schema import ColumnRef

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "STRATEGIES",
]

#: Accepted ``--shard-strategy`` / ``shard_strategy=`` spellings.
STRATEGIES = ("hash", "range")

_MASK = (1 << 64) - 1
#: 2^64 / φ — Knuth's multiplicative-hash constant.
_MIX = 0x9E3779B97F4A7C15


class Partitioner(ABC):
    """Maps encoded key values to shard indices, deterministically."""

    @abstractmethod
    def shard_of(self, value: int, shards: int) -> int:
        """The shard index in ``[0, shards)`` owning ``value``."""

    @abstractmethod
    def _shards_of(self, values: np.ndarray, shards: int) -> np.ndarray:
        """:meth:`shard_of` over a whole int64 key column."""

    @abstractmethod
    def fingerprint(self) -> tuple:
        """Hashable identity: equal fingerprints partition identically."""

    def partition(
        self, relation: Relation, key: ColumnRef, shards: int
    ) -> list[Relation]:
        """Split a relation into ``shards`` pieces by its key column.

        Pieces keep the input's schema and tuple order; their disjoint
        union is the input relation.  The cut is computed on the key
        column and the pieces are row subsets of the relation's matrix,
        one mask pass per shard (docs/PERF.md, "exchange/merge", has
        the measurements against a stable ``argsort`` + ``np.split``).
        """
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        owner = self._shards_of(
            relation.array[:, relation.schema.resolve(key)], shards
        )
        return [
            Relation(
                relation.schema, DistinctRows.where(relation, owner == shard)
            )
            for shard in range(shards)
        ]


class HashPartitioner(Partitioner):
    """Fibonacci hashing of the encoded key value.

    The multiply-and-fold mixes low and high bits, so consecutive keys
    (the common case after dictionary encoding) spread evenly across
    shards instead of striping.
    """

    def shard_of(self, value: int, shards: int) -> int:
        mixed = ((value & _MASK) * _MIX) & _MASK
        mixed ^= mixed >> 29
        return mixed % shards

    def _shards_of(self, values: np.ndarray, shards: int) -> np.ndarray:
        # uint64 arithmetic wraps modulo 2**64, which is the scalar
        # version's ``& _MASK``.
        mixed = values.astype(np.uint64) * np.uint64(_MIX)
        mixed ^= mixed >> np.uint64(29)
        return mixed % np.uint64(shards)

    def fingerprint(self) -> tuple:
        return ("hash", _MIX)

    def __repr__(self) -> str:
        return "HashPartitioner()"


class RangePartitioner(Partitioner):
    """Cut-point partitioning over the encoded value space.

    ``cuts`` are strictly increasing boundaries: values ``<= cuts[0]``
    go to shard 0, values in ``(cuts[k-1], cuts[k]]`` to shard ``k``,
    and values above the last cut to the last shard.  Encoded integer
    values are order-preserving, so ranges over encodings are ranges
    over the original values.
    """

    def __init__(self, cuts: Sequence[int]) -> None:
        self.cuts = tuple(cuts)
        if list(self.cuts) != sorted(set(self.cuts)):
            raise PlanError(
                f"range cuts must be strictly increasing, got {cuts!r}"
            )
        try:
            self._cut_column = np.asarray(self.cuts, dtype=np.int64)
        except OverflowError:
            raise PlanError(
                f"range cuts must fit a signed 64-bit word, got {cuts!r}"
            ) from None

    @classmethod
    def from_values(
        cls, values: Iterable[int], shards: int
    ) -> "RangePartitioner":
        """Equi-depth cuts derived from observed key values.

        Distinct values are split into ``shards`` runs of near-equal
        population; deterministic for a given value multiset.
        """
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        distinct = sorted(set(values))
        cuts = []
        for k in range(1, shards):
            index = (k * len(distinct)) // shards
            if 0 < index < len(distinct):
                cuts.append(distinct[index - 1])
        return cls(sorted(set(cuts)))

    def shard_of(self, value: int, shards: int) -> int:
        return min(bisect.bisect_left(self.cuts, value), shards - 1)

    def _shards_of(self, values: np.ndarray, shards: int) -> np.ndarray:
        return np.minimum(
            np.searchsorted(self._cut_column, values), shards - 1
        )

    def fingerprint(self) -> tuple:
        return ("range", self.cuts)

    def __repr__(self) -> str:
        return f"RangePartitioner(cuts={self.cuts!r})"
