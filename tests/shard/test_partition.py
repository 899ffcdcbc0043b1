"""Partitioners: determinism, disjoint-union coverage, boundaries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.relational import Domain, Relation, Schema
from repro.shard import HashPartitioner, RangePartitioner, STRATEGIES

SMALL = settings(max_examples=25, deadline=None)

_DOMAIN = Domain("part-prop", values=range(100))
_SCHEMA = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))


def _relation(rows):
    return Relation(_SCHEMA, rows)


class TestHashPartitioner:
    def test_shard_of_is_deterministic_and_in_range(self):
        p = HashPartitioner()
        for shards in (1, 2, 3, 4, 7):
            for value in range(200):
                index = p.shard_of(value, shards)
                assert 0 <= index < shards
                assert index == HashPartitioner().shard_of(value, shards)

    def test_consecutive_keys_spread(self):
        """Fibonacci mixing must not stripe dictionary-encoded keys
        onto one shard."""
        p = HashPartitioner()
        buckets = [0] * 4
        for value in range(1000):
            buckets[p.shard_of(value, 4)] += 1
        assert min(buckets) > 150  # near-uniform, not degenerate

    def test_fingerprints_agree(self):
        assert HashPartitioner().fingerprint() == (
            HashPartitioner().fingerprint()
        )
        assert HashPartitioner().fingerprint() != RangePartitioner(
            (5,)
        ).fingerprint()


class TestRangePartitioner:
    def test_documented_boundary_semantics(self):
        p = RangePartitioner((10, 20))
        assert p.shard_of(0, 3) == 0
        assert p.shard_of(10, 3) == 0   # values <= cuts[0] → shard 0
        assert p.shard_of(11, 3) == 1
        assert p.shard_of(20, 3) == 1
        assert p.shard_of(21, 3) == 2
        assert p.shard_of(10_000, 3) == 2

    def test_cuts_must_strictly_increase(self):
        with pytest.raises(PlanError, match="strictly increasing"):
            RangePartitioner((3, 3))
        with pytest.raises(PlanError, match="strictly increasing"):
            RangePartitioner((5, 2))

    def test_cuts_must_fit_the_word_every_key_fits(self):
        with pytest.raises(PlanError, match="signed 64-bit word"):
            RangePartitioner((1, 2 ** 66))

    def test_from_values_is_deterministic_equi_depth(self):
        values = [7, 1, 9, 3, 5, 1, 7, 3]
        p = RangePartitioner.from_values(values, 2)
        assert p.cuts == RangePartitioner.from_values(values, 2).cuts
        left = [v for v in set(values) if p.shard_of(v, 2) == 0]
        right = [v for v in set(values) if p.shard_of(v, 2) == 1]
        assert max(left) < min(right)  # ranges stay contiguous
        assert abs(len(left) - len(right)) <= 1  # equi-depth

    def test_fewer_distinct_values_than_shards(self):
        p = RangePartitioner.from_values([4, 4, 4], 4)
        assert p.shard_of(4, 4) == 0  # degenerate but well-defined


class TestPartition:
    def test_pieces_reassemble_to_the_relation(self):
        rows = [(i % 10, i % 7) for i in range(40)]
        relation = _relation(rows)
        for partitioner in (HashPartitioner(), RangePartitioner((3, 6))):
            pieces = partitioner.partition(relation, "k", 3)
            assert len(pieces) == 3
            assert sum(len(p) for p in pieces) == len(relation)
            merged = Relation(
                _SCHEMA, [t for p in pieces for t in p.tuples]
            )
            assert merged == relation

    def test_same_key_lands_on_the_same_shard(self):
        relation = _relation([(5, i) for i in range(6)])
        pieces = HashPartitioner().partition(relation, 0, 4)
        assert sum(1 for p in pieces if len(p)) == 1

    def test_invalid_shard_count_raises(self):
        with pytest.raises(PlanError, match=">= 1"):
            HashPartitioner().partition(_relation([(1, 2)]), 0, 0)

    def test_strategy_registry(self):
        assert STRATEGIES == ("hash", "range")

    @SMALL
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 99)),
            min_size=0, max_size=30,
        ),
        shards=st.integers(1, 5),
    )
    def test_partition_is_a_disjoint_cover(self, rows, shards):
        relation = _relation(rows)
        pieces = HashPartitioner().partition(relation, 0, shards)
        seen = [t for p in pieces for t in p.tuples]
        assert sorted(seen) == sorted(relation.tuples)
        p = HashPartitioner()
        for index, piece in enumerate(pieces):
            for row in piece.tuples:
                assert p.shard_of(row[0], shards) == index

    @SMALL
    @given(
        keys=st.lists(
            st.integers(-4, 4)
            | st.sampled_from([-(2 ** 63), 2 ** 63 - 1]),
            min_size=0, max_size=30,
        ),
        shards=st.integers(1, 5),
        cuts=st.sets(
            st.integers(-5, 5) | st.sampled_from([-(2 ** 63), 2 ** 63 - 1]),
            max_size=4,
        ),
    )
    def test_the_column_cut_is_the_scalar_cut(self, keys, shards, cuts):
        """Pieces are cut on the whole key column at once; every row
        must land where ``shard_of`` sends it, in input order — the
        ends of the int64 word included."""
        relation = _relation([(k, i) for i, k in enumerate(keys)])
        for p in (HashPartitioner(), RangePartitioner(sorted(cuts))):
            pieces = p.partition(relation, 0, shards)
            assert [list(piece.tuples) for piece in pieces] == [
                [row for row in relation.tuples
                 if p.shard_of(row[0], shards) == index]
                for index in range(shards)
            ]
