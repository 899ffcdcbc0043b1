"""The sharded catalog: placement records, fingerprints, validation."""

from __future__ import annotations

import pytest

from repro.errors import PlanError
from repro.relational import Domain, Relation, Schema
from repro.shard import (
    PARTITIONED,
    REPLICATED,
    RangePartitioner,
    ShardedCatalog,
)

_DOMAIN = Domain("shard-cat", values=range(50))
_SCHEMA = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))


def _relation(rows):
    return Relation(_SCHEMA, rows)


class TestPlacement:
    def test_partitioned_store_splits_by_key(self):
        cat = ShardedCatalog(shards=3)
        cat.store("R", _relation([(i, i) for i in range(30)]), key="k")
        placement = cat.placement("R")
        assert placement.kind == PARTITIONED
        assert placement.key == 0
        total = sum(
            len(shard.relation("R")) for shard in cat.shards
        )
        assert total == 30
        snapshot = cat.snapshot([("R", ())])
        assert sum(
            context.bases["R"].rows for context in snapshot.contexts
        ) == 30
        assert snapshot.placements == {"R": placement}

    def test_replicated_store_copies_everywhere(self):
        cat = ShardedCatalog(shards=3)
        relation = _relation([(1, 2), (3, 4)])
        cat.store("D", relation, replicate=True)
        assert cat.placement("D").kind == REPLICATED
        for shard in cat.shards:
            assert shard.relation("D") == relation

    def test_default_key_is_column_zero(self):
        cat = ShardedCatalog(shards=2)
        cat.store("R", _relation([(i, 0) for i in range(10)]))
        assert cat.placement("R").key == 0

    def test_unknown_relation_raises(self):
        cat = ShardedCatalog(shards=2)
        with pytest.raises(PlanError, match="no relation named"):
            cat.placement("ghost")

    def test_contains_and_names(self):
        cat = ShardedCatalog(shards=2)
        cat.store("R", _relation([(1, 1)]))
        assert "R" in cat and "S" not in cat
        assert cat.names() == ["R"]


class TestValidation:
    def test_bad_shard_count(self):
        with pytest.raises(PlanError, match=">= 1"):
            ShardedCatalog(shards=0)

    def test_bad_strategy(self):
        with pytest.raises(PlanError, match="unknown shard strategy"):
            ShardedCatalog(strategy="round-robin")


class TestRangeStrategy:
    def test_partitioner_derived_from_first_relation(self):
        cat = ShardedCatalog(shards=2, strategy="range")
        assert cat.partitioner is None
        cat.store("R", _relation([(i, 0) for i in range(20)]), key="k")
        derived = cat.partitioner
        assert isinstance(derived, RangePartitioner)
        # A second relation over the same key domain co-partitions.
        cat.store("S", _relation([(i, 1) for i in range(20)]), key="k")
        assert cat.placement("R").fp == cat.placement("S").fp
