"""The per-tenant Catalog layer: versioning, lookup, fingerprints."""

from __future__ import annotations

import pytest

from repro.errors import PlanError
from repro.machine import Catalog
from repro.relational.relation import Relation
from repro.workloads import join_pair, overlapping_pair


def _pair():
    return join_pair(10, 8, 4, seed=31)


class TestCatalogBasics:
    def test_store_and_lookup(self):
        catalog = Catalog(tenant="acme")
        a, b = _pair()
        catalog.store("R", a)
        catalog.store("S", b)
        assert catalog.names() == ["R", "S"]
        assert catalog.relation("R") == a
        assert "R" in catalog
        assert "missing" not in catalog

    def test_preload_and_shadowing(self):
        catalog = Catalog()
        a, b = _pair()
        catalog.store("R", a)
        catalog.preload("HOT", b)
        assert set(catalog.names()) == {"R", "HOT"}
        assert catalog.relation("HOT") == b
        assert catalog.preloaded() == [("HOT", b)]

    def test_double_preload_raises(self):
        catalog = Catalog()
        a, _ = _pair()
        catalog.preload("X", a)
        with pytest.raises(PlanError, match="already resident"):
            catalog.preload("X", a)


class TestContentFingerprint:
    def test_identical_catalogs_share_a_fingerprint(self):
        """Two tenants loading statistically identical data agree —
        the property that makes the pool's plan cache cross-tenant."""
        first, second = Catalog(tenant="a"), Catalog(tenant="b")
        for catalog in (first, second):
            a, b = _pair()
            catalog.store("R", a)
            catalog.store("S", b)
        names = ["R", "S"]
        assert first.content_fingerprint(names) == (
            second.content_fingerprint(names)
        )

    def test_extra_relation_changes_the_fingerprint(self):
        first, second = Catalog(), Catalog()
        a, b = _pair()
        first.store("R", a)
        second.store("R", a)
        before = second.content_fingerprint(["R", "S"])
        assert first.content_fingerprint(["R", "S"]) == before
        second.store("S", b)
        assert second.content_fingerprint(["R", "S"]) != before

    def test_cardinality_changes_the_fingerprint(self):
        small, large = Catalog(), Catalog()
        small.store("R", join_pair(6, 5, 3, seed=1)[0])
        large.store("R", join_pair(12, 5, 3, seed=1)[0])
        assert small.content_fingerprint(["R"]) != (
            large.content_fingerprint(["R"])
        )

    def test_placement_changes_the_fingerprint(self):
        """The same relation stored vs preloaded plans differently
        (disk read vs resident), so the fingerprints must differ."""
        stored, resident = Catalog(), Catalog()
        a, _ = overlapping_pair(8, 6, 4, arity=2, seed=5)
        stored.store("R", a)
        resident.preload("R", a)
        assert stored.content_fingerprint(["R"]) != (
            resident.content_fingerprint(["R"])
        )

    def test_join_key_distinct_counts_change_the_fingerprint(self):
        """The planner sizes a join of two base relations from its key
        columns' distinct counts, so those counts — and only those the
        plans read — are part of the value."""
        a, _ = _pair()
        rows = a.array.copy()
        rows[:, 0] %= 2
        rows[:, 1] = range(len(rows))
        crowded = Relation(a.schema, rows)
        first, second = Catalog(), Catalog()
        first.store("R", a)
        second.store("R", crowded)
        assert len(a) == len(crowded)
        assert first.content_fingerprint(["R"]) == (
            second.content_fingerprint(["R"])
        )
        keyed = [("R", "key")]
        assert first.content_fingerprint(["R"], keyed) != (
            second.content_fingerprint(["R"], keyed)
        )
        assert second.distinct_count("R", "key") == 2
        assert second.distinct_count("missing", "key") is None
