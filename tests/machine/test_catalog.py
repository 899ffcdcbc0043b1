"""The per-tenant Catalog layer: versioning, lookup, fingerprints."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import PlanError
from repro.machine import (
    Base,
    BaseRecord,
    Catalog,
    EnginePool,
    Join,
    PhysicalPlanner,
    PlanningContext,
)
from repro.machine.physical import base_reads
from repro.perf.disk import DiskModel
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.workloads import join_pair, overlapping_pair, random_relation


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


def _fingerprint(catalog, names, columns=()):
    """The planning context's fingerprint for plans that read ``names``
    and size joins from the distinct counts of ``columns``."""
    return _context(catalog, names, columns).fingerprint


def _context(catalog, names, columns=()):
    keyed = {name: [] for name in names}
    for name, column in columns:
        keyed[name].append(column)
    return catalog.planning_context(
        sorted((name, tuple(keys)) for name, keys in keyed.items())
    )


class TestContentFingerprint:
    """The plan-cache key's catalog part is the fingerprint of the
    planning context a compile plans from."""

    def test_identical_catalogs_share_a_fingerprint(self):
        """Two tenants loading statistically identical data agree —
        the property that makes the pool's plan cache cross-tenant."""
        first, second = Catalog(tenant="a"), Catalog(tenant="b")
        for catalog in (first, second):
            a, b = _pair()
            catalog.store("R", a)
            catalog.store("S", b)
        names = ["R", "S"]
        assert _fingerprint(first, names) == _fingerprint(second, names)

    def test_extra_relation_changes_the_fingerprint(self):
        first, second = Catalog(), Catalog()
        a, b = _pair()
        first.store("R", a)
        second.store("R", a)
        before = _fingerprint(second, ["R", "S"])
        assert _fingerprint(first, ["R", "S"]) == before
        second.store("S", b)
        assert _fingerprint(second, ["R", "S"]) != before

    def test_cardinality_changes_the_fingerprint(self):
        small, large = Catalog(), Catalog()
        small.store("R", join_pair(6, 5, 3, seed=1)[0])
        large.store("R", join_pair(12, 5, 3, seed=1)[0])
        assert _fingerprint(small, ["R"]) != _fingerprint(large, ["R"])

    def test_placement_changes_the_fingerprint(self):
        """The same relation stored vs preloaded plans differently
        (disk read vs resident), so the fingerprints must differ."""
        stored, resident = Catalog(), Catalog()
        a, _ = overlapping_pair(8, 6, 4, arity=2, seed=5)
        stored.store("R", a)
        resident.preload("R", a)
        assert _fingerprint(stored, ["R"]) != _fingerprint(resident, ["R"])

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
        assert _fingerprint(first, ["R"]) == _fingerprint(second, ["R"])
        keyed = [("R", "key")]
        assert _fingerprint(first, ["R"], keyed) != (
            _fingerprint(second, ["R"], keyed)
        )
        context = _context(
            second, ["R", "missing"], [("R", "key"), ("missing", "key")]
        )
        assert context.distinct_count("R", "key") == 2
        assert context.bases["missing"] is None


JOIN = Join(Base("R"), Base("S"), on=(("key", "key"),))


class TestPlanningContext:
    """The planner's input is one frozen value, and its fingerprint is
    the plan-cache key's catalog part."""

    def test_an_unnamed_resident_of_equal_size_shares_the_plan(self):
        """Tenants that differ only in a resident relation their plans
        do not name read equal snapshots — the residents weigh only
        through the room they leave each memory — so they share one
        cached plan, and each runs it to its own right answer."""
        pool = EnginePool()
        a, b = _pair()
        sessions = []
        for tenant, extra in (("t0", "X"), ("t1", "Y")):
            session = pool.session(tenant)
            session.store("R", a)
            session.store("S", b)
            session.preload(extra, random_relation(
                12, 2, universe=99, seed=len(sessions)
            ))
            sessions.append(session)
        first, second = (session.compile(JOIN) for session in sessions)
        assert second is first
        assert pool.plan_cache_info()["hits"] == 1
        expected = algebra.join(a, b, [("key", "key")])
        for session in sessions:
            (result,), _ = session.run_many([JOIN])
            assert result == expected

    def test_a_context_is_a_value(self):
        """Writing or overwriting a relation after a context is built
        changes neither its fingerprint nor the plan compiled from it."""
        pool = EnginePool()
        catalog = pool.catalog()
        a, b = _pair()
        catalog.store("R", a)
        catalog.store("S", b)
        context = catalog.planning_context(
            base_reads([JOIN]), pool.devices,
            (pool.memory_count, pool.memory_bytes), pool.element_bits,
        )
        fingerprint = context.fingerprint
        explain = PhysicalPlanner(context).compile([JOIN]).explain()
        catalog.store("R", join_pair(30, 8, 4, seed=7)[0])
        catalog.store("S", a)
        catalog.store("T", b)
        assert context.fingerprint == fingerprint
        assert PhysicalPlanner(context).compile([JOIN]).explain() == explain
        fresh = catalog.planning_context(
            base_reads([JOIN]), pool.devices,
            (pool.memory_count, pool.memory_bytes), pool.element_bits,
        )
        assert fresh.fingerprint != fingerprint
        assert PhysicalPlanner(fresh).compile([JOIN]).explain() != explain

    def test_every_field_is_in_the_fingerprint(self):
        """Changing any one field of a context, or of one of its base
        records, changes the fingerprint."""
        a, b = _pair()
        catalog = Catalog()
        catalog.store("R", a)
        catalog.store("S", b)
        context = catalog.planning_context(
            base_reads([JOIN]), EnginePool().devices, (4, 1024), 32
        )
        record = context.bases["R"]
        other_records = {
            "rows": record.rows + 1,
            "schema": b.schema,
            "resident": not record.resident,
            "cylinder": 7,
            "distinct": (("key", 1),),
            "handle": dataclasses.make_dataclass("Handle", ["digest"])("d"),
        }
        assert set(other_records) == set(BaseRecord._fields)
        for name, value in other_records.items():
            changed = context._replace(
                bases={**context.bases, "R": record._replace(**{name: value})}
            )
            assert changed.fingerprint != context.fingerprint, name
        others = {
            "bases": {"R": record},
            "disk_model": DiskModel(cylinder_bytes=100),
            "logic_per_track": True,
            "disk_element_bits": 8,
            "devices": context.devices[1:],
            "memory_free": (1, 2),
            "element_bits": 8,
        }
        assert set(others) == set(PlanningContext._fields)
        for name, value in others.items():
            changed = context._replace(**{name: value})
            assert changed.fingerprint != context.fingerprint, name
