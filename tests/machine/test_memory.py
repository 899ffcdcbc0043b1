"""Memory modules (Fig 9-1 left column)."""

import pytest

from repro.errors import CapacityError, PlanError
from repro.machine import MemoryModule, relation_bytes
from repro.relational import Relation


class TestRelationBytes:
    def test_size_formula(self, pair_schema):
        r = Relation(pair_schema, [(1, 2), (3, 4), (5, 6)])
        assert relation_bytes(r, element_bits=32) == 3 * 2 * 4
        assert relation_bytes(r, element_bits=16) == 3 * 2 * 2

    def test_empty_relation(self, pair_schema):
        assert relation_bytes(Relation(pair_schema)) == 0

    def test_validation(self, pair_schema):
        with pytest.raises(PlanError):
            relation_bytes(Relation(pair_schema), element_bits=0)


class TestMemoryModule:
    def test_store_load_roundtrip(self, pair_schema):
        memory = MemoryModule("m", capacity_bytes=1000)
        r = Relation(pair_schema, [(1, 2)])
        memory.store("r", r, 100)
        assert memory.load("r") == r
        assert memory.size_of("r") == 100
        assert memory.holds("r")
        assert memory.used_bytes == 100
        assert memory.free_bytes == 900

    def test_capacity_enforced(self, pair_schema):
        memory = MemoryModule("m", capacity_bytes=100)
        r = Relation(pair_schema, [(1, 2)])
        with pytest.raises(CapacityError, match="cannot fit"):
            memory.store("r", r, 200)

    def test_duplicate_key_rejected(self, pair_schema):
        memory = MemoryModule("m", capacity_bytes=1000)
        r = Relation(pair_schema, [(1, 2)])
        memory.store("r", r, 10)
        with pytest.raises(PlanError, match="already holds"):
            memory.store("r", r, 10)

    def test_used_bytes_is_a_running_total(self, pair_schema):
        """Stores add, evicts subtract, and a refused store changes
        nothing — at every step the total equals the residents' sizes."""
        memory = MemoryModule("m", capacity_bytes=100)
        r = Relation(pair_schema, [(1, 2)])
        held: dict[str, int] = {}

        def check() -> None:
            assert memory.used_bytes == sum(held.values())
            assert memory.free_bytes == 100 - sum(held.values())
            assert all(memory.size_of(k) == n for k, n in held.items())

        for key, nbytes in [("a", 30), ("b", 0), ("c", 45)]:
            memory.store(key, r, nbytes)
            held[key] = nbytes
            check()
        with pytest.raises(CapacityError, match="cannot fit"):
            memory.store("d", r, 26)  # one byte past the boundary
        check()
        memory.store("d", r, 25)  # exactly fills it
        held["d"] = 25
        check()
        assert memory.free_bytes == 0
        for key in ["a", "d", "b"]:
            memory.evict(key)
            del held[key]
            check()
        with pytest.raises(PlanError, match="does not hold"):
            memory.evict("a")
        check()
        memory.store("e", r, 55)  # the freed room is reusable
        held["e"] = 55
        check()

    def test_evict_frees_space(self, pair_schema):
        memory = MemoryModule("m", capacity_bytes=100)
        r = Relation(pair_schema, [(1, 2)])
        memory.store("r", r, 100)
        memory.evict("r")
        assert memory.free_bytes == 100
        memory.store("r2", r, 100)

    def test_missing_key_errors(self):
        memory = MemoryModule("m")
        with pytest.raises(PlanError, match="does not hold"):
            memory.load("nope")
        with pytest.raises(PlanError):
            memory.evict("nope")
        with pytest.raises(PlanError):
            memory.size_of("nope")

    def test_transfer_time(self):
        memory = MemoryModule("m", bandwidth_bytes_per_s=1000.0)
        assert memory.transfer_seconds(500) == pytest.approx(0.5)
        with pytest.raises(PlanError):
            memory.transfer_seconds(-1)

    def test_default_bandwidth_matches_disk_rate(self):
        # §8: the system must absorb ~500 KB / 17 ms per stream.
        memory = MemoryModule("m")
        assert memory.bandwidth_bytes_per_s == pytest.approx(500_000 / 0.017)

    def test_validation(self):
        with pytest.raises(CapacityError):
            MemoryModule("m", capacity_bytes=0)
