"""``store:NAME:corrupt`` / ``store:NAME:torn``: a damaged chunk.

The rule fires at the machine's read of a store-backed base relation
and raises the very ``StoreError`` the chunk pool's loader raises for a
chunk that fails its CRC32 check or holds the wrong element count.  A
damaged chunk does not heal on a re-read, so the read is not retried;
the ledger counts the fault under ``store``, and the failed read leaves
no block in the chunk pool.  Once the rule is spent, queries return the
fault-free rows.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, StoreError
from repro.faults import parse_faults
from repro.machine import Base, EnginePool, Select, SystolicDatabaseMachine
from repro.relational import Relation, algebra
from repro.shard import ShardedCatalog
from repro.store import CHUNK_POOL_BYTES, RelationStore
from repro.store import columnar
from repro.workloads import join_pair

ROWS, _ = join_pair(40, 30, 8, seed=31)
QUERY = Select(Base("T"), 0, "<", 5000)
DAMAGES = ("corrupt", "torn")


@pytest.fixture
def pool(monkeypatch):
    """A fresh chunk pool, so what a query leaves in it can be read."""
    fresh = columnar._ChunkPool(CHUNK_POOL_BYTES)
    monkeypatch.setattr(columnar, "_POOL", fresh)
    return fresh


def _damaged_read(tmp_path, damage: str) -> str:
    """The message of a scan of ``T`` whose first chunk really is
    corrupt (one byte flipped) or torn (cut to half its bytes)."""
    store = RelationStore(tmp_path / "damaged")
    store.write("T", ROWS, chunk_rows=10)
    chunk = tmp_path / "damaged" / "T" / "chunk-00000.bin"
    data = bytearray(chunk.read_bytes())
    if damage == "corrupt":
        data[0] ^= 1
    else:
        del data[len(data) // 2:]
    chunk.write_bytes(bytes(data))
    with pytest.raises(StoreError) as caught:
        store.open("T").read()
    return str(caught.value)


def _expected():
    return algebra.select(ROWS, 0, "<", 5000)


class TestGrammar:
    @pytest.mark.parametrize("spec, damage, count", [
        ("store:T:corrupt", "corrupt", 1),
        ("store:T:torn:3", "torn", 3),
        ("store:*:CORRUPT", "corrupt", 1),
    ])
    def test_a_store_rule_parses_and_round_trips(self, spec, damage, count):
        (rule,) = parse_faults(spec).rules
        assert (rule.kind, rule.damage, rule.count) == ("store", damage, count)
        assert parse_faults(rule.describe()).rules == [rule]

    @pytest.mark.parametrize("bad", [
        "store:T",                # the damage is required
        "store:T:rotten",         # neither corrupt nor torn
        "store:T:3",
        "store:T:corrupt:kill",   # only device faults can be permanent
        "store:T:torn:two",
        "store:T:torn:1:2",       # too many fields
    ])
    def test_a_malformed_store_rule_raises_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_faults(bad)


class TestMachine:
    @pytest.mark.parametrize("damage", DAMAGES)
    def test_the_read_fails_once_with_the_pools_error(
        self, tmp_path, pool, damage
    ):
        store = RelationStore(tmp_path / "relations")
        store.write("T", ROWS, chunk_rows=10)
        faults = parse_faults(f"store:T:{damage}")
        machine = SystolicDatabaseMachine(faults=faults)
        machine.attach_store(store)
        with pytest.raises(StoreError) as caught:
            machine.run(QUERY)
        assert pool.info()["blocks"] == pool.info()["misses"] == 0
        ledger = faults.snapshot()
        assert (ledger["injected"], ledger["retries"]) == ({"store": 1}, 0)
        assert str(caught.value) == _damaged_read(tmp_path, damage)
        # The rule is spent: the next query reads the chunks.
        result, _ = machine.run(QUERY)
        assert result == _expected()
        assert faults.snapshot()["injected"] == {"store": 1}

    def test_an_empty_relation_has_no_chunk_to_damage(self, tmp_path):
        store = RelationStore(tmp_path / "relations")
        store.write("T", Relation(ROWS.schema))
        faults = parse_faults("store:T:torn")
        machine = SystolicDatabaseMachine(faults=faults)
        machine.attach_store(store)
        result, _ = machine.run(QUERY)
        assert len(result) == 0
        assert faults.snapshot()["injected"] == {}

    def test_a_relation_held_in_memory_is_not_store_backed(self):
        faults = parse_faults("store:T:corrupt")
        machine = SystolicDatabaseMachine(faults=faults)
        machine.store("T", ROWS)
        result, _ = machine.run(QUERY)
        assert result == _expected()
        assert faults.snapshot()["injected"] == {}


class TestTwoShards:
    @staticmethod
    def _session(tmp_path, faults):
        """A 2-shard session whose shards read ``T`` from stores of their
        own.  A sharded catalog places relations in memory only (a
        placed relation shadows a store), so each shard's piece comes
        from a scratch placement and is written to that shard's store,
        and the placement is recorded by hand."""
        session = EnginePool(faults=faults).session("acme", shards=2)
        scratch = ShardedCatalog(shards=2)
        scratch.store("T", ROWS)
        catalog = session.sharded_catalog
        for index, (shard, placed) in enumerate(
            zip(catalog.shards, scratch.shards)
        ):
            store = RelationStore(tmp_path / f"shard{index}")
            store.write("T", placed.relation("T"), chunk_rows=10)
            shard.attach_store(store)
        catalog._placements["T"] = scratch.placement("T")
        return session

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_each_shards_read_fails_once(self, tmp_path, pool, damage):
        faults = parse_faults(f"store:T:{damage}")
        session = self._session(tmp_path, faults)
        # Each shard's read is a site of its own: shard 0's fails the
        # first query, shard 1's the second.
        for shard in (0, 1):
            with pytest.raises(StoreError, match=(
                "fails its CRC32 check" if damage == "corrupt"
                else "holds 15 elements, manifest says 30"
            )):
                session.run_many([QUERY])
            ledger = faults.snapshot()
            assert ledger["injected"] == {"store": shard + 1}
            assert ledger["retries"] == 0
            assert pool.info()["blocks"] == 0
        [result], _ = session.run_many([QUERY])
        assert result == _expected()
        assert faults.snapshot()["injected"] == {"store": 2}
