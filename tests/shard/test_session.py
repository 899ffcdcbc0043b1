"""Session/pool/serving integration of the shard layer."""

from __future__ import annotations

import pytest

from repro.config import env_choice, env_int
from repro.errors import ConfigError
from repro.machine import Base, EnginePool, Join
from repro.relational import Domain, Relation, Schema
from repro.serve import ServiceClient
from repro.shard import STRATEGIES, ShardedExecutionReport

from tests.serve.test_serve import _ServerHarness

_DOMAIN = Domain("shard-sess", values=range(20))
_SCHEMA = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))


def _pair():
    a = Relation(_SCHEMA, [(i % 10, i % 6) for i in range(30)])
    b = Relation(_SCHEMA, [(i % 10, i % 4) for i in range(20)])
    return a, b


class TestEnvironmentKnobs:
    """``repro.config`` over the shard strategies — the only direct
    tests of ``env_choice``.  A session's shard layout itself comes
    from ``shards=`` / ``shard_strategy=`` (``--shards`` /
    ``--shard-strategy``), never from the environment."""

    def test_defaults(self):
        assert env_int("X_COUNT", 1, minimum=1, environ={}) == 1
        assert env_choice(
            "X_STRATEGY", "hash", STRATEGIES, environ={}
        ) == "hash"
        session = EnginePool().session("plain")
        assert (session.shards, session.shard_strategy) == (1, "hash")

    def test_malformed_count_raises(self):
        with pytest.raises(ConfigError, match="X_COUNT"):
            env_int("X_COUNT", 1, minimum=1, environ={"X_COUNT": "many"})
        with pytest.raises(ConfigError, match=">= 1"):
            env_int("X_COUNT", 1, minimum=1, environ={"X_COUNT": "0"})

    def test_malformed_strategy_raises(self):
        with pytest.raises(ConfigError, match="X_STRATEGY"):
            env_choice("X_STRATEGY", "hash", STRATEGIES,
                       environ={"X_STRATEGY": "zigzag"})

    def test_strategy_is_case_insensitive(self):
        assert env_choice(
            "X_STRATEGY", "hash", STRATEGIES,
            environ={"X_STRATEGY": " Range "},
        ) == "range"


class TestSessionWiring:
    def test_one_shard_is_a_literal_pass_through(self):
        session = EnginePool().session("solo", shards=1)
        assert session._sharded is None
        assert session.sharded_catalog is None
        a, b = _pair()
        session.store("A", a, key="k")  # placement knobs are no-ops
        session.store("B", b)
        result, report = session.run(
            Join(Base("A"), Base("B"), on=(("k", "k"),))
        )
        assert not isinstance(report, ShardedExecutionReport)
        assert len(result)

    def test_sharded_session_reports_cluster_shape(self):
        pool = EnginePool()
        session = pool.session("multi", shards=4)
        a, b = _pair()
        session.store("A", a, key="k")
        session.store("B", b, key="k")
        result, report = session.run(
            Join(Base("A"), Base("B"), on=(("k", "k"),))
        )
        assert isinstance(report, ShardedExecutionReport)
        assert report.shards == 4
        assert len(report.shard_reports) == 4
        assert "shards=4" in repr(session)
        assert {s.label.split(":")[0] for s in report.steps} == {
            f"shard{i}" for i in range(4)
        }

    def test_sessions_share_the_tenant_sharded_catalog(self):
        pool = EnginePool()
        first = pool.session("twin", shards=2)
        second = pool.session("twin", shards=2)
        a, _ = _pair()
        first.store("A", a, key="k")
        assert "A" in second.sharded_catalog

    def test_sharded_compile_predicts_and_caches(self):
        pool = EnginePool()
        session = pool.session("compile", shards=2)
        a, b = _pair()
        session.store("A", a, key="k")
        session.store("B", b, key="k")
        plan = Join(Base("A"), Base("B"), on=(("k", "k"),))
        compiled = session.compile(plan)
        assert compiled.shards == 2
        assert compiled.predicted_makespan > 0
        assert compiled.plan.exchanges == ()

    def test_sharded_query_counts_once_in_tenant_stats(self):
        pool = EnginePool()
        session = pool.session("acct", shards=3)
        a, b = _pair()
        session.store("A", a, key="k")
        session.store("B", b, key="k")
        session.run(Join(Base("A"), Base("B"), on=(("k", "k"),)))
        assert pool.tenant_stats() == {"acct": 1}


class TestShardedServing:
    def test_sharded_server_round_trip_matches_unsharded(self):
        a, b = _pair()
        query = "join(A, B, k == k)"

        def serve_and_query(**server_kwargs):
            with _ServerHarness(**server_kwargs) as harness:
                host, port = harness.address
                with ServiceClient(host, port, tenant="acme") as db:
                    db.store("A", a)
                    db.store("B", b)
                    reply = db.query(query)
                    return sorted(
                        tuple(r) for r in reply["relation"]["rows"]
                    )

        assert serve_and_query(shards=4) == serve_and_query()

    def test_server_store_accepts_placement_fields(self):
        a, b = _pair()
        with _ServerHarness(shards=2) as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="acme") as db:
                db.store("A", a, key="k")
                db.store("B", b, replicate=True)
                reply = db.query("join(A, B, k == k)")
                assert reply["ok"]
                assert reply["rows"] > 0
