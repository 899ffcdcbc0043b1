"""Differential tests: the sharded machine vs. the single machine.

The shard layer's whole contract is *transparency*: for any relations,
any shard count, either partitioning strategy, and either array
backend, a sharded session must produce results equal (as sets — the
relation's equality) to the single unsharded machine, with per-shard
``machine.run`` span trees identical to a standalone machine run on
that shard's piece of the data.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.machine import Base, Divide, EnginePool, Intersect, Join
from repro.relational import Domain, Relation, Schema

SMALL = settings(max_examples=10, deadline=None)

_DOMAIN = Domain("shard-diff", values=range(12))
_PAIR = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))
_ONE = Schema.of(("v", _DOMAIN))

rows = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    min_size=1, max_size=16,
)
divisor_rows = st.lists(
    st.tuples(st.integers(0, 11)), min_size=1, max_size=4,
)


def _run(shards, strategy, backend, stored, plans):
    pool = EnginePool(backend=backend)
    session = pool.session("diff", shards=shards, shard_strategy=strategy)
    for name, (relation, key) in stored.items():
        session.store(name, relation, key=key)
    return session.run_many(plans)


class TestResultEquality:
    @SMALL
    @given(a=rows, b=rows)
    def test_equi_join_and_intersection(self, a, b):
        stored = {
            "A": (Relation(_PAIR, a), "k"),
            "B": (Relation(_PAIR, b), "k"),
        }
        plans = [
            Join(Base("A"), Base("B"), on=(("k", "k"),)),
            Join(Base("A"), Base("B"), on=(("v", "v"),)),  # re-partition
            Intersect(Base("A"), Base("B")),
        ]
        expected, _ = _run(1, "hash", None, stored, plans)
        for shards in (2, 3, 4):
            for strategy in ("hash", "range"):
                got, _ = _run(shards, strategy, None, stored, plans)
                assert got == expected, (shards, strategy)

    @SMALL
    @given(a=rows, d=divisor_rows)
    def test_division(self, a, d):
        stored = {
            "SP": (Relation(_PAIR, a), "k"),
            "D": (Relation(_ONE, d), "v"),
        }
        plans = [Divide(Base("SP"), Base("D"), a_value="v", a_group="k",
                        b_value="v")]
        expected, _ = _run(1, "hash", None, stored, plans)
        for shards in (2, 3, 4):
            for strategy in ("hash", "range"):
                got, _ = _run(shards, strategy, None, stored, plans)
                assert got == expected, (shards, strategy)

    def test_both_backends_agree_when_sharded(self):
        a = [(i % 8, i % 5) for i in range(24)]
        b = [(i % 8, i % 3) for i in range(18)]
        stored = {
            "A": (Relation(_PAIR, a), "k"),
            "B": (Relation(_PAIR, b), "k"),
        }
        plans = [
            Join(Base("A"), Base("B"), on=(("k", "k"),)),
            Join(Base("A"), Base("B"), on=(("v", "v"),), ops=("<=",)),
        ]
        expected, _ = _run(1, "hash", "pulse", stored, plans)
        for backend in ("pulse", "lattice"):
            got, _ = _run(4, "hash", backend, stored, plans)
            assert got == expected, backend


class TestDeterminism:
    def test_repeated_sharded_queries_stay_identical(self):
        stored = {
            "A": (Relation(_PAIR, [(i % 5, i % 7) for i in range(15)]),
                  "k"),
            "B": (Relation(_PAIR, [(i % 5, i % 3) for i in range(10)]),
                  "k"),
        }
        plans = [Join(Base("A"), Base("B"), on=(("k", "k"),))]
        pool = EnginePool()
        session = pool.session("rep", shards=3)
        for name, (relation, key) in stored.items():
            session.store(name, relation, key=key)
        first, first_report = session.run_many(plans)
        for _ in range(3):
            again, report = session.run_many(plans)
            assert again == first
            assert report.makespan == first_report.makespan


class TestSpanIdentity:
    def test_per_shard_run_spans_match_a_standalone_machine(self):
        """Each shard's ``machine.run`` subtree is bit-identical to a
        fresh unsharded session run on that shard's piece alone."""
        a = Relation(_PAIR, [(i % 10, i % 6) for i in range(40)])
        b = Relation(_PAIR, [(i % 10, i % 4) for i in range(28)])
        plans = [Join(Base("A"), Base("B"), on=(("k", "k"),))]

        pool = EnginePool()
        cluster = pool.session("spans", shards=2)
        cluster.store("A", a, key="k")
        cluster.store("B", b, key="k")

        tracer = obs.start(obs.Tracer())
        try:
            cluster.run_many(plans)
        finally:
            obs.stop()
        shard_runs = tracer.find("machine.run")
        assert len(shard_runs) == 2

        sharded = cluster.sharded_catalog
        for index in range(2):
            solo_pool = EnginePool()
            solo = solo_pool.session("solo")
            solo.store("A", sharded.shards[index].relation("A"))
            solo.store("B", sharded.shards[index].relation("B"))
            solo_tracer = obs.start(obs.Tracer())
            try:
                solo.run_many(plans)
            finally:
                obs.stop()
            (solo_run,) = solo_tracer.find("machine.run")
            assert shard_runs[index].structure() == solo_run.structure()
