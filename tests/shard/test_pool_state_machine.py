"""A stateful run of one tenant's store / preload / query on one pool.

One :class:`EnginePool` with ``bulk_join``'s device shape serves a
2-shard and a 1-shard session of one tenant.  Hypothesis interleaves
stores and rewrites of ``JA`` / ``JB`` (among them rewrites whose row
count and distinct counts equal the old ones, so every record keeps
its numbers and the sharded lowering its cache key), preloads, and
warm runs of ``bulk_join``'s key and non-key joins.

After every step the joins agree, row for row: sharded == single ==
``algebra.join`` of what the catalog holds.  And a warm sharded run —
whose lanes preload what they receive with the records and free bytes
kept beside the shard snapshot (``ShardedSnapshot.received``) — equals
the cold run of a fresh pool that replayed the same stores and
preloads: in rows, in simulated timeline, and in what it keeps.  The
last is the check that bites: a record that outlived its piece plans
the lane for other data, which the small relations here do not always
show in the timeline.

The hypothesis plugin marks only ``@given`` tests, so the class is
marked by hand; CI's explore step (``-m hypothesis``) runs it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.arrays import ArrayCapacity
from repro.machine import Base, EnginePool, Join
from repro.machine.physical import plan_keys
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.systolic.engine import LatticeEngine
from repro.workloads import join_pair

JOINS = {
    "key": Join(Base("JA"), Base("JB"), on=(("key", "key"),)),
    "nonkey": Join(Base("JA"), Base("JB"), on=(("a0", "b0"),)),
}
ON = {"key": ("key", "key"), "nonkey": ("a0", "b0")}
SIDE = {"JA": 0, "JB": 1}
UNREAD = ("P0", "P1")  # preloads no join names

seeds = st.integers(0, 2**16)


def _pool() -> EnginePool:
    """``bulk_join``'s pool: one 1023×8 lattice join device."""
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    return EnginePool(
        devices=(("join", 1, capacity),),
        capacity=capacity,
        memory_bytes=512 * 1024 * 1024,
        backend=LatticeEngine(chunk_bytes=128 * 1024 * 1024),
    )


def _sessions(pool: EnginePool) -> tuple:
    return pool.session("t", shards=2), pool.session("t", shards=1)


def _drawn(name: str, seed: int) -> Relation:
    """A side of ``join_pair`` small enough for a few hundred runs."""
    rng = np.random.default_rng(seed)
    n_a, n_b = int(rng.integers(4, 48)), int(rng.integers(2, 24))
    pair = join_pair(
        n_a, n_b, int(rng.integers(0, min(n_a, n_b) + 1)),
        universe=n_a + n_b,
        seed=seed,
    )
    return pair[SIDE.get(name, 0)]


def _same_counts(relation: Relation, seed: int) -> Relation:
    """Other rows with ``relation``'s row count and distinct counts, on
    every shard too: the key column kept, each payload column's values
    permuted among themselves (a bijection keeps the distinct values of
    any set of rows)."""
    rng = np.random.default_rng(seed)
    matrix = relation.array.copy()
    for position in range(1, relation.arity):
        values, inverse = np.unique(matrix[:, position], return_inverse=True)
        matrix[:, position] = rng.permutation(values)[inverse]
    return Relation(relation.schema, matrix)


def _rows(relation: Relation) -> list:
    return sorted(relation.tuples)


def _kept(session, plan) -> dict:
    """The values of what ``session`` keeps of what ``plan``'s lanes
    received: each piece's records, and the free bytes they leave."""
    fingerprint, reads = plan_keys([plan])
    snapshot = session.sharded_catalog.snapshot(reads, session.pool.devices)
    return {
        key: {columns: record.key for columns, record in kept.items()}
        if isinstance(key[-1], str) else kept[1]
        for key, kept in snapshot.received.get(fingerprint, {}).items()
    }


class PoolSessionsMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pair, self.solo = _sessions(_pool())
        #: every store / preload in order, replayed by the cold pool.
        self.history: list[tuple[str, str, Relation]] = []
        self.stored: dict[str, Relation] = {}
        self.preloaded: dict[str, Relation] = {}

    def _apply(self, verb: str, name: str, relation: Relation, sessions):
        for session in sessions:
            key = "key" if session.shards > 1 else None
            getattr(session, verb)(name, relation, key=key)

    def _do(self, verb: str, name: str, relation: Relation) -> None:
        self._apply(verb, name, relation, (self.pair, self.solo))
        self.history.append((verb, name, relation))
        (self.stored if verb == "store" else self.preloaded)[name] = relation

    def _held(self, name: str) -> Relation:
        """What the catalog answers for ``name``: a preload shadows."""
        return self.preloaded.get(name, self.stored[name])

    @initialize(seed_a=seeds, seed_b=seeds)
    def store_both(self, seed_a, seed_b):
        self._do("store", "JA", _drawn("JA", seed_a))
        self._do("store", "JB", _drawn("JB", seed_b))

    @rule(name=st.sampled_from(sorted(SIDE)), seed=seeds)
    def store(self, name, seed):
        self._do("store", name, _drawn(name, seed))

    @rule(name=st.sampled_from(sorted(SIDE)), seed=seeds)
    def rewrite_with_equal_counts(self, name, seed):
        self._do("store", name, _same_counts(self.stored[name], seed))

    @precondition(lambda self: len(self.preloaded) < 3)
    @rule(name=st.sampled_from([*sorted(SIDE), *UNREAD]), seed=seeds)
    def preload(self, name, seed):
        if name not in self.preloaded:
            self._do("preload", name, _drawn(name, seed))

    @rule(kind=st.sampled_from(sorted(JOINS)), times=st.integers(1, 3))
    def run_warm(self, kind, times):
        for _ in range(times):
            self.pair.run_many([JOINS[kind]])

    @invariant()
    def sharded_equals_single_equals_algebra(self):
        if not self.stored:
            return
        cold_pair, _ = _sessions(_pool())
        for verb, name, relation in self.history:
            self._apply(verb, name, relation, (cold_pair,))
        for kind, plan in JOINS.items():
            expected = _rows(algebra.join(
                self._held("JA"), self._held("JB"), [ON[kind]]
            ))
            (single,), _ = self.solo.run_many([plan])
            (sharded,), report = self.pair.run_many([plan])
            (cold,), cold_report = cold_pair.run_many([plan])
            assert _rows(single) == expected, kind
            assert _rows(sharded) == expected, kind
            assert _rows(cold) == expected, kind
            assert report.steps == cold_report.steps, kind
            assert report.makespan == cold_report.makespan, kind
            assert _kept(self.pair, plan) == _kept(cold_pair, plan), kind


TestPoolSessions = pytest.mark.hypothesis(PoolSessionsMachine.TestCase)
TestPoolSessions.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None
)
