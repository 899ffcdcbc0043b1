"""The merge rule: a ``Distribution`` decides how shard pieces combine.

``ShardedExecutor._merge`` and ``_redistribute`` read what the planner
tracked instead of deduplicating every time: replicated pieces → piece
0, partitioned pieces → their concatenation (carried as proved-distinct
rows, which ``tests/conftest.py`` re-checks), scattered pieces → the
``_union`` all of them used to take.  Whatever the kind, the answer must
be ``_union``'s: the same rows in the same order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.machine import (
    Base,
    Difference,
    Divide,
    EnginePool,
    Intersect,
    Project,
    Select,
)
from repro.relational import Domain, Relation, Schema
from repro.shard import ShardedCatalog, ShardedExecutor
from repro.shard import executor as executor_module
from repro.shard.catalog import PARTITIONED, REPLICATED
from repro.shard.planner import BROADCAST, REPARTITION, SCATTERED

SMALL = settings(max_examples=10, deadline=None)

_DOMAIN = Domain("merge-rule", values=range(12))
_PAIR = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))
_ONE = Schema.of(("v", _DOMAIN))

rows = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    min_size=1, max_size=16,
)
divisor_rows = st.lists(
    st.tuples(st.integers(0, 11)), min_size=1, max_size=4,
)

#: One plan per (where the pieces combine, how they lie there).
PLANS = {
    ("merge", PARTITIONED): Select(Base("A"), column="v", op="<", value=6),
    ("merge", REPLICATED): Intersect(Base("R"), Base("R")),
    # Dropping the partition key scatters equal rows over the shards:
    # this merge still has to deduplicate.
    ("merge", SCATTERED): Project(Base("A"), ("v",)),
    # Equal rows must meet: C, split on its other column, moves.
    (REPARTITION, PARTITIONED): Intersect(Base("A"), Base("C")),
    (REPARTITION, REPLICATED): Difference(Base("R"), Base("A")),
    (REPARTITION, SCATTERED): Intersect(
        Project(Base("A"), ("v",)), Project(Base("B"), ("v",))
    ),
    (BROADCAST, PARTITIONED): Divide(
        Base("A"), Base("D"), a_value="v", a_group="k", b_value="v"
    ),
    (BROADCAST, SCATTERED): Divide(
        Base("A"), Project(Base("B"), ("v",)),
        a_value="v", a_group="k", b_value="v",
    ),
}


def _executor(shards, strategy, a, b, d) -> ShardedExecutor:
    catalog = ShardedCatalog("merge-rule", shards=shards, strategy=strategy)
    catalog.store("A", Relation(_PAIR, a), key="k")
    catalog.store("B", Relation(_PAIR, b), key="k")
    catalog.store("C", Relation(_PAIR, b), key="v")
    catalog.store("R", Relation(_PAIR, b), replicate=True)
    catalog.store("D", Relation(_ONE, d), key="v")
    return ShardedExecutor(EnginePool(backend="lattice"), catalog)


@SMALL
@given(a=rows, b=rows, d=divisor_rows)
def test_every_kind_combines_to_what_union_returns(a, b, d):
    combine = executor_module._combine
    seen = set()

    def checked(pieces, distribution):
        combined = combine(pieces, distribution)
        expected = executor_module._union(pieces)
        assert combined.tuples == expected.tuples, distribution
        assert combined.schema == expected.schema
        seen.add(distribution.kind)
        return combined

    executor_module._combine = checked
    try:
        for shards in (1, 2, 4):
            for strategy in ("hash", "range"):
                executor = _executor(shards, strategy, a, b, d)
                for (site, kind), plan in PLANS.items():
                    seen.clear()
                    sharded = executor.plan(plan)
                    if site == "merge":
                        assert sharded.distributions[0].kind == kind
                        assert not sharded.exchanges
                    else:
                        assert (site, kind) in {
                            (step.kind, step.source.kind)
                            for step in sharded.exchanges
                        }
                    executor.execute(plan)
                    assert kind in seen, (site, kind, shards, strategy)
    finally:
        executor_module._combine = combine


@SMALL
@given(a=rows)
def test_a_scattered_merge_still_deduplicates(a):
    """The projection's equal rows sit on different shards; only the
    merge can drop them."""
    executor = _executor(4, "hash", a, a, [(0,)])
    results, _ = executor.execute(PLANS["merge", SCATTERED])
    assert sorted(results[0].tuples) == sorted({(v,) for _, v in a})
