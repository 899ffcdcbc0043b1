"""The shard planner: locality proofs and exchange strategy choice."""

from __future__ import annotations

import pytest

from repro.machine.device import SystolicDevice
from repro.machine.physical import base_reads
from repro.machine.plan import (
    Base,
    Dedup,
    Difference,
    Divide,
    Intersect,
    Join,
    PlanNode,
    Project,
    Select,
    Union,
)
from repro.relational import Domain, Relation, Schema
from repro.shard import (
    BROADCAST,
    PARTITIONED,
    REPARTITION,
    REPLICATED,
    SCATTERED,
    ShardedCatalog,
    ShardedPlan,
    ShardPlanner,
)

_DOMAIN = Domain("shard-plan", values=range(60))
_SCHEMA = Schema.of(("k", _DOMAIN), ("v", _DOMAIN))


def _catalog(shards=4) -> ShardedCatalog:
    cat = ShardedCatalog(shards=shards)
    cat.store("R", Relation(
        _SCHEMA, [(i % 20, i % 7) for i in range(40)]), key="k")
    cat.store("S", Relation(
        _SCHEMA, [(i % 20, i % 5) for i in range(30)]), key="k")
    cat.store("T", Relation(
        _SCHEMA, [(i % 7, i % 20) for i in range(30)]), key="v")
    cat.store("D", Relation(_SCHEMA, [(1, 1), (2, 2)]), replicate=True)
    return cat


_DEVICES = (
    SystolicDevice("cmp0", "comparison"),
    SystolicDevice("join0", "join"),
    SystolicDevice("div0", "division"),
)


def _lower(plans, cat=None) -> ShardedPlan:
    """Lower ``plans`` from one snapshot of ``cat`` (default:
    :func:`_catalog`) over the three-device roster."""
    cat = cat or _catalog()
    plans = [plans] if isinstance(plans, PlanNode) else plans
    return ShardPlanner().lower(
        plans, cat.snapshot(base_reads(plans), _DEVICES)
    )


class TestLocalOperators:
    def test_co_partitioned_equi_join_is_exchange_free(self):
        plan = _lower(
            Join(Base("R"), Base("S"), on=(("k", "k"),))
        )
        assert plan.exchanges == ()
        assert plan.local_joins == 1
        assert plan.distributions[0].kind == PARTITIONED
        assert plan.distributions[0].key == 0

    def test_replicated_side_join_is_exchange_free(self):
        plan = _lower(
            Join(Base("R"), Base("D"), on=(("v", "v"),))
        )
        assert plan.exchanges == ()
        assert plan.local_joins == 1

    def test_select_dedup_project_union_stay_local(self):
        plan = _lower(
            Union(
                Project(Dedup(Select(Base("R"), column="v", op="<",
                                     value=5)), ("k",)),
                Project(Base("S"), ("k",)),
            )
        )
        assert plan.exchanges == ()

    def test_project_keeps_the_partition_key_position(self):
        plan = _lower(Project(Base("R"), ("v", "k")))
        dist = plan.distributions[0]
        assert dist.kind == PARTITIONED
        assert dist.key == 1  # "k" moved to position 1

    def test_project_dropping_the_key_scatters(self):
        plan = _lower(Project(Base("R"), ("v",)))
        assert plan.distributions[0].kind == SCATTERED
        assert plan.exchanges == ()

    def test_co_partitioned_intersection_is_local(self):
        for op in (Intersect, Difference):
            plan = _lower(op(Base("R"), Base("S")))
            assert plan.exchanges == ()

    def test_intersect_against_replicated_right_is_local(self):
        plan = _lower(Intersect(Base("R"), Base("D")))
        assert plan.exchanges == ()


class TestExchanges:
    def test_mismatched_keys_repartition(self):
        plan = _lower(Intersect(Base("R"), Base("T")))
        assert [e.kind for e in plan.exchanges] == [REPARTITION]
        assert plan.exchanges[0].key == 0

    def test_difference_with_replicated_left_still_exchanges(self):
        """A − Bᵢ is NOT distributive: shard i lacks B's other pieces."""
        plan = _lower(Difference(Base("D"), Base("R")))
        assert plan.exchanges

    def test_theta_join_broadcasts(self):
        plan = _lower(
            Join(Base("R"), Base("S"), on=(("v", "v"),), ops=("<=",))
        )
        assert [e.kind for e in plan.exchanges] == [BROADCAST]
        assert plan.broadcasts == 1

    def test_non_key_equi_join_repartitions_both_sides(self):
        plan = _lower(
            Join(Base("R"), Base("S"), on=(("v", "v"),))
        )
        assert [e.kind for e in plan.exchanges] == [
            REPARTITION, REPARTITION,
        ]
        assert plan.local_joins == 1  # local after the shuffle
        assert plan.distributions[0].kind == PARTITIONED

    def test_cross_position_key_match_counts_as_co_partitioned(self):
        """R is partitioned on k, T on v; joining R.k to T.v already
        co-locates matches (equal values hash alike), so no exchange."""
        plan = _lower(
            Join(Base("R"), Base("T"), on=(("k", "v"),))
        )
        assert plan.exchanges == ()
        assert plan.local_joins == 1

    def test_repartition_skips_an_already_aligned_side(self):
        """R.k is already the partition key; joining it to S.v (not
        S's key) only moves S."""
        plan = _lower(
            Join(Base("R"), Base("S"), on=(("k", "v"),))
        )
        assert [e.kind for e in plan.exchanges] == [REPARTITION]

    def test_divide_broadcasts_a_partitioned_divisor(self):
        plan = _lower(
            Divide(Base("R"), Project(Base("S"), ("v",)),
                   a_value="v", a_group="k", b_value="v")
        )
        assert [e.kind for e in plan.exchanges] == [BROADCAST]
        assert plan.distributions[0].kind == PARTITIONED

    def test_divide_with_replicated_divisor_is_local(self):
        plan = _lower(
            Divide(Base("R"), Project(Base("D"), ("v",)),
                   a_value="v", a_group="k", b_value="v")
        )
        assert plan.exchanges == ()

    def test_divide_repartitions_a_scattered_dividend_by_group(self):
        plan = _lower(
            Divide(Base("T"), Project(Base("D"), ("v",)),
                   a_value="v", a_group="k", b_value="v")
        )
        assert [e.kind for e in plan.exchanges] == [REPARTITION]
        assert plan.exchanges[0].key == 0  # the group column

    def test_explain_mentions_every_exchange(self):
        plan = _lower(Intersect(Base("R"), Base("T")))
        text = plan.explain()
        assert "repartition" in text
        assert "local joins" in text

    def test_exchange_costs_are_positive(self):
        plan = _lower(
            Join(Base("R"), Base("S"), on=(("v", "v"),), ops=("<=",))
        )
        assert plan.exchange_seconds > 0
        for step in plan.exchanges:
            assert step.cost.nbytes > 0


class TestSharedSubplans:
    def test_shared_subtree_is_lowered_once(self):
        shared = Select(Base("T"), column="k", op="<", value=5)
        plan = _lower(
            Intersect(Dedup(shared), Dedup(shared))
        )
        lowered = plan.roots[0]
        assert lowered.left.child is lowered.right.child
