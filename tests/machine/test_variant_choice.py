"""The physical planner's choice of blocked variant (§8).

Every comparison and join op admits the counter-streaming block runs
and the fixed-relation ones; the planner prices both and keeps the
one that finishes the op — or its fused chain — sooner, counter on a
tie.  Over a corpus of machine plans these tests hold the choice to
what it promises: no plan is predicted slower than with counter runs
only, a prediction that was exact stays exact, the device runs the
recorded variant, and ``explain`` shows it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.arrays import ArrayCapacity
from repro.errors import PlanError
from repro.machine import EnginePool, SystolicDatabaseMachine
from repro.machine import operators
from repro.machine.physical import (
    OP_ARRAY,
    PhysicalPlanner,
    _Priced,
    actual_cost,
    estimate_cost,
)
from repro.machine.plan import (
    Base,
    Dedup,
    Difference,
    Divide,
    Intersect,
    Join,
    Project,
    Union,
)
from repro.perf.cost import OpCost
from repro.relational.relation import Relation
from repro.workloads import division_workload, join_pair, overlapping_pair

A, B = Base("A"), Base("B")


def _sets():
    return overlapping_pair(40, 30, 12, arity=3, seed=33)


def _joinable():
    return join_pair(60, 20, 12, payload_arity=2, seed=34)


def _division():
    return division_workload(5, 3, 2, seed=35)[:2]


KEY_JOIN = Join(A, B, on=(("key", "key"),))

#: Every operator row once, and chains through them.
CORPUS = [
    (Intersect(A, B), _sets),
    (Difference(A, B), _sets),
    (Union(A, B), _sets),
    (Dedup(A), _sets),
    (Project(A, ("c0", "c2")), _sets),
    (KEY_JOIN, _joinable),
    (Join(A, B, on=(("a0", "b0"), ("key", "key")), ops=("<", "==")),
     _joinable),
    (Divide(A, B), _division),
    (Project(KEY_JOIN, ("key", "a0")), _joinable),
    (Dedup(Union(A, B)), _sets),
    (Intersect(Dedup(A), B), _sets),
]

CASES = [
    pytest.param(plan, data, capacity, resident,
                 id=f"{plan.describe()}-{capacity.max_rows}-"
                    f"{'resident' if resident else 'disk'}")
    for plan, data in CORPUS
    for capacity in (ArrayCapacity(7, 3), ArrayCapacity(63, 8))
    for resident in (False, True)
]


def _compiled(plan, data, capacity, resident):
    machine = SystolicDatabaseMachine(capacity=capacity)
    relations = dict(zip("AB", data()))
    for name, relation in relations.items():
        (machine.preload if resident else machine.store)(name, relation)
    physical = machine.compile(plan)
    _, report = machine.run_physical(physical)
    return machine, relations, physical, report


@pytest.fixture
def counter_only(monkeypatch):
    """Every operator row admitting counter runs only: the planner
    before it had a choice."""

    def apply():
        for node_type, row in list(operators.OPERATORS.items()):
            monkeypatch.setitem(
                operators.OPERATORS, node_type,
                replace(row, variants=("counter",)),
            )

    return apply


@pytest.mark.parametrize("plan, data, capacity, resident", CASES)
def test_the_choice_never_predicts_slower_nor_less_exactly(
    plan, data, capacity, resident, counter_only
):
    *_, chosen, report = _compiled(plan, data, capacity, resident)
    counter_only()
    *_, counter, counter_report = _compiled(plan, data, capacity, resident)
    assert chosen.predicted_makespan <= counter.predicted_makespan * (
        1 + 1e-12
    )
    if counter.predicted_makespan == pytest.approx(
        counter_report.makespan, rel=1e-9
    ):
        assert chosen.predicted_makespan == pytest.approx(
            report.makespan, rel=1e-9
        )
    assert all(op.variant == "counter" for op in counter.ops)


@pytest.mark.parametrize("plan, data, capacity, resident", CASES)
def test_devices_run_the_recorded_variant(plan, data, capacity, resident):
    machine, relations, physical, report = _compiled(
        plan, data, capacity, resident
    )
    steps = {step.label: step for step in report.steps}
    for op in physical.ops:
        if op.kind != OP_ARRAY:
            continue
        assert op.variant in operators.operator_of(op.node).variants
        children = op.node.children
        if not all(isinstance(child, Base) for child in children):
            continue
        # An op over base relations runs the recorded variant's law
        # over them.
        device = next(d for d in machine.devices if d.name == op.device)
        cost = actual_cost(
            op.node, [relations[child.name] for child in children],
            device.capacity.max_rows, device.capacity.max_cols,
            variant=op.variant,
        )
        assert steps[op.label].pulses == cost.total_pulses
        assert steps[op.label].block_runs == cost.block_runs


def test_the_key_join_holds_b_and_explain_says_so():
    *_, physical, _ = _compiled(KEY_JOIN, _joinable, ArrayCapacity(7, 3),
                                True)
    [join] = [op for op in physical.ops if op.kind == OP_ARRAY]
    assert join.variant == "fixed"
    assert join.cost.a_blocks == 1 and join.cost.b_blocks == 3
    text = physical.explain()
    assert "fixed 1x3x1 = 3" in text
    header, row = text.splitlines()[1], text.splitlines()[-3]
    assert header.index("chain") == row.index("-", header.index("chain"))


def test_a_plan_without_fixed_ops_keeps_the_twelve_wide_column(counter_only):
    counter_only()
    machine = SystolicDatabaseMachine(capacity=ArrayCapacity(3, 1))
    for name, relation in zip("AB", _sets()):
        machine.preload(name, relation)
    physical = machine.compile(Intersect(A, B))
    [op] = [op for op in physical.ops if op.kind == OP_ARRAY]
    assert len(op.blocks_label()) > 12  # "20x15x3 = 900"
    header = physical.explain().splitlines()[1]
    assert f"{'blocks':<12} {'chain':<6}" in header


def test_division_keeps_counter_and_refuses_fixed():
    *_, physical, _ = _compiled(Divide(A, B), _division, ArrayCapacity(7, 3),
                                True)
    [divide] = [op for op in physical.ops if op.kind == OP_ARRAY]
    assert divide.variant == "counter"
    assert "fixed" not in physical.explain()
    with pytest.raises(PlanError, match="admits"):
        estimate_cost(Divide(A, B), 10, 3, 2, 7, 3, variant="fixed")


def _priced(variant, fill, stream):
    cost = OpCost(fill_pulses=fill, stream_pulses=stream)
    return _Priced(variant, cost, float(fill + stream), float(fill))


class _Stage:
    def __init__(self, op_id):
        self.op_id = op_id


class TestChainChoice:
    """In a fused chain the stages finish at Σ fill + max stream, so the
    choice is the chain's, not each stage's."""

    def choose(self, options):
        members = [_Stage(k) for k in range(len(options))]
        PhysicalPlanner._choose_chain_variants(
            members, dict(enumerate(options))
        )
        return [member.variant for member in members]

    def test_fixed_that_only_shortens_a_short_stream_is_not_taken(self):
        # Each stage alone finishes sooner fixed (65 more fill, 100
        # less stream), but the three streams are alike: Σ fill rises
        # by 195 and the longest stream drops by only 100.
        stage = [_priced("counter", 10, 1000), _priced("fixed", 75, 900)]
        assert self.choose([stage] * 3) == ["counter"] * 3

    def test_fixed_is_taken_where_it_cuts_the_longest_stream(self):
        long = [_priced("counter", 10, 5000), _priced("fixed", 75, 2000)]
        short = [_priced("counter", 10, 1000), _priced("fixed", 75, 900)]
        assert self.choose([long, short]) == ["fixed", "counter"]

    def test_a_tie_keeps_counter(self):
        stage = [_priced("counter", 10, 1000), _priced("fixed", 10, 1000)]
        assert self.choose([stage, stage]) == ["counter", "counter"]


@pytest.mark.parametrize("shards", [1, 2])
def test_a_key_join_held_fixed_is_predicted_exactly(shards):
    """A 4 096 × 64 key join on one 1 023-row join device: held fixed
    it is no longer device-bound but bound by streaming A out of
    memory, so its prediction is exact only because the planner sizes
    a key join's output from distinct counts (64 rows, not 4 096)."""
    a, b = join_pair(4096, 64, 64, universe=4160, seed=11)
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    pool = EnginePool(devices=(("join", 1, capacity),), capacity=capacity,
                      memory_bytes=512 * 1024 * 1024, backend="lattice")
    session = pool.session("solo", shards=shards)
    session.store("JA", a, key="key")
    session.store("JB", b, key="key")
    plan = Join(Base("JA"), Base("JB"), on=(("key", "key"),))
    physical = session.compile(plan)
    (result,), report = session.run_many([plan])
    assert len(result) == 64
    assert physical.predicted_makespan == pytest.approx(
        report.makespan, rel=1e-9
    )
    if shards == 1:
        [join] = [op for op in physical.ops if op.kind == OP_ARRAY]
        assert (join.variant, join.est_rows_out) == ("fixed", 64)
        assert join.cost.total_pulses == 4159 + 64


def test_tenants_alike_in_size_but_not_in_keys_compile_their_own_plans():
    """The join's estimate, and with it the variant, follows the key
    columns' distinct counts, so the shared plan cache must tell two
    tenants apart whose relations differ in nothing else: each gets the
    plan a pool holding only its own data would compile, whichever
    compiles first."""
    a, b = join_pair(4096, 64, 64, universe=4160, seed=11)
    rows = a.array.copy()
    rows[:, 0] %= 40  # 40 keys, each on ~100 tuples
    rows[:, 1] = range(len(rows))
    crowded = Relation(a.schema, rows)
    assert len(crowded) == len(a)
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    plan = Join(Base("JA"), Base("JB"), on=(("key", "key"),))

    def pool():
        return EnginePool(devices=(("join", 1, capacity),),
                          capacity=capacity, backend="lattice")

    def compiled(shared, tenant, relation):
        session = shared.session(tenant)
        session.store("JA", relation)
        session.store("JB", b)
        return session.compile(plan)

    for order in ((a, crowded), (crowded, a)):
        shared = pool()
        plans = [compiled(shared, f"t{k}", rel) for k, rel in enumerate(order)]
        alone = [compiled(pool(), "solo", rel) for rel in order]
        assert [p.explain() for p in plans] == [p.explain() for p in alone]
        assert plans[0].explain() != plans[1].explain()


def test_tenants_alike_in_size_but_not_in_layout_compile_their_own_plans():
    """Which loads share a disk sweep follows where the relations lie,
    so the shared plan cache must tell apart two tenants whose relations
    differ only in their cylinders: each gets the plan a pool holding
    only its own data would compile, whichever compiles first."""
    a, b = join_pair(4096, 64, 64, universe=4160, seed=11)
    # 37 600 rows × 3 columns × 4 bytes = 451 200 bytes: JA (49 152)
    # no longer fits beside it on cylinder 0, JB (768) still does.
    filler = Relation(a.schema, np.arange(37_600 * 3).reshape(-1, 3))
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    plan = Join(Base("JA"), Base("JB"), on=(("key", "key"),))

    def pool():
        return EnginePool(devices=(("join", 1, capacity),),
                          capacity=capacity, backend="lattice")

    def compiled(shared, tenant, first):
        session = shared.session(tenant)
        for name, relation in first:
            session.store(name, relation)
        session.store("JA", a)
        session.store("JB", b)
        return session.compile(plan)

    layouts = ((), (("FILL", filler),))
    for order in (layouts, layouts[::-1]):
        shared = pool()
        plans = [compiled(shared, f"t{k}", first)
                 for k, first in enumerate(order)]
        alone = [compiled(pool(), "solo", first) for first in order]
        assert [p.explain() for p in plans] == [p.explain() for p in alone]
        assert [bool(p.sweeps) for p in plans] == [not o for o in order]
