"""The operator table (``repro.machine.operators``), and the differential
tests generated from it: every row's software oracle, whole-array
runner, blocked device run, bit-level device run, §8 cost and schema
inference agree, on every engine."""

import inspect

import pytest

import repro.machine.plan as plan_module
from repro.arrays import ArrayCapacity
from repro.errors import PlanError
from repro.machine import CpuDevice, SystolicDevice
from repro.machine.operators import (
    OPERATORS,
    estimate_rows,
    infer_schema,
    operator_of,
)
from repro.machine.physical import actual_cost, estimate_cost
from repro.machine.plan import (
    DEVICE_COMPARISON,
    DEVICE_CPU,
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
from repro.workloads import division_workload, join_pair, overlapping_pair

#: Small enough that every sample runs blocked: tuple blocks of 4 and,
#: on the bit-level device, several bit-column blocks.
CAPACITY = ArrayCapacity(max_rows=7, max_cols=3)
BITS = 4
ENGINES = ("pulse", "lattice", "bitplane")
A, B = Base("A"), Base("B")


def _sets():
    return overlapping_pair(9, 7, 3, arity=3, universe=1 << BITS, seed=33)


def _joinable():
    return join_pair(9, 7, 3, payload_arity=2, universe=1 << BITS, seed=34)


def _division():
    return division_workload(5, 3, 2, seed=35)[:2]


#: One or more sample nodes per row, each over seeded inputs ``A``, ``B``.
SAMPLES = {
    Intersect: [(Intersect(A, B), _sets)],
    Difference: [(Difference(A, B), _sets)],
    Union: [(Union(A, B), _sets)],
    Dedup: [(Dedup(A), _sets)],
    Project: [(Project(A, ("c0", "c2")), _sets)],
    Join: [
        (Join(A, B, on=(("key", "key"),)), _joinable),
        (Join(A, B, on=(("a0", "b0"), ("key", "key")), ops=("<", "==")),
         _joinable),
    ],
    Divide: [(Divide(A, B), _division)],
    Select: [(Select(A, column="c1", op="<", value=8), _sets)],
}

CASES = [
    pytest.param(node, inputs, id=node.describe())
    for samples in SAMPLES.values() for node, inputs in samples
]


def _concrete_node_types(cls=PlanNode):
    for sub in cls.__subclasses__():
        if not inspect.isabstract(sub):
            yield sub
        yield from _concrete_node_types(sub)


def test_every_concrete_plan_node_type_but_base_has_a_row_and_a_sample():
    types = set(_concrete_node_types())
    assert Base in types
    assert types - {Base} == set(OPERATORS)
    assert set(SAMPLES) == set(OPERATORS)
    exported = {
        getattr(plan_module, name) for name in plan_module.__all__
    }
    assert set(OPERATORS) <= exported


def test_a_node_type_without_a_row_is_the_one_plan_error():
    with pytest.raises(PlanError, match="unknown plan node type Base"):
        operator_of(Base("A"))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("node,make_inputs", CASES)
def test_row_back_ends_agree(node, make_inputs, engine):
    row = operator_of(node)
    inputs = list(make_inputs())[:len(node.children)]
    expected = row.software(node, *inputs)
    assert row.whole(node, *inputs, backend=engine) == expected
    schemas = dict(zip("AB", (r.schema for r in inputs)))
    assert infer_schema(node, schemas) == expected.schema
    assert estimate_rows(node, dict(zip("AB", map(len, inputs)))) >= 0

    if node.device_kind == DEVICE_CPU:
        assert row.blocked is None and not row.bit_level
        assert CpuDevice().execute(node, inputs).relation == expected
        with pytest.raises(PlanError, match="is not an array operation"):
            actual_cost(node, inputs, CAPACITY.max_rows, CAPACITY.max_cols)
        return

    devices = [SystolicDevice("word", node.device_kind, CAPACITY,
                              backend=engine)]
    if row.bit_level:
        devices.append(SystolicDevice(
            "bit", DEVICE_COMPARISON, CAPACITY, backend=engine,
            element_bits=BITS,
        ))
    for device in devices:
        run = device.execute(node, inputs)
        assert run.relation == expected
        cost = actual_cost(
            node, inputs, CAPACITY.max_rows, CAPACITY.max_cols,
            element_bits=device.element_bits,
        )
        assert (cost.total_pulses, cost.block_runs) == (
            run.pulses, run.block_runs
        )
        assert run.block_runs > 1


@pytest.mark.parametrize("node", [
    samples[0][0] for samples in SAMPLES.values()
], ids=lambda node: node.describe())
def test_estimate_cost_asks_array_op_before_bit_level_form(node):
    row = operator_of(node)
    for bits in (None, 8):
        if row.blocked is None:
            with pytest.raises(
                PlanError, match=r"^select\[c1<8\] is not an array operation$"
            ):
                estimate_cost(node, 9, 7, 3, 63, 8, element_bits=bits)
        elif bits is not None and not row.bit_level:
            with pytest.raises(PlanError) as refused:
                estimate_cost(node, 9, 7, 3, 63, 8, element_bits=bits)
            assert str(refused.value) == (
                f"{node.describe()} has no bit-level device form "
                f"(equality-based comparison operations only)"
            )
        else:
            assert estimate_cost(
                node, 9, 7, 3, 63, 8, element_bits=bits
            ).total_pulses > 0


def test_with_children_keeps_parameters_and_identity():
    join = Join(A, B, on=(("key", "key"),), ops=("<",))
    assert join.with_children((A, B)) is join
    swapped = join.with_children((B, A))
    assert (swapped.left, swapped.right, swapped.on, swapped.ops) == (
        B, A, join.on, join.ops
    )
    select = Select(A, column=2, op=">", value=5)
    moved = select.with_children((Dedup(B),))
    assert moved == Select(Dedup(B), column=2, op=">", value=5)
    assert A.with_children(()) is A
