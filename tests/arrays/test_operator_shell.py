"""The operator shell of ``repro.arrays.base``: one schedule → plan → run →
decode → assemble path under the whole-array, blocked and bit-level
operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import ArrayCapacity
from repro.arrays.comparison_array import comparison_plan
from repro.arrays.intersection import membership_plan
from repro.arrays.join import join_plan
from repro.bitlevel import expand_matrix, expand_tuple
from repro.errors import ReproError
from repro.machine import Base, Dedup, Difference, Intersect, Project, Union
from repro.machine.device import SystolicDevice
from repro.machine.physical import actual_cost
from repro.machine.plan import DEVICE_COMPARISON
from repro.relational import Relation
from repro.relational import relation as relation_module
from repro.systolic.engine import PulseEngine, t_init_strict_lower, t_init_true
from repro.systolic.engine.materialize import materialize, tables_of
from repro.systolic.simulator import SystolicSimulator
from repro.workloads import overlapping_pair, relation_with_duplicates
from tests.systolic.test_tap_tables import read_out

# -- (i) materialize(plan) builds the plan's network ------------------------

_A, _B = overlapping_pair(4, 3, 2, arity=2, seed=21)
_DUPS = relation_with_duplicates(3, 2.0, arity=2, seed=22)
_OPS = ["<", "=="]


def _intersection(variant):
    return membership_plan(
        _A.array, _B.array, variant, True, "intersection-array"
    )


def _remove_duplicates(variant):
    rows = _DUPS.array
    return membership_plan(
        rows, rows, variant, True, "remove-duplicates-array",
        t_init_strict_lower,
    )


def _join(variant):
    return join_plan(_A.tuples, _B.tuples, _OPS, variant, True)


def _dynamic_join(variant):
    return join_plan(_A.tuples, _B.tuples, _OPS, "counter", True, dynamic_ops=True)


def _comparison(variant):
    return comparison_plan(_A.tuples, _B.tuples, t_init_true, True)


@pytest.mark.parametrize("build,variant", [
    (_intersection, "counter"), (_intersection, "fixed"),
    (_remove_duplicates, "counter"), (_remove_duplicates, "fixed"),
    (_join, "counter"), (_join, "fixed"),
    (_dynamic_join, "counter"), (_comparison, "counter"),
], ids=lambda value: getattr(value, "__name__", value).lstrip("_"))
def test_built_array_is_the_plans_network(build, variant):
    plan = build(variant)
    network, layout = materialize(plan)
    assert network.name == plan.name

    simulator = SystolicSimulator(network)
    simulator.run(plan.pulses)
    run = PulseEngine().run(plan)
    assert sorted(simulator.collectors) == sorted(plan.tap_names())
    assert read_out(run.columnar) == read_out(tables_of(simulator.collectors))

    # The layout places every cell, accumulators one column past the grid.
    assert set(layout) == set(network.cells)
    assert len(layout) == plan.cells
    assert len(set(layout.values())) == len(layout)
    columns = {col for _, col in layout.values()}
    assert columns == set(range(plan.cols + (1 if plan.accumulate else 0)))


# -- (ii) expand_matrix is expand_tuple, vectorized --------------------------


@st.composite
def _matrix_and_width(draw):
    width = draw(st.integers(1, 40))
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(0, (1 << width) - 1), min_size=k, max_size=k),
        min_size=n, max_size=n,
    ))
    return np.array(rows, dtype=np.int64).reshape(n, k), width


@settings(max_examples=60, deadline=None)
@given(_matrix_and_width())
def test_expand_matrix_matches_expand_tuple(case):
    matrix, width = case
    expanded = expand_matrix(matrix, width)
    assert expanded.shape == (len(matrix), matrix.shape[1] * width)
    assert [tuple(row) for row in expanded.tolist()] == [
        expand_tuple(row, width) for row in matrix.tolist()
    ]


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("rows,width", [
    ([[3, -2]], 4),       # negative
    ([[3, 16]], 4),       # too wide
    ([[3, 1]], 0),        # width < 1
    ([[1 << 62, 1]], 62),  # too wide at the top of the word
], ids=["negative", "too-wide", "width", "too-wide-62"])
def test_expand_matrix_refuses_what_word_to_bits_refuses(rows, width, dtype):
    with pytest.raises(ReproError) as scalar:
        expand_tuple(rows[0], width)
    with pytest.raises(ReproError) as bulk:
        expand_matrix(np.array(rows, dtype=dtype), width)
    assert str(bulk.value) == str(scalar.value)


# -- (iii) a bit-level device is the word device over expand_matrix ----------

_BITS = 12
_CAPACITY = ArrayCapacity(max_rows=15, max_cols=16)


@pytest.mark.parametrize("node", [
    Intersect(Base("A"), Base("B")),
    Difference(Base("A"), Base("B")),
    Union(Base("A"), Base("B")),
    Dedup(Base("A")),
    Project(Base("A"), ("c0", "c2")),
], ids=lambda node: node.describe())
def test_bit_device_equals_word_device_without_boxing(node, monkeypatch):
    a, b = overlapping_pair(40, 35, 12, arity=3, universe=1 << _BITS, seed=6)
    inputs = [Relation(r.schema, np.array(r.tuples)) for r in (a, b)]
    inputs = inputs[:len(node.children)]
    word = SystolicDevice("w", DEVICE_COMPARISON, _CAPACITY, backend="lattice")
    bit = SystolicDevice(
        "b", DEVICE_COMPARISON, _CAPACITY, backend="lattice",
        element_bits=_BITS,
    )
    with monkeypatch.context() as patch:
        patch.setattr(
            relation_module._TupleStore, "tuples",
            property(lambda self: pytest.fail("an input was boxed into tuples")),
        )
        word_run = word.execute(node, inputs)
        bit_run = bit.execute(node, inputs)
        assert np.array_equal(word_run.relation.array, bit_run.relation.array)
    assert bit_run.relation == word_run.relation
    for device, run in ((word, word_run), (bit, bit_run)):
        cost = actual_cost(
            node, inputs, _CAPACITY.max_rows, _CAPACITY.max_cols,
            element_bits=device.element_bits,
        )
        assert run.pulses == cost.total_pulses
        assert run.block_runs == cost.block_runs
    assert bit_run.pulses > word_run.pulses


def test_bit_device_refuses_elements_wider_than_its_comparators():
    a, b = overlapping_pair(5, 5, 2, arity=2, universe=1 << 10, seed=7)
    narrow = SystolicDevice(
        "b", DEVICE_COMPARISON, _CAPACITY, backend="lattice", element_bits=4
    )
    with pytest.raises(ReproError, match="does not fit in 4 bits"):
        narrow.execute(Intersect(Base("A"), Base("B")), [a, b])
