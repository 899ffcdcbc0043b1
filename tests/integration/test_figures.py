"""Figure rendering: schematics drawn from live networks."""

import pytest

from repro.arrays.comparison_array import comparison_plan
from repro.arrays.intersection import membership_plan
from repro.figures import (
    division_schematic,
    grid_schematic,
    machine_schematic,
    network_summary,
)
from repro.machine import SystolicDatabaseMachine
from repro.systolic.engine import t_init_true
from repro.systolic.engine.materialize import materialize
from repro.workloads import three_by_three_pair


def _built(plan):
    """A plan's network, its schedule and its layout."""
    network, layout = materialize(plan)
    return network, plan.schedule, layout


def _intersection():
    a, b = three_by_three_pair()
    return _built(membership_plan(
        a.array, b.array, "counter", False, "intersection-array"
    ))


@pytest.fixture
def comparison():
    a, b = three_by_three_pair()
    return _built(comparison_plan(a.tuples, b.tuples, t_init_true, False))


class TestNetworkSummary:
    def test_census_counts(self, comparison):
        network, schedule, _ = comparison
        text = network_summary(network)
        assert f"{schedule.rows * schedule.arity} × ComparisonCell" in text
        assert "0 unconnected inputs" in text
        assert f"{len(network.wires)} wires" in text

    def test_intersection_lists_both_cell_types(self):
        network, _, _ = _intersection()
        text = network_summary(network)
        assert "AccumulationCell" in text
        assert "ComparisonCell" in text


class TestGridSchematic:
    def test_box_per_cell(self, comparison):
        _, schedule, layout = comparison
        art = grid_schematic(layout)
        assert art.count("| = |") == schedule.rows * schedule.arity

    def test_accumulators_get_plus_glyph(self):
        _, schedule, layout = _intersection()
        art = grid_schematic(layout)
        assert art.count("| + |") == schedule.rows

    def test_custom_labels(self):
        art = grid_schematic({"x": (0, 0)}, label={"x": "AB"})
        assert "AB" in art

    def test_empty_layout(self):
        assert grid_schematic({}) == "(empty layout)"


class TestOtherSchematics:
    def test_division_shape(self):
        art = division_schematic(["i", "j"], ["a", "b"])
        assert art.count("AND") == 2
        assert "[i]" in art and "[b]" in art

    def test_machine_boxes(self):
        art = machine_schematic(SystolicDatabaseMachine())
        assert "[mem0]" in art
        assert "[comparison0]" in art
        assert "[disk]" in art
        assert "crossbar" in art
