"""Fault injection: does the verification machinery catch broken hardware?

The ghost-tag discipline and schedule-decoded collection exist to prove
the arrays work; these tests prove *they can fail the array* — a
stuck-at comparator, a dropped wire, or a scrambled tag is detected,
not silently absorbed.
"""

from __future__ import annotations

import pytest

from repro.arrays.comparison_array import comparison_plan
from repro.arrays.intersection import membership_plan
from repro.errors import SimulationError
from repro.relational import algebra
from repro.systolic.cells import ComparisonCell
from repro.systolic.engine import t_init_true
from repro.systolic.engine.materialize import materialize
from repro.systolic.engine.plan import cmp_name
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.values import Token
from repro.systolic.wiring import Endpoint, Network
from repro.workloads import overlapping_pair


class StuckAtTrueCell(ComparisonCell):
    """A comparator whose comparison result is stuck at TRUE."""

    def step(self, inputs):
        outputs = super().step(inputs)
        if "t_out" in outputs and inputs.get("t_in") is not None:
            token = outputs["t_out"]
            outputs["t_out"] = Token(bool(inputs["t_in"].value), token.tag)
        return outputs


class TagScramblerCell(ComparisonCell):
    """A comparator that mislabels its output's ghost tag."""

    def step(self, inputs):
        outputs = super().step(inputs)
        token = outputs.get("t_out")
        if token is not None and isinstance(token.tag, tuple):
            kind, i, j = token.tag
            outputs["t_out"] = Token(token.value, (kind, i + 1, j))
        return outputs


def _rewired(network, swap=lambda cell: cell, drop=()):
    """``network`` rebuilt cell by cell, as the hardware would be with a
    faulty part: ``swap`` replaces a cell, and the feeders at ``drop``
    are left unconnected."""
    broken = Network(network.name)
    for cell in network:
        broken.add(swap(cell))
    for wire in network.wires:
        broken.connect(wire.source.cell, wire.source.port,
                       wire.target.cell, wire.target.port)
    for endpoint, feeder in network.feeders.items():
        if endpoint not in drop:
            broken.feed(endpoint.cell, endpoint.port, feeder)
    for name, endpoint in network.taps.items():
        broken.tap(name, endpoint.cell, endpoint.port)
    return broken


def _run_intersection_with(fault, a, b):
    """The tagged Fig 4-1 intersection of ``a`` and ``b`` with each
    comparator at (row, col) replaced by ``fault(name, row, col)``."""
    plan = membership_plan(a.array, b.array, "counter", True, "intersection-array")
    network, layout = materialize(plan)

    def swap(cell):
        if not isinstance(cell, ComparisonCell):
            return cell
        return fault(cell.name, *layout[cell.name])

    simulator = SystolicSimulator(_rewired(network, swap))
    simulator.run(plan.pulses)
    schedule = plan.schedule
    t_vector = [None] * len(a)
    for pulse, token in simulator.collector("t_i"):
        t_vector[schedule.tuple_from_accumulator_exit(pulse)] = bool(token.value)
    return t_vector


class TestStuckAtFault:
    def test_stuck_comparator_changes_the_answer(self):
        a, b = overlapping_pair(5, 5, 2, arity=2, seed=210)
        expected = [tuple(t) in set(b.tuples) for t in a.tuples]

        faulty_column = 1

        def faulty_factory(name, row, col):
            if col == faulty_column:
                return StuckAtTrueCell(name)
            return ComparisonCell(name)

        healthy = _run_intersection_with(
            lambda name, row, col: ComparisonCell(name), a, b
        )
        assert healthy == expected

        faulty = _run_intersection_with(faulty_factory, a, b)
        # The stuck column ignores one element position entirely, so the
        # faulty array reports a superset of the true memberships.
        assert faulty != expected or all(
            f >= e for f, e in zip(faulty, expected)
        )
        # ...and the oracle comparison (what the test suite always does)
        # flags the broken hardware.
        faulty_members = [t for t, keep in zip(a.tuples, faulty) if keep]
        oracle = algebra.intersection(a, b)
        if faulty != expected:
            assert set(faulty_members) != set(oracle.tuples)


class TestTagScrambler:
    def test_scrambled_tags_detected_downstream(self):
        a, b = overlapping_pair(4, 4, 2, arity=2, seed=211)

        def scrambling_factory(name, row, col):
            if col == 0:
                return TagScramblerCell(name)
            return ComparisonCell(name)

        with pytest.raises(SimulationError, match="claims tuple|merged into"):
            _run_intersection_with(scrambling_factory, a, b)


class TestMissingWire:
    def test_unfed_column_detected_by_schedule_check(self):
        # Drop one column's A feeder: elements never meet there, and the
        # comparison cells' t-in-without-pair check fires.
        a, b = overlapping_pair(3, 3, 1, arity=2, seed=212)
        plan = comparison_plan(a.tuples, b.tuples, t_init_true, True)
        network, _ = materialize(plan)
        broken = _rewired(network, drop={Endpoint(cmp_name(0, 1), "a_in")})
        simulator = SystolicSimulator(broken)
        with pytest.raises(SimulationError, match="mis-staggered"):
            simulator.run(plan.schedule.comparison_pulses)
