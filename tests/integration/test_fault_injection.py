"""Fault injection: does the verification machinery catch broken hardware?

The ghost-tag discipline and schedule-decoded collection exist to prove
the arrays work; these tests prove *they can fail the array* — a
stuck-at comparator, a dropped wire, or a scrambled tag is detected,
not silently absorbed.
"""

from __future__ import annotations

import pytest

from repro.systolic.engine.materialize import (
    attach_accumulation_column,
    build_counter_stream_grid,
)
from repro.systolic.engine.schedule import CounterStreamSchedule
from repro.errors import SimulationError
from repro.relational import algebra
from repro.systolic.cells import ComparisonCell
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.values import Token
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


def _run_intersection_with(cell_factory, a, b):
    schedule = CounterStreamSchedule(len(a), len(b), a.arity)
    network, _ = build_counter_stream_grid(
        a.tuples, b.tuples, schedule,
        t_init=lambda i, j: True, cell_factory=cell_factory, tagged=True,
    )
    attach_accumulation_column(network, schedule, tagged=True)
    simulator = SystolicSimulator(network)
    simulator.run(schedule.total_pulses)
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
        schedule = CounterStreamSchedule(3, 3, 2)
        network, _ = build_counter_stream_grid(
            a.tuples, b.tuples, schedule, t_init=lambda i, j: True,
            tagged=True,
        )
        # Rebuild without the column-1 A feeder by constructing a fresh
        # network whose feeder list we control:
        from repro.systolic.engine.plan import cmp_name
        from repro.systolic.wiring import Network

        broken = Network("missing-feeder")
        for cell in network.cells.values():
            broken.add(ComparisonCell(cell.name))
        for wire in network.wires:
            broken.connect(wire.source.cell, wire.source.port,
                           wire.target.cell, wire.target.port)
        for endpoint, feeder in network.feeders.items():
            if endpoint.cell == cmp_name(0, 1) and endpoint.port == "a_in":
                continue  # the dropped wire
            broken.feed(endpoint.cell, endpoint.port, feeder)
        simulator = SystolicSimulator(broken)
        with pytest.raises(SimulationError, match="mis-staggered"):
            simulator.run(schedule.comparison_pulses)
