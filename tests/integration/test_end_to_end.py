"""Cross-subsystem integration: language → machine → arrays → results."""

import pytest

from repro.arrays.intersection import membership_plan
from repro.lang import execute_plan, parse
from repro.machine import MachineDisk, SystolicDatabaseMachine, TreeMachine
from repro.relational import Domain, Relation, Schema, algebra
from repro.systolic.engine.materialize import materialize
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.trace import TraceRecorder
from repro.workloads import division_example, overlapping_pair


@pytest.fixture
def university():
    """A small university database exercising every operator."""
    students = Domain("student")
    courses = Domain("course")
    grades = Domain("grade")
    enrolled = Relation.from_values(
        Schema.of(("student", students), ("course", courses)),
        [
            ("ana", "db"), ("ana", "os"), ("ana", "nets"),
            ("ben", "db"), ("ben", "os"),
            ("cam", "db"), ("cam", "os"), ("cam", "nets"),
        ],
    )
    required = Relation.from_values(
        Schema.of(("course", courses)),
        [("db",), ("os",), ("nets",)],
    )
    results = Relation.from_values(
        Schema.of(("student", students), ("grade", grades)),
        [("ana", 95), ("ben", 80), ("cam", 88)],
    )
    return {"ENROLLED": enrolled, "REQUIRED": required, "RESULTS": results}


class TestQueryThroughEveryEngine:
    def test_who_completed_all_requirements(self, university):
        source = "divide(ENROLLED, REQUIRED, group = student, value = course, by = course)"
        software = execute_plan(parse(source), university, "software")
        systolic = execute_plan(parse(source), university, "systolic")
        assert software == systolic
        names = {row[0] for row in software.decoded()}
        assert names == {"ana", "cam"}

    def test_join_then_project_all_engines(self, university):
        source = "project(join(ENROLLED, RESULTS, student == student), student, grade)"
        plan = parse(source)
        software = execute_plan(plan, university, "software")
        systolic = execute_plan(plan, university, "systolic")

        machine = SystolicDatabaseMachine()
        for name, relation in university.items():
            machine.store(name, relation)
        machine_result, report = machine.run(plan)

        assert software == systolic == machine_result
        assert report.makespan > 0

    def test_machine_transaction_with_every_device(self, university):
        machine = SystolicDatabaseMachine(disk=MachineDisk(logic_per_track=True))
        for name, relation in university.items():
            machine.store(name, relation)
        plans = [
            parse("intersect(ENROLLED, ENROLLED)"),
            parse("join(ENROLLED, RESULTS, student == student)"),
            parse("divide(ENROLLED, REQUIRED, group = student, value = course, by = course)"),
        ]
        results, report = machine.run_many(plans)
        assert results[0] == university["ENROLLED"]
        assert len(results[1]) == 8
        assert len(results[2]) == 2
        used = {step.device for step in report.steps}
        assert {"disk", "comparison0", "join0", "division0"} <= used


class TestArchitectureComparison:
    def test_tree_machine_agrees_with_arrays(self, university):
        enrolled = university["ENROLLED"]
        tree = TreeMachine(leaves=16)
        run = tree.intersection(enrolled, enrolled)
        assert run.relation == enrolled

    def test_fig_71_on_all_paths(self):
        a, b, expected = division_example()
        from repro.arrays import blocked_divide, systolic_divide, ArrayCapacity

        direct = systolic_divide(a, b).relation
        blocked, _ = blocked_divide(a, b, ArrayCapacity(max_rows=2, max_cols=3))
        software = algebra.divide(a, b)
        assert direct == blocked == software == expected


def _intersection_network(a, b):
    """The Fig 4-1 intersection array of ``a`` and ``b``, and its schedule."""
    plan = membership_plan(
        a.array, b.array, "counter", False, "intersection-array"
    )
    return materialize(plan)[0], plan.schedule


class TestDrainBasedCompletion:
    def test_run_until_quiet_matches_schedule_arithmetic(self):
        """An independent check on total_pulses: run well past the
        computed run length under a trace, and from total_pulses on no
        cell sees a token — the array went quiet when the schedule's
        arithmetic says it does."""
        a, b = overlapping_pair(5, 4, 2, arity=2, seed=700)
        network, schedule = _intersection_network(a, b)
        recorder = TraceRecorder()
        simulator = SystolicSimulator(network, observer=recorder)
        simulator.run(schedule.total_pulses + 8)
        assert len(simulator.collector("t_i")) == len(a)
        assert recorder.at(schedule.total_pulses - 1)
        assert all(
            not recorder.at(pulse)
            for pulse in range(schedule.total_pulses, simulator.pulse)
        )

    def test_results_complete_exactly_at_total_pulses(self):
        a, b = overlapping_pair(4, 6, 2, arity=3, seed=701)
        network, schedule = _intersection_network(a, b)
        simulator = SystolicSimulator(network)
        simulator.run(schedule.total_pulses - 1)
        before = len(simulator.collector("t_i"))
        simulator.run(1)
        after = len(simulator.collector("t_i"))
        assert before == len(a) - 1  # the last t_i needs the final pulse
        assert after == len(a)


class TestModerateScale:
    def test_hundred_tuple_intersection_fixed_variant(self):
        """A 100×100 intersection at pulse level (the fixed variant's
        geometry keeps this around 10^5 cell-steps — comfortably fast)."""
        from repro.arrays import systolic_intersection
        from repro.relational import algebra
        from repro.workloads import overlapping_pair

        a, b = overlapping_pair(100, 100, 40, arity=2, seed=702)
        result = systolic_intersection(a, b, variant="fixed")
        assert result.relation == algebra.intersection(a, b)
        assert len(result.relation) == 40
