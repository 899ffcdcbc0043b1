"""End-to-end transactions on the Fig 9-1 machine (E13)."""

import pytest

from repro.errors import CapacityError, PlanError
from repro.machine import (
    Base,
    Dedup,
    Difference,
    Divide,
    EnginePool,
    Intersect,
    Join,
    MachineDisk,
    Project,
    Select,
    SystolicDatabaseMachine,
    Union,
)
from repro.relational import Relation, algebra
from repro.workloads import (
    division_example,
    join_pair,
    overlapping_pair,
)


@pytest.fixture
def machine():
    return SystolicDatabaseMachine()


@pytest.fixture
def loaded(machine):
    a, b = overlapping_pair(12, 10, 5, arity=3, seed=30)
    ja, jb = join_pair(10, 8, 4, seed=31)
    da, db, dc = division_example()
    machine.store("A", a)
    machine.store("B", b)
    machine.store("JA", ja)
    machine.store("JB", jb)
    machine.store("DA", da)
    machine.store("DB", db)
    return machine, {"A": a, "B": b, "JA": ja, "JB": jb,
                     "DA": da, "DB": db, "DC": dc}


class TestSingleOps:
    def test_intersection(self, loaded):
        machine, rels = loaded
        result, report = machine.run(Intersect(Base("A"), Base("B")))
        assert result == algebra.intersection(rels["A"], rels["B"])
        assert report.makespan > 0
        # Two loads + one array op on the timeline.
        assert len(report.steps) == 3

    def test_difference_and_union(self, loaded):
        machine, rels = loaded
        result, _ = machine.run(Difference(Base("A"), Base("B")))
        assert result == algebra.difference(rels["A"], rels["B"])
        result, _ = machine.run(Union(Base("A"), Base("B")))
        assert result == algebra.union(rels["A"], rels["B"])

    def test_join(self, loaded):
        machine, rels = loaded
        result, _ = machine.run(
            Join(Base("JA"), Base("JB"), on=(("key", "key"),))
        )
        assert result == algebra.join(rels["JA"], rels["JB"], [("key", "key")])

    def test_division(self, loaded):
        machine, rels = loaded
        result, _ = machine.run(Divide(Base("DA"), Base("DB")))
        assert result == rels["DC"]

    def test_select_runs_on_cpu(self, loaded):
        machine, rels = loaded
        result, report = machine.run(Select(Base("A"), 0, ">=", 0))
        assert result == algebra.select(rels["A"], 0, ">=", 0)
        assert any(step.device == "cpu" for step in report.steps)


class TestPipelines:
    def test_multi_op_plan(self, loaded):
        machine, rels = loaded
        plan = Project(
            Join(Base("JA"), Base("JB"), on=(("key", "key"),)),
            ("key", "a0"),
        )
        result, report = machine.run(plan)
        expected = algebra.project(
            algebra.join(rels["JA"], rels["JB"], [("key", "key")]),
            ["key", "a0"],
        )
        assert result == expected
        devices = {step.device for step in report.steps}
        assert "join0" in devices
        assert "comparison0" in devices

    def test_shared_subplan_computed_once(self, loaded):
        machine, rels = loaded
        shared = Union(Base("A"), Base("B"))
        plan = Difference(shared, Base("B"))
        result, report = machine.run(plan)
        expected = algebra.difference(
            algebra.union(rels["A"], rels["B"]), rels["B"]
        )
        assert result == expected
        union_steps = [s for s in report.steps if s.label == "union"]
        assert len(union_steps) == 1

    def test_transaction_of_independent_plans_overlaps(self, loaded):
        machine, rels = loaded
        plan1 = Intersect(Base("A"), Base("B"))
        plan2 = Join(Base("JA"), Base("JB"), on=(("key", "key"),))
        results, report = machine.run_many([plan1, plan2])
        assert results[0] == algebra.intersection(rels["A"], rels["B"])
        assert results[1] == algebra.join(rels["JA"], rels["JB"],
                                          [("key", "key")])
        # The crossbar allows some overlap: makespan under the serial sum.
        assert report.makespan <= report.serial_seconds
        assert machine.crossbar.concurrency_profile() >= 2


class TestLogicPerTrack:
    def test_selection_fused_into_disk_read(self):
        machine = SystolicDatabaseMachine(
            disk=MachineDisk(logic_per_track=True)
        )
        a, _ = overlapping_pair(10, 10, 0, arity=2, seed=33)
        machine.store("A", a)
        plan = Select(Base("A"), 0, ">=", 0)
        result, report = machine.run(plan)
        assert result == algebra.select(a, 0, ">=", 0)
        # No CPU step: the selection rode the read.
        assert all(step.device != "cpu" for step in report.steps)
        assert len(report.steps) == 1


class TestResourceConstraints:
    def test_memory_exhaustion_detected(self):
        machine = SystolicDatabaseMachine(memory_bytes=16)
        a, b = overlapping_pair(10, 10, 0, arity=2, seed=34)
        machine.store("A", a)
        with pytest.raises(CapacityError, match="absorb"):
            machine.run(Dedup(Base("A")))

    @pytest.mark.parametrize(
        "front_end", [SystolicDatabaseMachine, EnginePool],
        ids=["machine", "pool"],
    )
    def test_needs_two_memories(self, front_end):
        with pytest.raises(CapacityError, match="two memories"):
            front_end(memories=1)

    def test_empty_transaction_rejected(self, machine):
        with pytest.raises(PlanError):
            machine.run_many([])

    def test_output_lands_in_a_different_memory(self, loaded):
        # §9: "pipelined back into another memory".
        machine, _ = loaded
        _, report = machine.run(Intersect(Base("A"), Base("B")))
        op = next(s for s in report.steps if s.label == "intersect")
        loads = {s.output_key: s.output_memory for s in report.steps
                 if s.device == "disk"}
        input_memories = {loads[key] for key in op.input_keys}
        assert op.output_memory not in input_memories


class TestReport:
    def test_timeline_renders(self, loaded):
        machine, _ = loaded
        _, report = machine.run(Intersect(Base("A"), Base("B")))
        text = report.timeline()
        assert "makespan" in text
        assert "intersect" in text

    def test_device_busy_accounting(self, loaded):
        machine, _ = loaded
        _, report = machine.run(Intersect(Base("A"), Base("B")))
        busy = report.device_busy_seconds()
        assert busy["disk"] > 0
        assert busy["comparison0"] > 0


class TestDeviceScaling:
    def test_two_comparison_devices_split_work(self):
        from repro.machine.plan import DEVICE_COMPARISON, DEVICE_DIVISION, DEVICE_JOIN

        machine = SystolicDatabaseMachine(devices=(
            (DEVICE_COMPARISON, 2), (DEVICE_JOIN, 1), (DEVICE_DIVISION, 1),
        ))
        a, b = overlapping_pair(12, 10, 4, arity=2, seed=200)
        machine.store("A", a)
        machine.store("B", b)
        plans = [
            Intersect(Base("A"), Base("B")),
            Difference(Base("A"), Base("B")),
        ]
        results, report = machine.run_many(plans)
        assert results[0] == algebra.intersection(a, b)
        assert results[1] == algebra.difference(a, b)
        used = {s.device for s in report.steps if s.device.startswith("comparison")}
        assert used == {"comparison0", "comparison1"}

    def test_single_device_serializes_same_kind(self):
        machine = SystolicDatabaseMachine()
        a, b = overlapping_pair(12, 10, 4, arity=2, seed=201)
        machine.store("A", a)
        machine.store("B", b)
        plans = [
            Intersect(Base("A"), Base("B")),
            Difference(Base("A"), Base("B")),
        ]
        _, report = machine.run_many(plans)
        steps = sorted(
            (s for s in report.steps if s.device == "comparison0"),
            key=lambda s: s.start,
        )
        assert len(steps) == 2
        assert steps[1].start >= steps[0].end  # no overlap on one device


class TestArrivalTimes:
    def test_plans_respect_release_times(self, loaded):
        machine, rels = loaded
        plans = [
            Intersect(Base("A"), Base("B")),
            Difference(Base("A"), Base("B")),
        ]
        results, report = machine.run_many(plans, arrivals=[0.0, 0.5])
        assert results[0] == algebra.intersection(rels["A"], rels["B"])
        assert results[1] == algebra.difference(rels["A"], rels["B"])
        late_steps = [s for s in report.steps if s.label == "difference"]
        assert late_steps[0].start >= 0.5

    def test_arrival_order_independent_of_list_order(self, loaded):
        machine, rels = loaded
        plans = [
            Difference(Base("A"), Base("B")),   # arrives late
            Intersect(Base("A"), Base("B")),    # arrives first
        ]
        results, report = machine.run_many(plans, arrivals=[1.0, 0.0])
        # Results come back in list order regardless of arrivals.
        assert results[0] == algebra.difference(rels["A"], rels["B"])
        assert results[1] == algebra.intersection(rels["A"], rels["B"])
        first = min(s.start for s in report.steps)
        assert first < 1.0  # the early arrival started early

    def test_arrival_validation(self, loaded):
        machine, _ = loaded
        plan = Intersect(Base("A"), Base("B"))
        with pytest.raises(PlanError, match="one arrival per plan"):
            machine.run_many([plan], arrivals=[0.0, 1.0])
        with pytest.raises(PlanError, match="non-negative"):
            machine.run_many([plan], arrivals=[-1.0])


class TestPreloadedRelations:
    def test_preload_skips_the_disk(self, pair_schema):
        machine = SystolicDatabaseMachine()
        a = Relation(pair_schema, [(1, 2), (3, 4)])
        b = Relation(pair_schema, [(3, 4)])
        machine.preload("A", a)
        machine.preload("B", b)
        result, report = machine.run(Intersect(Base("A"), Base("B")))
        assert result == algebra.intersection(a, b)
        assert all(step.device != "disk" for step in report.steps)

    def test_preloads_spread_across_memories(self, pair_schema):
        machine = SystolicDatabaseMachine(memories=4)
        for index in range(4):
            machine.preload(f"R{index}", Relation(pair_schema, [(index, 0)]))
        homes = {record[3] for record in machine._resident.values()}
        assert len(homes) == 4

    def test_duplicate_preload_rejected(self, pair_schema):
        machine = SystolicDatabaseMachine()
        machine.preload("A", Relation(pair_schema, [(1, 2)]))
        with pytest.raises(PlanError, match="already resident"):
            machine.preload("A", Relation(pair_schema, [(3, 4)]))

    def test_preload_capacity_checked(self, pair_schema):
        machine = SystolicDatabaseMachine(memory_bytes=8)
        big = Relation(pair_schema, [(i, i) for i in range(10)])
        with pytest.raises(CapacityError):
            machine.preload("BIG", big)

    def test_resident_beats_disk_copy(self, pair_schema):
        # Same name on disk and in memory: the resident copy wins
        # (it is the fresher intermediate result).
        machine = SystolicDatabaseMachine()
        stale = Relation(pair_schema, [(9, 9)])
        fresh = Relation(pair_schema, [(1, 1)])
        machine.store("R", stale)
        machine.preload("R", fresh)
        result, _ = machine.run(Dedup(Base("R")))
        assert result == fresh


class TestMemoryPortContention:
    def test_ops_sharing_an_input_memory_serialize(self, pair_schema):
        """A memory port feeds one device at a time — two operations
        reading the same resident relation cannot overlap, whatever the
        device count (the §9 constraint that makes output go "into
        another memory")."""
        from repro.machine.plan import DEVICE_COMPARISON, DEVICE_DIVISION, DEVICE_JOIN

        machine = SystolicDatabaseMachine(devices=(
            (DEVICE_COMPARISON, 2), (DEVICE_JOIN, 1), (DEVICE_DIVISION, 1),
        ))
        a = Relation(pair_schema, [(i, i) for i in range(12)])
        b = Relation(pair_schema, [(i, i + 1) for i in range(12)])
        machine.preload("A", a)
        machine.preload("B", b)
        shared_a1, shared_a2 = Base("A"), Base("A")
        plans = [
            Intersect(shared_a1, Base("B")),
            Difference(shared_a2, Base("B")),
        ]
        _, report = machine.run_many(plans)
        ops = sorted(
            (s for s in report.steps if s.device.startswith("comparison")),
            key=lambda s: s.start,
        )
        assert len(ops) == 2
        # Both read A's (and B's) memory: forced serial despite 2 devices.
        assert ops[1].start >= ops[0].end


class TestOutputStreamingCost:
    def test_large_output_lengthens_the_operation(self, pair_schema):
        """§6.2: a degenerate join's output can dwarf its inputs — the
        machine charges the write-back stream accordingly."""
        from repro.machine import Join

        machine = SystolicDatabaseMachine()
        # Every key matches every key: |C| = 30·30 = 900 tuples of
        # arity 3 vs 30-tuple inputs.
        a = Relation(pair_schema, [(1, i) for i in range(30)])
        b = Relation(pair_schema, [(1, 100 + j) for j in range(30)])
        machine.preload("A", a)
        machine.preload("B", b)
        _, report = machine.run(Join(Base("A"), Base("B"), on=((0, 0),)))
        op = next(s for s in report.steps if s.label.startswith("join"))
        out_stream = machine.memories[0].transfer_seconds(op.nbytes_out)
        assert op.duration >= out_stream
        assert op.nbytes_out > 10 * len(a) * a.arity * 4  # output >> input
