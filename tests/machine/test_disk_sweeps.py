"""§8's whole-cylinder read: the disk's cylinder layout, and the loads
of one release time that lie on one cylinder read in one sweep.

The layout is fixed when a relation is written: in write order,
first-fit, a relation of at most a cylinder whole into the first
cylinder with room, a larger one onto whole fresh cylinders.  A
relation read alone is billed as before; the planner bills a sweep one
revolution, and no load ends later than when every load was read alone.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.arrays import ArrayCapacity
from repro.machine import (
    Base,
    CpuDevice,
    EnginePool,
    Join,
    SystolicDatabaseMachine,
)
from repro.machine.catalog import Catalog
from repro.machine.disk import MachineDisk
from repro.machine.execution import fresh_state
from repro.machine.memory import preloaded_free_bytes
from repro.obs import metrics
from repro.perf.disk import DiskModel, disk_sweep
from repro.relational import algebra
from repro.workloads import join_pair, random_relation

from tests.machine.test_variant_choice import CORPUS

#: a 100-byte cylinder: a 4-byte-element relation of 25 one-column
#: tuples fills it.
SMALL = DiskModel(cylinder_bytes=100)


def _relation(rows):
    return random_relation(rows, 1, universe=10 * rows + 1, seed=rows)


def _placed(*sizes, model=SMALL):
    """A disk holding one-column relations R0, R1, … of ``sizes`` bytes,
    written in that order."""
    disk = MachineDisk(model)
    for k, nbytes in enumerate(sizes):
        disk.store(f"R{k}", _relation(nbytes // 4))
    return disk


def _fingerprint(disk, name):
    """The planning context's fingerprint for a plan reading ``name``."""
    return Catalog(disk=disk).planning_context([(name, ())]).fingerprint


class TestLayout:
    def test_first_fit_in_write_order(self):
        disk = _placed(60, 60, 40, 20)
        # R1 does not fit beside R0; R2 does; R3 fits beside R1.
        assert [disk.cylinder(f"R{k}") for k in range(4)] == [0, 1, 0, 1]

    def test_a_relation_larger_than_a_cylinder_starts_on_a_fresh_one(self):
        disk = _placed(40, 240, 40)
        assert disk.cylinder("R0") == 0
        assert disk.cylinder("R1") is None  # spans cylinders 1, 2, 3
        assert disk.record("R1").cylinder is None  # it joins no sweep
        # Its last cylinder is taken whole: R2 goes beside R0.
        assert disk.cylinder("R2") == 0
        disk.store("R3", _relation(20))
        assert disk.cylinder("R3") == 4

    def test_an_overwrite_frees_its_old_extent(self):
        disk = _placed(80, 40)
        assert disk.cylinder("R1") == 1
        disk.store("R0", _relation(5))  # 20 bytes: still first-fit
        assert disk.cylinder("R0") == 0
        disk.store("R2", _relation(20))  # 80 bytes: the room R0 left
        assert disk.cylinder("R2") == 0
        # A large relation's cylinders come back whole.
        disk.store("BIG", _relation(60))  # 240 bytes on 2, 3, 4
        disk.store("BIG", _relation(5))
        assert disk.cylinder("BIG") == 1
        disk.store("R3", _relation(25))
        assert disk.cylinder("R3") == 2

    @pytest.mark.parametrize("rows", [0, 1, 25, 26, 100, 1000])
    def test_a_relation_read_alone_is_billed_as_before(self, rows):
        disk = _placed(60, model=SMALL)
        disk.store("R", _relation(rows))
        _, seconds = disk.read("R")
        assert seconds == SMALL.read_seconds(rows * 4)
        assert (disk.cylinder("R") is not None) == (
            SMALL.cylinders(rows * 4) == 1
        )

    def test_the_layout_is_part_of_the_fingerprint(self):
        alike, apart = _placed(40, 40), _placed(40, 80, 40)
        apart.store("R1", _relation(10))
        # Same sizes, same schema: only the cylinder tells them apart.
        assert alike.record("R1")._replace(cylinder=None) == (
            apart.record("R1")._replace(cylinder=None)
        )
        assert _fingerprint(alike, "R1") != _fingerprint(apart, "R1")


def test_the_sweep_window_is_the_first_loads_slot():
    rev = SMALL.revolution_seconds
    assert disk_sweep(0.0, 0.0, (rev,)) == (0.0, rev)
    assert disk_sweep(2.0, 1.0, (rev, rev, 0.0)) == (2.0, 2.0 + rev)
    assert disk_sweep(1.0, 3.0, ()) == (3.0, 3.0)


JOIN = Join(Base("JA"), Base("JB"), on=(("key", "key"),))


def _joined(disk=None, **options):
    machine = SystolicDatabaseMachine(disk=disk, **options)
    ja, jb = join_pair(40, 35, 20, seed=5)
    machine.store("JA", ja)
    machine.store("JB", jb)
    return machine, algebra.join(ja, jb, [("key", "key")])


def _run_counted(machine, plan):
    metrics.reset()
    metrics.enable()
    try:
        (result,), report = machine.run_many([plan])
        return result, report, metrics.counter("machine.disk.sweeps")
    finally:
        metrics.disable()
        metrics.reset()


#: JA is 480 bytes: a 480-byte cylinder leaves JB (420) on the next one.
APART = DiskModel(cylinder_bytes=480)


@pytest.mark.parametrize("memories", [2, 3, 12])
def test_sweeps_are_sized_against_the_memories_a_run_starts_with(memories):
    # Preloads go to the emptiest memory with room, the lower name on a
    # tie ("mem10" before "mem2"); the planner's count agrees.
    catalog = Catalog()
    for k, rows in enumerate([30, 10, 30, 5, 0, 20, 40]):
        catalog.preload(f"P{k}", _relation(rows))
    state = fresh_state(catalog, [CpuDevice("cpu")], memories, 400, 32)
    assert preloaded_free_bytes(catalog.preloaded(), memories, 400, 32) == (
        tuple(memory.free_bytes for memory in state.memories)
    )


class TestExecutedSweep:
    def test_a_sweep_is_one_window_into_one_memory(self):
        machine, expected = _joined()
        physical = machine.compile(JOIN)
        assert "disk sweep on cylinder 0: ops 0, 1" in physical.explain()
        result, report, sweeps = _run_counted(machine, JOIN)
        assert result == expected
        assert sweeps == 1
        ja, jb = [s for s in report.steps if s.device == "disk"]
        rev = machine.disk.model.revolution_seconds
        assert (ja.start, ja.end) == (jb.start, jb.end) == (0.0, rev)
        assert ja.output_memory == jb.output_memory
        assert (ja.swept, jb.swept) == (False, True)
        assert report.device_busy_seconds()["disk"] == rev
        assert physical.predicted_makespan == pytest.approx(
            report.makespan, rel=1e-9
        )

    def test_loads_on_two_cylinders_stay_serial(self):
        machine, expected = _joined(MachineDisk(APART))
        physical = machine.compile(JOIN)
        assert "disk sweep" not in physical.explain()
        result, report, sweeps = _run_counted(machine, JOIN)
        assert result == expected and sweeps == 0
        ja, jb = [s for s in report.steps if s.device == "disk"]
        assert jb.start == ja.end

    def test_a_sweep_no_memory_can_take_is_read_serially(self):
        # Each memory holds one of JA (480 bytes) or JB (420), not both.
        swept, expected = _joined(memory_bytes=600)
        apart, _ = _joined(MachineDisk(APART), memory_bytes=600)
        # The planner forms no sweep it could not land whole, so it
        # predicts the serial reads the machine makes.
        physical = swept.compile(JOIN)
        assert physical.sweeps == []
        result, report, sweeps = _run_counted(swept, JOIN)
        _, serial, _ = _run_counted(apart, JOIN)
        assert physical.predicted_makespan == pytest.approx(
            report.makespan, rel=1e-9
        )
        assert report.makespan * 1e3 == pytest.approx(33.371, abs=1e-3)
        assert result == expected and sweeps == 0
        assert [astuple(s) for s in report.steps] == [
            astuple(s) for s in serial.steps
        ]
        # Replayed from the plan's placement memo, identically.
        _, again, _ = _run_counted(swept, JOIN)
        assert [astuple(s) for s in again.steps] == [
            astuple(s) for s in report.steps
        ]

    def test_loads_released_apart_are_not_swept(self):
        machine, _ = _joined()
        plans = [Base("JA"), Base("JB")]
        physical = machine.compile(plans, arrivals=[0.0, 0.001])
        assert physical.sweeps == []
        assert machine.compile(plans).sweeps[0].op_ids == (0, 1)


CASES = [
    pytest.param(plan, data, capacity, id=f"{plan.describe()}-"
                 f"{capacity.max_rows}")
    for plan, data in CORPUS
    for capacity in (ArrayCapacity(7, 3), ArrayCapacity(63, 8))
]


def _timed(plan, relations, capacity, model):
    machine = SystolicDatabaseMachine(
        capacity=capacity, disk=MachineDisk(model)
    )
    for name, relation in relations.items():
        machine.store(name, relation)
    physical = machine.compile(plan)
    results, report = machine.run_physical(physical)
    ends = {step.label: step.end for step in report.steps}
    assert len(ends) == len(report.steps)
    return physical, results, report, ends


@pytest.mark.parametrize("plan, data, capacity", CASES)
def test_no_op_ends_later_than_with_every_relation_on_its_own_cylinder(
    plan, data, capacity
):
    relations = dict(zip("AB", data()))
    # One relation fills a cylinder this size; the other cannot join it.
    size = max(len(r) * r.arity * 4 for r in relations.values())
    physical, results, report, ends = _timed(
        plan, relations, capacity, DiskModel()
    )
    alone, alone_results, alone_report, alone_ends = _timed(
        plan, relations, capacity, DiskModel(cylinder_bytes=size)
    )
    assert alone.sweeps == []
    assert results == alone_results
    assert ends.keys() == alone_ends.keys()
    for label, end in ends.items():
        assert end <= alone_ends[label] + 1e-12, label
    simulated = {op.label: ends[op.label] for op in physical.ops}
    for op, op_alone in zip(physical.ops, alone.ops):
        if op_alone.est_end == pytest.approx(alone_ends[op.label], rel=1e-9):
            assert op.est_end == pytest.approx(simulated[op.label], rel=1e-9)
    if alone.predicted_makespan == pytest.approx(
        alone_report.makespan, rel=1e-9
    ):
        assert physical.predicted_makespan == pytest.approx(
            report.makespan, rel=1e-9
        )


def test_bulk_join_reads_both_relations_in_one_revolution():
    """``join_pair(4096, 64, 64)`` on one 1 023-row join device: JA
    (49 152 bytes) and JB (768) share cylinder 0, so one revolution
    replaces two, predicted and simulated alike."""
    a, b = join_pair(4096, 64, 64, universe=4160, seed=11)
    capacity = ArrayCapacity(max_rows=1023, max_cols=8)
    pool = EnginePool(devices=(("join", 1, capacity),), capacity=capacity,
                      memory_bytes=512 * 1024 * 1024, backend="lattice")
    rev = DiskModel().revolution_seconds
    for shards, serial_ms in ((1, 35.005), (2, 34.169)):
        session = pool.session(f"s{shards}", shards=shards)
        session.store("JA", a, key="key")
        session.store("JB", b, key="key")
        physical = session.compile(JOIN)
        (result,), report = session.run_many([JOIN])
        assert len(result) == 64
        assert physical.predicted_makespan == pytest.approx(
            report.makespan, rel=1e-9
        )
        assert report.makespan * 1e3 == pytest.approx(
            serial_ms - rev * 1e3, abs=1e-3
        )
