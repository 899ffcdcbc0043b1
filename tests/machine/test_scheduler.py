"""Scheduler internals: device timeline and execution reports."""

import pytest

from repro.arrays import ArrayCapacity
from repro.errors import PlanError
from repro.machine.device import CpuDevice, SystolicDevice
from repro.machine.plan import DEVICE_COMPARISON, DEVICE_JOIN
from repro.machine.scheduler import (
    DeviceRoster,
    ExecutionReport,
    ScheduledStep,
)


def _devices():
    return [
        SystolicDevice("comparison0", DEVICE_COMPARISON,
                       capacity=ArrayCapacity(7, 2)),
        SystolicDevice("comparison1", DEVICE_COMPARISON,
                       capacity=ArrayCapacity(7, 2)),
        SystolicDevice("join0", DEVICE_JOIN, capacity=ArrayCapacity(7, 2)),
        CpuDevice("cpu"),
    ]


class TestDeviceTimeline:
    def test_prefers_idle_instance(self):
        timeline = DeviceRoster(_devices())
        first, start = timeline.pick(DEVICE_COMPARISON, ready=0.0)
        assert start == 0.0
        timeline.occupy(first.name, until=5.0)
        second, start = timeline.pick(DEVICE_COMPARISON, ready=0.0)
        assert second.name != first.name
        assert start == 0.0

    def test_waits_when_all_busy(self):
        timeline = DeviceRoster(_devices())
        timeline.occupy("comparison0", until=5.0)
        timeline.occupy("comparison1", until=3.0)
        device, start = timeline.pick(DEVICE_COMPARISON, ready=0.0)
        assert device.name == "comparison1"  # frees first
        assert start == 3.0

    def test_ready_time_dominates_when_later(self):
        timeline = DeviceRoster(_devices())
        timeline.occupy("join0", until=1.0)
        _, start = timeline.pick(DEVICE_JOIN, ready=9.0)
        assert start == 9.0

    def test_unknown_kind(self):
        timeline = DeviceRoster(_devices())
        with pytest.raises(PlanError, match="no device of kind"):
            timeline.pick("quantum", ready=0.0)

    def test_empty_machine_rejected(self):
        with pytest.raises(PlanError):
            DeviceRoster([])


class TestExecutionReport:
    def _step(self, label, device, start, end):
        return ScheduledStep(
            label=label, device=device, start=start, end=end,
            output_key="k", output_memory="mem0",
        )

    def test_makespan_and_serial(self):
        report = ExecutionReport(steps=[
            self._step("a", "d0", 0.0, 2.0),
            self._step("b", "d1", 1.0, 3.0),
        ])
        assert report.makespan == 3.0
        assert report.serial_seconds == 4.0
        assert report.concurrency_speedup == pytest.approx(4 / 3)

    def test_empty_report(self):
        report = ExecutionReport()
        assert report.makespan == 0.0
        assert report.concurrency_speedup == 1.0

    def test_device_busy_accumulates(self):
        report = ExecutionReport(steps=[
            self._step("a", "d0", 0.0, 2.0),
            self._step("b", "d0", 2.0, 5.0),
        ])
        assert report.device_busy_seconds() == {"d0": 5.0}

    def test_timeline_sorted_by_start(self):
        report = ExecutionReport(steps=[
            self._step("later", "d0", 5.0, 6.0),
            self._step("earlier", "d1", 0.0, 1.0),
        ])
        text = report.timeline()
        assert text.index("earlier") < text.index("later")
        assert "makespan" in text

    def test_step_duration(self):
        assert self._step("x", "d", 1.0, 3.5).duration == 2.5


class TestGantt:
    def _report(self):
        return ExecutionReport(steps=[
            ScheduledStep(label="load", device="disk", start=0.0, end=0.5,
                          output_key="k0", output_memory="mem0"),
            ScheduledStep(label="op", device="comparison0", start=0.5,
                          end=1.0, output_key="k1", output_memory="mem1"),
        ])

    def test_one_row_per_device(self):
        from repro.machine.scheduler import gantt

        chart = gantt(self._report(), width=20)
        lines = chart.splitlines()
        assert len(lines) == 3  # two devices + scale
        assert lines[0].strip().startswith("comparison0")
        assert "#" in lines[0] and "#" in lines[1]

    def test_busy_halves_do_not_overlap(self):
        from repro.machine.scheduler import gantt

        chart = gantt(self._report(), width=40)
        disk_row = next(l for l in chart.splitlines() if "disk" in l)
        comparison_row = next(
            l for l in chart.splitlines() if "comparison0" in l
        )
        disk_cells = {i for i, c in enumerate(disk_row) if c == "#"}
        op_cells = {i for i, c in enumerate(comparison_row) if c == "#"}
        assert max(disk_cells) <= min(op_cells) + 1  # sequential phases

    def test_scale_shows_makespan(self):
        from repro.machine.scheduler import gantt

        # Steps end at 1.0 s — the scale renders in milliseconds.
        assert "1000.0 ms" in gantt(self._report())

    def test_empty_report(self):
        from repro.machine.scheduler import gantt

        assert "empty" in gantt(ExecutionReport())
