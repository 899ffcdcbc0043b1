"""The comparison-work meter (the E11 instrumentation)."""

import pytest

from repro.systolic.metrics import ComparisonWorkMeter
from repro.systolic.values import Token


class TestComparisonWorkMeter:
    def _observe(self, meter, counts):
        for pulse, count in enumerate(counts):
            outputs = {
                f"c{n}": {"t_out": Token(True)} for n in range(count)
            }
            meter(pulse, {}, outputs)

    def test_counts_cells_emitting_t(self):
        meter = ComparisonWorkMeter()
        self._observe(meter, [0, 2, 3, 1, 0])
        assert meter.per_pulse == [0, 2, 3, 1, 0]
        assert meter.peak == 3

    def test_steady_state_mean_ignores_idle_pulses(self):
        meter = ComparisonWorkMeter()
        self._observe(meter, [0, 0, 4, 4, 0])
        # Four of four cells busy on every pulse that did any work.
        assert meter.utilization(4) == 1.0

    def test_utilization_modes(self):
        meter = ComparisonWorkMeter()
        self._observe(meter, [0, 2, 2])
        assert meter.utilization(4, steady=True) == pytest.approx(0.5)
        assert meter.utilization(4, steady=False) == pytest.approx(4 / 12)

    def test_empty_run(self):
        meter = ComparisonWorkMeter()
        assert meter.peak == 0
        assert meter.utilization(8) == 0.0
        assert meter.utilization(0) == 0.0

    def test_custom_port(self):
        meter = ComparisonWorkMeter(port="and_out")
        meter(0, {}, {"c": {"and_out": Token(True)}, "d": {"t_out": Token(True)}})
        assert meter.per_pulse == [1]
