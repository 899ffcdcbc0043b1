"""The self-verification sweep and its CLI entry point."""

import pytest

from repro.__main__ import main
from repro.selftest import CheckResult, SelfTestReport, run_selftest
from repro.systolic.engine import LatticeEngine


class TestSelfTest:
    def test_sweep_passes(self):
        report = run_selftest(seed=3, size=6)
        assert report.passed
        assert len(report.checks) == 23

    def test_deterministic_per_seed(self):
        first = run_selftest(seed=1, size=5)
        second = run_selftest(seed=1, size=5)
        assert [c.detail for c in first.checks] == [
            c.detail for c in second.checks
        ]

    def test_summary_scoreboard(self):
        report = run_selftest(seed=0, size=4)
        text = report.summary()
        assert "ALL CHECKS PASSED" in text
        assert "intersection [counter]" in text
        assert "pattern-match chip" in text

    @pytest.mark.parametrize("backend", ["lattice", "bitplane", "pulse"])
    def test_blocked_section_runs_on_every_engine(self, backend):
        report = run_selftest(seed=2, size=7, backend=backend)
        blocked = [c for c in report.checks if c.name.startswith("blocked ")]
        assert [c.name for c in blocked] == [
            "blocked intersection", "blocked difference",
            "blocked remove-duplicates", "blocked union",
            "blocked equi-join", "blocked theta-join",
            "blocked intersection 105x105",
            "blocked intersection 256x256",
            "blocked remove-duplicates 256x256",
        ]
        assert all(c.passed for c in blocked), report.summary()
        assert all("block runs" in c.detail for c in blocked)

    def test_a_kernel_that_drifts_from_its_blocks_fails_the_audit(self):
        """The blocked section is the audit of the one-run kernel: a
        kernel that gets one pair wrong, or bills one pulse too few,
        fails it even where the relation still equals the oracle."""

        class OffByOnePair(LatticeEngine):
            def _run_blocked(self, plan):
                run = super()._run_blocked(plan)
                if plan.reduce == "pairs":
                    run.verdicts = run.verdicts[:, 1:]
                else:
                    run.verdicts[-1] ^= True
                return run

        class OnePulseShort(LatticeEngine):
            def _run_blocked(self, plan):
                run = super()._run_blocked(plan)
                run.pulses -= 1
                return run

        for engine, complaint in ((OffByOnePair(), "disagree"),
                                  (OnePulseShort(), "pulses")):
            report = run_selftest(seed=2, size=7, backend=engine)
            failed = [c for c in report.checks if not c.passed]
            assert failed, engine
            assert all(c.name.startswith("blocked ") for c in failed)
            assert any(complaint in c.detail for c in failed)

    def test_failure_is_reported_not_raised(self):
        report = SelfTestReport(checks=[
            CheckResult("good", True, "fine"),
            CheckResult("bad", False, "AssertionError: boom"),
        ])
        assert not report.passed
        assert "FAIL" in report.summary()
        assert "CHECKS FAILED" in report.summary()


class TestSelfTestCli:
    def test_cli_exit_zero_on_pass(self, capsys):
        assert main(["selftest", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out

    def test_cli_seed_flag(self, capsys):
        assert main(["selftest", "--size", "4", "--seed", "9"]) == 0
