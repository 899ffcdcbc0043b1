"""The bench gate must gate: an entry stays itself when a ratio moves."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", ROOT / "tools" / "check_bench_regression.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def _entries(full_seconds, pruned_seconds):
    return {"entries": [
        {"experiment": "E22", "operation": "full scan", "rows": 1000,
         "host_seconds": full_seconds, "simulated_ms": 400.0},
        {"experiment": "E22", "operation": "equality", "rows": 1000,
         "host_seconds": pruned_seconds,
         "host_speedup_vs_full": round(full_seconds / pruned_seconds, 1),
         "simulated_ms": 200.0},
    ]}


def test_a_moved_speedup_ratio_does_not_hide_its_entry(
    tmp_path, monkeypatch, capsys
):
    """``host_speedup_vs_full`` used to be part of the entry's identity:
    any change of the rounded ratio made the pruned-scan rows "new
    entry — no baseline" and they passed ungated."""
    gate = _load_gate()
    report = tmp_path / "BENCH_storage.json"
    report.write_text(json.dumps(_entries(0.050, 0.008)))
    monkeypatch.setattr(
        gate, "_committed", lambda path, ref: _entries(0.052, 0.004)
    )
    failures = gate.check_file(report, "HEAD", 0.30)
    assert "no baseline" not in capsys.readouterr().out
    assert len(failures) == 1
    assert "host_seconds" in failures[0] and "equality" in failures[0]
    assert "2.00x" in failures[0]

    # The ratio itself is a quotient of gated fields: never gated.
    report.write_text(json.dumps(_entries(0.052, 0.0045)))
    assert gate.check_file(report, "HEAD", 0.30) == []


def _probed(host_seconds, probe_seconds, simulated_ms=400.0):
    entry = {"experiment": "E22", "operation": "full scan", "rows": 1000,
             "host_seconds": host_seconds, "sim_makespan_ms": simulated_ms}
    if probe_seconds is not None:
        entry["probe_seconds"] = probe_seconds
    return {"entries": [entry]}


def test_host_fields_are_compared_on_the_probed_clock(tmp_path, monkeypatch):
    """A host that ran the probe 1.6× slower ran the bench 1.6× slower
    too: that is the host, not the code.  The probe is no part of the
    entry's identity, and simulated fields are never rescaled."""
    gate = _load_gate()
    report = tmp_path / "BENCH_storage.json"
    monkeypatch.setattr(
        gate, "_committed", lambda path, ref: _probed(0.050, 0.0017)
    )
    report.write_text(json.dumps(_probed(0.080, 0.00272)))
    assert gate.check_file(report, "HEAD", 0.30) == []

    # The same slowdown on a quiet probe is the code.
    report.write_text(json.dumps(_probed(0.080, 0.0017)))
    [failure] = gate.check_file(report, "HEAD", 0.30)
    assert "1.60x probed" in failure

    # A baseline recorded without a probe is compared raw.
    monkeypatch.setattr(
        gate, "_committed", lambda path, ref: _probed(0.050, None)
    )
    report.write_text(json.dumps(_probed(0.080, 0.00272)))
    [failure] = gate.check_file(report, "HEAD", 0.30)
    assert "1.60x raw" in failure

    # A simulated field moved: raw, whatever the probes say.
    monkeypatch.setattr(
        gate, "_committed", lambda path, ref: _probed(0.050, 0.0017)
    )
    report.write_text(json.dumps(_probed(0.050, 0.0034, simulated_ms=600.0)))
    [failure] = gate.check_file(report, "HEAD", 0.30)
    assert "sim_makespan_ms" in failure and "1.50x raw" in failure
