"""Smoke test and name contract of the end-to-end benchmark.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e -q``.  It makes three ``run --quick``
runs (a few minutes): two with one seed, one with another.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import spec as specs
from benchmarks.e2e.compare import compare_files
from benchmarks.e2e.layers import EXACT

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _quick_run(path, seed: int) -> dict:
    subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick",
         "--seed", str(seed), "--out", str(path)],
        cwd=specs.ROOT, check=True, timeout=900,
    )
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {
        "first": _quick_run(out / "first.json", seed=5),
        "again": _quick_run(out / "again.json", seed=5),
        "other": _quick_run(out / "other.json", seed=6),
    }


def test_declared_names_are_exactly_the_emitted_names(runs):
    spec = specs.load()
    declared = {
        section: [entry["name"] for entry in spec[section]]
        for section in ("workloads", "end_to_end", "per_layer")
    }
    for names in declared.values():
        assert all(NAME_RE.match(name) for name in names)
        assert len(set(names)) == len(names)
    run = runs["first"]
    assert list(run["workloads"]) == declared["workloads"]
    for result in run["workloads"].values():
        assert sorted(result["end_to_end"]) == sorted(declared["end_to_end"])
        assert sorted(result["per_layer"]) == sorted(declared["per_layer"])


def test_every_operation_succeeds_on_both_seeds(runs):
    for run in runs.values():
        for name, result in run["workloads"].items():
            assert result["correct"], name
            assert result["fail_ratio"] == 0, name
            assert result["attempted"] >= 1, name


def test_simulated_time_and_counts_repeat_exactly(runs):
    first, again, other = runs["first"], runs["again"], runs["other"]
    changed_with_seed = False
    for name in first["workloads"]:
        a, b, c = (run["workloads"][name] for run in (first, again, other))
        sim = "sim_makespan_ms"
        assert a["end_to_end"][sim]["value"] == b["end_to_end"][sim]["value"]
        for metric in EXACT:
            assert a["per_layer"][metric] == b["per_layer"][metric], (
                name, metric,
            )
        changed_with_seed |= (
            a["end_to_end"][sim]["value"] != c["end_to_end"][sim]["value"]
            or any(a["per_layer"][m] != c["per_layer"][m] for m in EXACT)
        )
    assert changed_with_seed, "another seed generated the same data"


def test_layer_shares_cover_operation_time(runs):
    """Self times, measured span by span, add up to the operations'
    wall-clock, measured at their roots: nothing lost or counted twice —
    including ``bulk_join``, whose two shards run side by side."""
    for name, result in runs["first"]["workloads"].items():
        table = result["layers"]
        assert table["coverage"] == pytest.approx(1.0, abs=0.02), name
        shares = sum(row["share"] for row in table["rows"])
        assert shares == pytest.approx(table["coverage"]), name


def test_timing_shims_cost_under_a_quarter(runs):
    # One round per pass is short enough for a neighbour on a shared host
    # to move the ratio; shims that really cost that much do so every run.
    for name in runs["first"]["workloads"]:
        overhead = min(
            run["workloads"][name]["per_layer"]["bench.trace_overhead_ratio"]
            for run in runs.values()
        )
        assert 0 < overhead <= 1.25, name


def test_compare_gives_no_slack_to_counts_or_simulated_time(runs, tmp_path):
    spec = specs.load()

    def compare(run) -> int:
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, report in zip(paths, (runs["first"], run)):
            path.write_text(json.dumps(report), encoding="utf-8")
        return compare_files(spec, *map(str, paths))

    assert compare(runs["first"]) == 0
    assert compare(runs["other"]) == 2  # another seed: not comparable

    def edited(edit) -> dict:
        run = copy.deepcopy(runs["first"])
        edit(run["workloads"]["bulk_join"])
        return run

    def more_pulses(result):
        result["per_layer"]["machine.sim_pulses"] += 1

    def slower_machine(result):
        cell = result["end_to_end"]["sim_makespan_ms"]
        cell["passes"] = [value * 1.001 for value in cell["passes"]]

    def one_failure(result):
        result["fail_ratio"] = 1 / result["attempted"]

    for edit in (more_pulses, slower_machine, one_failure):
        assert compare(edited(edit)) == 1, edit.__name__
