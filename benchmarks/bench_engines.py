#!/usr/bin/env python3
"""Pulse vs lattice engine timings on the E3/E6/E7 workloads.

Both engines produce bit-identical relations and pulse counts; this
module measures what that costs.  The pulse engine steps the whole
array pulse by pulse (bulk numpy operations over windows of pulses,
each feedback register advanced a whole position or a whole pulse a
call, whichever axis of the window is shorter: O(windows × min(path,
window)) Python steps, O(cells × pulses) element work); the lattice
engine evaluates the schedule's closed form as a few bulk operations
for the whole run.

Run standalone to (re)generate ``BENCH_engines.json`` at the repo
root — CI's benchmark smoke job does exactly this::

    python benchmarks/bench_engines.py [--out BENCH_engines.json]

or run under pytest-benchmark with the rest of the experiment suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: the repository root, for benchmarks.*
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.probed import Probed
from repro.arrays import systolic_divide, systolic_intersection, systolic_join
from repro.workloads import division_workload, join_pair, overlapping_pair

#: (experiment, operation, size label, thunk factory) — the sizes the
#: committed baseline was first taken at (identity fields of the gate).
def _cases():
    cases = []
    for n in (64, 256):
        a, b = overlapping_pair(n, n, n // 2, arity=3, seed=n)
        cases.append((
            "E3", "intersection", n,
            lambda backend, a=a, b=b: systolic_intersection(
                a, b, backend=backend
            ),
        ))
    for n in (32, 96, 256, 512):
        ja, jb = join_pair(n, n, n // 2, seed=n)
        cases.append((
            "E6", "equi-join", n,
            lambda backend, ja=ja, jb=jb: systolic_join(
                ja, jb, [("key", "key")], backend=backend
            ),
        ))
    for groups in (12, 32, 64):
        da, db, _ = division_workload(groups, 4, 8, seed=groups)
        cases.append((
            "E7", "division", groups,
            lambda backend, da=da, db=db: systolic_divide(
                da, db, backend=backend
            ),
        ))
    return cases


def _time(thunk, repeats: int = 3, budget: float = 2.0):
    """Best wall-clock of ``repeats`` runs, and of as many more as fit
    in ``budget`` seconds.  This host's speed is bimodal (≈ 1.6× apart,
    switching within seconds): a single shot of a sub-second run, or
    best of three of a millisecond one, lands in either mode and wanders
    across the regression gate's 30 % threshold; two seconds of samples
    almost always reach the fast mode's floor, which repeats to a few
    per cent."""
    best = float("inf")
    result = None
    began = time.perf_counter()
    runs = 0
    while runs < repeats or time.perf_counter() - began < budget:
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
        runs += 1
    return best, result


def run_matrix():
    """Time every case on both engines; verify identical answers."""
    entries = []
    for experiment, operation, size, run in _cases():
        with Probed() as probed:
            pulse_seconds, pulse_result = _time(lambda: run("pulse"))
            lattice_seconds, lattice_result = _time(lambda: run("lattice"))
        assert lattice_result.relation == pulse_result.relation
        assert lattice_result.run.pulses == pulse_result.run.pulses
        entries.append({
            "experiment": experiment,
            "operation": operation,
            "n": size,
            "pulses": pulse_result.run.pulses,
            "result_tuples": len(pulse_result.relation),
            "pulse_seconds": round(pulse_seconds, 6),
            "lattice_seconds": round(lattice_seconds, 6),
            "speedup": round(pulse_seconds / lattice_seconds, 1),
            "probe_seconds": probed.seconds,
        })
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_engines.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    entries = run_matrix()
    report = {
        "description": "pulse (register stepper) vs lattice engine "
                       "wall-clock, best of >= 3 runs each, identical "
                       "results and pulse counts (see docs/ENGINES.md and "
                       'docs/PERF.md, "engine kernel")',
        "entries": entries,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for e in entries:
        print(f"{e['experiment']} {e['operation']:<12} n={e['n']:>3}  "
              f"pulse {e['pulse_seconds']:>9.4f}s  "
              f"lattice {e['lattice_seconds']:>9.4f}s  "
              f"{e['speedup']:>7.1f}x")
    print(f"wrote {args.out}")
    # The lattice engine must beat pulse decisively at scale (E3, n=256).
    big = next(e for e in entries
               if e["experiment"] == "E3" and e["n"] >= 256)
    assert big["speedup"] >= 5, (
        f"lattice only {big['speedup']}x faster on E3 n={big['n']}"
    )
    # The join decodes from the run's verdict matrix; a lattice join
    # that builds a Token (or a tap) per pair again costs tens of
    # milliseconds at n=96 — more than the pulse run — and trips this
    # floor (measured: 59x).
    join = next(e for e in entries
                if e["experiment"] == "E6" and e["n"] == 96)
    assert join["speedup"] >= 10, (
        f"join lattice only {join['speedup']}x faster on E6 n=96"
    )
    return 0


def test_engines_agree_and_lattice_wins(benchmark, experiment_report):
    """E3/E6/E7 on both engines: identical answers, lattice faster at scale."""
    a, b = overlapping_pair(64, 64, 32, arity=3, seed=64)
    pulse = systolic_intersection(a, b, backend="pulse")
    result = benchmark(
        lambda: systolic_intersection(a, b, backend="lattice")
    )
    assert result.relation == pulse.relation
    assert result.run.pulses == pulse.run.pulses

    pulse_seconds, _ = _time(lambda: systolic_intersection(a, b))
    lattice_seconds, _ = _time(
        lambda: systolic_intersection(a, b, backend="lattice")
    )
    experiment_report("E3/E6/E7 engine split: pulse vs lattice (n=64)", [
        ("identical relation + pulses", "yes", "yes"),
        ("pulse engine", "O(pulses) steps", f"{pulse_seconds:.4f}s"),
        ("lattice engine", "vectorized", f"{lattice_seconds:.4f}s"),
        ("speedup", ">1x", f"{pulse_seconds / lattice_seconds:.1f}x"),
    ])
    assert pulse_seconds > lattice_seconds


if __name__ == "__main__":
    raise SystemExit(main())
