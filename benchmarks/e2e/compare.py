"""``compare A.json B.json`` — apply the declared bounds to two runs.

Both files come from ``run --out`` with the same seed and run length.
One row per (workload, metric): A's value, B's value, B ÷ A (the
ratio's base is A), the bound, and a verdict.

* Host-clock and memory metrics: ``worse`` means B is beyond the
  metric's declared bound in the bad direction.  A host-clock metric is
  ``unresolved`` when the difference cannot be trusted either way — a
  pass was flagged noisy (the host ran slower than the probed clock is
  known to cancel), or the metric's own spread between the passes of
  one run already exceeds the bound — unless every pass of B reads
  better than every pass of A.
* ``sim_makespan_ms``, ``fail_ratio`` and every count have bound 0 and
  no excuse: the simulated clock and the counts repeat exactly for a
  given seed, so any difference means the modelled machine or the work
  done changed, and any failed operation is a failure.

Exit code 1 on any ``worse``, 2 when the two runs cannot be compared.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e.layers import EXACT

__all__ = ["compare_files", "verdict"]

#: the metrics a busy neighbour on a shared host can move.
HOST_CLOCK = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")
#: the end-to-end metric that must not move at all between two runs.
SIMULATED = "sim_makespan_ms"


def verdict(entry: dict, a: dict, b: dict, noisy: bool) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one bounded metric."""
    bound = entry["bound"]
    if entry["better"] == "lower":
        worse = b["value"] > a["value"] * (1 + bound)
    else:
        worse = b["value"] < a["value"] * (1 - bound)
    noisy = noisy and entry["name"] in HOST_CLOCK
    if noisy or max(a["spread"], b["spread"]) > bound:
        # Unless every pass of B reads better than every pass of A.
        if entry["better"] == "lower":
            clear = max(b["passes"]) < min(a["passes"])
        else:
            clear = min(b["passes"]) > max(a["passes"])
        return "ok" if clear else "unresolved"
    return "worse" if worse else "ok"


def _row(workload: str, metric: str, a: float, b: float, bound: float,
         result: str) -> None:
    ratio = f"{b / a:>9.3f}" if a else f"{'-':>9}"
    print(f"{workload:<14}{metric:<34}{a:>14.4f}{b:>14.4f}"
          f"{ratio}{bound:>7.2f}  {result}")


def compare_files(spec: dict, path_a: str, path_b: str) -> int:
    run_a, run_b = (
        json.loads(Path(path).read_text(encoding="utf-8"))
        for path in (path_a, path_b)
    )
    for setting in ("seed", "seconds", "quick"):
        if run_a[setting] != run_b[setting]:
            print(f"error: A ran with {setting} {run_a[setting]}, B with "
                  f"{run_b[setting]}; their counts cannot be compared")
            return 2
    if run_a["quick"]:
        print("note: a --quick run's host-clock numbers are not comparable")
    verdicts = []
    print(f"{'workload':<14}{'metric':<34}{'A':>14}{'B':>14}"
          f"{'B/A':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = run_a["workloads"][workload], run_b["workloads"][workload]
        noisy = a["noisy"] or b["noisy"]
        if noisy:
            print(f"{workload:<14}noisy: the host ran "
                  f"{a['host_slowdown']:.3f}x slower than the probe's "
                  f"reference in A, {b['host_slowdown']:.3f}x in B")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            cell_a, cell_b = a["end_to_end"][name], b["end_to_end"][name]
            if name == SIMULATED:
                same = cell_a["passes"] == cell_b["passes"]
                result, bound = ("ok" if same else "worse"), 0.0
            else:
                result = verdict(entry, cell_a, cell_b, noisy)
                bound = entry["bound"]
            verdicts.append(result)
            _row(workload, name, cell_a["value"], cell_b["value"], bound,
                 result)
        failed = a["fail_ratio"] or b["fail_ratio"]
        verdicts.append("worse" if failed else "ok")
        _row(workload, "fail_ratio", a["fail_ratio"], b["fail_ratio"], 0.0,
             verdicts[-1])
        changed = [
            name for name in EXACT
            if a["per_layer"][name] != b["per_layer"][name]
        ]
        for name in changed:
            verdicts.append("worse")
            _row(workload, name, a["per_layer"][name], b["per_layer"][name],
                 0.0, "worse")
        print(f"{workload:<14}{len(EXACT) - len(changed)} of {len(EXACT)} "
              f"counts identical")
    for result in ("worse", "unresolved", "ok"):
        print(f"{result}: {verdicts.count(result)}", end="  ")
    print()
    return 1 if "worse" in verdicts else 0
