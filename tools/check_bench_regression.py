#!/usr/bin/env python3
"""Gate benchmark wall-clock against the committed baselines.

CI's bench-smoke job regenerates the ``BENCH_*.json`` reports in the
working tree; this tool compares every freshly measured entry against
the version committed at ``HEAD`` and fails if any wall-clock field
regressed by more than the threshold (default 30%)::

    python tools/check_bench_regression.py BENCH_engines.json BENCH_planner.json
    python tools/check_bench_regression.py --threshold 0.5 BENCH_engines.json

Host-timed fields are compared on the probed clock: where an entry and
its baseline both carry ``probe_seconds`` (what the end-to-end
benchmark's fixed probe took around the measurement, see
``benchmarks/probed.py``), the ratio is of ``value / probe_seconds`` on
each side, so a host that ran everything slower reads the same.  A
baseline without a probe is compared raw.  Simulated fields (named
``sim…``) are deterministic and always compared raw.

Only the top-level ``entries`` list is gated.  Sections that record
host-dependent wall-clock (``host_execution``, ``plan_cache``) are
informational and skipped — a CI runner's core count and numpy build
legitimately differ from the machine that produced the baseline.
Entries are matched by their identity fields (everything that is not a
measurement); a new entry with no committed counterpart passes — it
*is* the new baseline.  Improvements never fail the gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: Fields that carry measured wall-clock, by suffix.
_CLOCK_SUFFIXES = ("_seconds", "_ms")
#: Derived/simulated fields never gated: simulated pulse-clock times are
#: deterministic (equality-checked by the bench itself), and ratios —
#: every field with ``speedup`` in its name — are noisy quotients of the
#: gated quantities.  They are no part of an entry's identity either: a
#: ratio that moved must not turn its entry into a "new" one.
_SKIP_FIELDS = {
    "pipelined_ms", "store_and_forward_ms",
    "law_pipelined_ms", "predicted_ms", "probe_seconds",
}
#: What the probe around an entry's host-timed fields took.
_PROBE = "probe_seconds"


def _is_skipped(field: str) -> bool:
    return field in _SKIP_FIELDS or "speedup" in field


def _is_clock(field: str) -> bool:
    return field.endswith(_CLOCK_SUFFIXES) and not _is_skipped(field)


def _ratio(field: str, value: float, committed: float,
           entry: dict, base: dict) -> tuple[float, str]:
    """Measured over committed, rescaled by the probes around each where
    both sides recorded one and the field is host-timed; and how it was
    compared."""
    probes = entry.get(_PROBE), base.get(_PROBE)
    if field.startswith("sim") or not all(probes):
        return value / committed, "raw"
    return (value / probes[0]) / (committed / probes[1]), "probed"


def _identity(entry: dict) -> tuple:
    """An entry's identity: every non-measurement field, sorted."""
    return tuple(sorted(
        (k, v) for k, v in entry.items()
        if not _is_clock(k) and not _is_skipped(k)
        and not isinstance(v, (dict, list))
    ))


def _committed(path: Path, ref: str) -> dict | None:
    """The baseline JSON at ``ref``, or None if not committed there."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{path.as_posix()}"],
        capture_output=True, text=True,
        cwd=path.resolve().parent,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def check_file(path: Path, ref: str, threshold: float) -> list[str]:
    """Regression messages for one report file (empty = clean)."""
    current = json.loads(path.read_text())
    baseline = _committed(path, ref)
    if baseline is None:
        print(f"{path}: no committed baseline at {ref}; skipping")
        return []
    base_by_id = {
        _identity(entry): entry for entry in baseline.get("entries", [])
    }
    failures: list[str] = []
    for entry in current.get("entries", []):
        base = base_by_id.get(_identity(entry))
        if base is None:
            print(f"{path}: new entry {dict(_identity(entry))} — no baseline")
            continue
        for field, value in entry.items():
            if not _is_clock(field) or field not in base:
                continue
            committed = base[field]
            if committed <= 0:
                continue
            ratio, clock = _ratio(field, value, committed, entry, base)
            marker = "FAIL" if ratio > 1 + threshold else "ok"
            print(f"{path}: {dict(_identity(entry))} {field}: "
                  f"{committed} -> {value} ({ratio:.2f}x {clock}) {marker}")
            if ratio > 1 + threshold:
                failures.append(
                    f"{path}: {field} of {dict(_identity(entry))} regressed "
                    f"{ratio:.2f}x {clock} (committed {committed}, measured "
                    f"{value}, threshold {1 + threshold:.2f}x)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="BENCH_*.json files to gate")
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="allowed fractional slowdown before failing (default 0.30)",
    )
    parser.add_argument(
        "--ref", default="HEAD",
        help="git ref holding the committed baseline (default HEAD)",
    )
    args = parser.parse_args(argv)
    failures: list[str] = []
    for name in args.files:
        failures.extend(check_file(Path(name), args.ref, args.threshold))
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("no wall-clock regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
