"""``BENCHMARK.json`` is the single source of truth for names.

Units, directions, bounds and the reason for each workload are read
from it; the code only knows which names it computes.  If the two
disagree the runner refuses to start.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = ["ROOT", "SpecError", "check", "load", "render_list"]

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SpecError(Exception):
    """BENCHMARK.json is missing, malformed, or out of step with the code."""


def load() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read {SPEC_PATH}: {exc}") from exc


def check(spec: dict, workloads, end_to_end, per_layer) -> None:
    """Declared names must equal the names the code computes."""
    pairs = [
        ("workloads", set(workloads)),
        ("end_to_end", set(end_to_end)),
        ("per_layer", set(per_layer)),
    ]
    problems = []
    for section, computed in pairs:
        declared = [entry["name"] for entry in spec.get(section, [])]
        if len(set(declared)) != len(declared):
            problems.append(f"{section}: duplicate names")
        bad = [n for n in declared if not _NAME_RE.match(n)]
        if bad:
            problems.append(f"{section}: invalid names {bad}")
        if set(declared) != computed:
            problems.append(
                f"{section}: declared but not computed "
                f"{sorted(set(declared) - computed)}, computed but not "
                f"declared {sorted(computed - set(declared))}"
            )
    if problems:
        raise SpecError(
            "BENCHMARK.json and benchmarks/e2e disagree:\n  "
            + "\n  ".join(problems)
        )


def render_list(spec: dict) -> str:
    """Every workload with its reason, every metric with unit/direction."""
    lines = ["workloads"]
    for entry in spec["workloads"]:
        lines.append(f"  {entry['name']:<14} {entry['why']}")
    lines.append("end-to-end metrics (bound = share of the parent's median)")
    for entry in spec["end_to_end"]:
        lines.append(
            f"  {entry['name']:<38} {entry['unit']:<8} "
            f"{entry['better']:<7} bound {entry['bound']}"
        )
    lines.append("per-layer metrics (no bound)")
    for entry in spec["per_layer"]:
        lines.append(
            f"  {entry['name']:<38} {entry['unit']:<8} {entry['better']}"
        )
    return "\n".join(lines)
