"""``tools/dump_observables.py`` is deterministic, not merely repeatable
in-process: two interpreters with different hash seeds print the same
digests for every observable of its fixed transaction set."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _dump(hash_seed: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "dump_observables.py")],
        # A hang guard only: the dump takes about 1.5 s, so 300 s is
        # loose on the slowest host.
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_two_hash_seeds_print_identical_digests():
    first, second = _dump("1"), _dump("4242")
    assert first == second
    lines = [line for line in first.splitlines() if not line.startswith("store ")]
    sections = {line.split()[2] for line in lines}
    assert sections == {"results", "steps", "explain", "metrics", "spans"}
    # 9 transactions x 8 front ends, less the 6 sharded ones that the
    # store-backed transaction skips; 5 sections each.
    assert len(lines) == (9 * 8 - 6) * 5
    # Then the stored relation's files: 600 rows in chunks of 50.
    stored = [line.split()[1] for line in first.splitlines()[len(lines):]]
    assert stored == [f"T/chunk-{i:05d}.bin" for i in range(12)] + [
        "T/manifest.json"
    ] + [f"W/chunk-{i:05d}.g1.bin" for i in range(3)] + ["W/manifest.json"]
