"""The docs drift check CI runs must pass on this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_check_docs_passes_on_the_checkout():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
