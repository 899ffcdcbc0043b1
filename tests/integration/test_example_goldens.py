"""The watch kit's printed figures, held byte for byte.

``examples/watch_the_array.py`` prints the Fig 3-4 trace pulse by pulse
and ``examples/render_figures.py`` the schematics drawn from live
networks.  Both are what a reader of the paper compares against its
figures, so a change to how a network is built or stepped must leave
their stdout exactly as recorded in ``golden/``.
"""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["watch_the_array", "render_figures"])
def test_example_prints_its_golden(name, capsys, monkeypatch):
    script = ROOT / "examples" / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
