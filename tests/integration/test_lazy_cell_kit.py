"""A query path loads none of the cell network.

The engines compute on registers; the cell kit (the processors, their
wiring, the simulator and its observers) is only where a run is
watched, and ``materialize(plan)`` is its one builder.  So a process
that imports the machine and the server, which reach every operator and
engine, must not load any of it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
WATCH_KIT = {
    *(f"repro.systolic.{name}" for name in (
        "cell", "cells", "wiring", "simulator", "streams", "values",
        "trace", "metrics",
    )),
    "repro.systolic.engine.materialize",
}


def test_machine_and_server_load_no_cell_kit_module():
    probe = (
        "import sys, repro.machine, repro.serve\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.split()
    assert "repro.systolic.engine.registers" in loaded
    assert "repro.arrays.join" in loaded
    assert [
        module for module in loaded
        if module.split(".cells.")[0] in WATCH_KIT
    ] == []
