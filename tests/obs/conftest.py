"""Fixtures for the observability tests.

Every test runs with a clean ambient tracer and a disabled, empty
metrics registry, and leaves them that way — the obs switches are
process-global, so isolation here keeps the rest of the suite honest
about its "off by default" contract.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.machine import Base, Join, Project, SystolicDatabaseMachine
from repro.obs import metrics
from repro.workloads import join_pair


@pytest.fixture(autouse=True)
def clean_obs():
    obs.stop()
    metrics.disable()
    metrics.reset()
    yield
    obs.stop()
    metrics.disable()
    metrics.reset()


def build_machine(backend=None) -> SystolicDatabaseMachine:
    """A machine with two joinable base relations on disk."""
    machine = SystolicDatabaseMachine(backend=backend)
    a, b = join_pair(40, 30, 8, seed=31)
    machine.store("R", a)
    machine.store("S", b)
    return machine


def join_project_plan() -> Project:
    """A plan whose join → project stages fuse into a pipelined chain."""
    return Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1))


def exported_tree(span) -> tuple:
    """Name, exported attributes and nesting: what a trace file keeps
    of a span (its ``args`` are the structural and volatile attributes
    together, through JSON)."""
    args = json.loads(json.dumps({**span.attrs, **span.volatile}))
    return (span.name, args, [exported_tree(child) for child in span.children])
