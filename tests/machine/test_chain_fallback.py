"""A fused chain that cannot be placed falls back to store-and-forward.

The planner fuses ``dedup | join`` from estimates; whether the chain's
ports and output fit is only known on the machine, from the resolved
sizes.  When they do not, the members run store-and-forward on the
results they already have — the same timeline ``pipeline=False`` gives,
and no device execution repeated.
"""

from __future__ import annotations

from dataclasses import astuple

from repro import obs
from repro.machine import Base, Dedup, EnginePool, Join
from repro.obs import metrics
from repro.relational import algebra
from repro.workloads import random_relation

RELATION = random_relation(20, 2, universe=12, seed=3)
FILLER = random_relation(100, 2, universe=1000, seed=4)
PLAN = Join(Dedup(Base("A")), Base("D"), on=((0, 0),))
EXPECTED = algebra.join(RELATION, RELATION, [(0, 0)])


def _run(preloads, pipeline=True, **pool_options):
    """Steps, results, the counters and the spans of one run of PLAN."""
    session = EnginePool(**pool_options).session("acme")
    for name, relation in preloads:
        session.preload(name, relation)
    metrics.reset()
    metrics.enable()
    try:
        with obs.tracing() as tracer:
            result, report = session.run(PLAN, pipeline=pipeline)
        counted = {
            name: metrics.counter(name)
            for name in ("machine.chains.executed", "engine.runs")
        }
    finally:
        metrics.disable()
        metrics.reset()
    return [astuple(step) for step in report.steps], result, counted, tracer


def _assert_fell_back(preloads, **pool_options):
    steps, result, counted, tracer = _run(preloads, **pool_options)
    plain_steps, plain_result, plain_counted, _ = _run(
        preloads, pipeline=False, **pool_options
    )
    assert steps == plain_steps  # field for field, keys and memories too
    assert result == plain_result == EXPECTED
    assert counted["machine.chains.executed"] == 0
    # Nothing recomputed: one device execution a member, as many array
    # runs as the store-and-forward plan makes.
    assert counted["engine.runs"] == plain_counted["engine.runs"]
    (chain,) = tracer.find("machine.chain")
    assert chain.attrs["fused"] is False
    assert "sim_start" not in chain.attrs
    assert [op.attrs["op"] for op in chain.children] == ["dedup", "join[0==0]"]
    for op in chain.children:
        assert [child.name for child in op.children] == ["device.execute"]
        assert op.attrs["sim_end"] > op.attrs["sim_start"]
    assert len(tracer.find("device.execute")) == 2


class TestChainFallback:
    def test_port_conflict(self):
        # Four equal preloads on three memories: A and D share mem0, so
        # both stages would hold one port for the chain's whole span.
        _assert_fell_back(
            [(name, RELATION) for name in "ABCD"], memories=3
        )

    def test_no_memory_for_the_fused_tail(self):
        # A, D and the filler take one module each.  Fused, the tail's
        # 600 bytes may only go to the module holding neither external
        # input — the filler's, which has 200 free; store-and-forward,
        # the join avoids only its own inputs' modules.
        _assert_fell_back(
            [("A", RELATION), ("D", RELATION), ("F", FILLER)],
            memories=3, memory_bytes=1000,
        )

    def test_roomy_memories_fuse(self):
        preloads = [(name, RELATION) for name in "ABCD"]
        steps, result, counted, tracer = _run(preloads, memories=4)
        assert result == EXPECTED
        assert counted["machine.chains.executed"] == 1
        (chain,) = tracer.find("machine.chain")
        assert chain.attrs["fused"] is True
        assert [op.attrs["op"] for op in chain.children] == ["dedup", "join[0==0]"]
        # The dedup's result never touches a memory.
        assert [step[5] for step in steps] == ["->join0", "mem1"]
        assert len(tracer.find("device.execute")) == 2
