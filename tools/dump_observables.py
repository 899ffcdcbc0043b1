#!/usr/bin/env python3
"""Dump every observable of a fixed set of transactions, for diffing.

A refactor that claims "results, timelines, ``explain()``, metric
counts and span structures unchanged" proves it by running this on the
parent commit and on the change and diffing the two outputs::

    PYTHONPATH=src python tools/dump_observables.py          # digests
    PYTHONPATH=src python tools/dump_observables.py --full   # + the text

The transactions: a single op, a pipelined chain, a chain forced to
fall back to store-and-forward (two stages' inputs in one memory), a
select fused into the read of a store-backed relation (machine and
pool session only — a sharded catalog takes no store), a re-partition
plus a broadcast exchange, and the pipelined chain under two seeded
fault plans: transient faults of every kind, which a run recovers from
in place, and a killed join array with a spare beside it, which
interrupts an attempt.  Last, an intersection and a remove-duplicates
of 256-row operands on lattice and on bitplane devices, large enough
that both engines rank the memberships instead of comparing them (the
others run on the default engine).  Each runs on a machine, a pool
session, and 2 / 3 / 4 shards × hash / range partitioning.

Per run, one SHA-256 for each section:

* ``results`` — every result's columns and tuples, in order;
* ``steps`` — every field of every ``ScheduledStep``;
* ``explain`` — ``PhysicalPlan.explain()`` (machine, pool, each shard's
  final stage) and ``ShardedPlan.explain()``;
* ``metrics`` — counters, gauges, histogram counts, and the sums of the
  simulated (not host-clock) histograms;
* ``spans`` — ``Span.structure()`` of every root, as an indented tree.

Last, one line ``store <relation>/<file> <digest>`` for each file —
``manifest.json`` and every chunk — of each relation the transactions
wrote to the store, and of ``W``, written twice so that its ``.g1``
chunks are a rewrite's: the bytes the store writes, and the names a
rewrite gives them, are observables too.

``--full`` is the only option and changes only what is printed.  The
output is a function of the source alone: the same under any
``PYTHONHASHSEED`` (``tests/integration/test_dump_observables.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.faults import parse_faults  # noqa: E402
from repro.machine import (  # noqa: E402
    Base, Dedup, Divide, EnginePool, Intersect, Join, Project, Select,
    SystolicDatabaseMachine,
)
from repro.machine.plan import (  # noqa: E402
    DEVICE_COMPARISON, DEVICE_DIVISION, DEVICE_JOIN,
)
from repro.obs import metrics  # noqa: E402
from repro.store import RelationStore  # noqa: E402
from repro.workloads import (  # noqa: E402
    division_workload, join_pair, overlapping_pair, random_relation,
)

#: Every transient fault kind (the exchange rule needs an exchange).
CHAOS = "device:join0:1,device:comparison0:1,disk:R:1,shard:1:2,exchange:*:2"
#: A spare join array, so a killed ``join0`` degrades onto it.
REDUNDANT = ((DEVICE_COMPARISON, 1), (DEVICE_JOIN, 2), (DEVICE_DIVISION, 1))
#: Histograms of host seconds: their counts are compared, their sums not.
HOST_CLOCK = {"service.query.seconds", "shard.merge_seconds"}

#: name -> the session's (shards, strategy); the machine has no session.
FRONT_ENDS = {"machine": None, "pool": (1, None)} | {
    f"shards{n}-{strategy}": (n, strategy)
    for n in (2, 3, 4) for strategy in ("hash", "range")
}


def transactions(store_dir: Path) -> dict[str, dict]:
    """name -> what to store / preload / attach, the plans, the options."""
    a, b = overlapping_pair(24, 20, 9, arity=2, seed=30)
    r, s = join_pair(40, 30, 8, seed=31)
    dividend, divisor, _ = division_workload(6, 4, 3, seed=5)
    same = random_relation(20, 2, universe=12, seed=3)
    big_a, big_b = overlapping_pair(256, 256, 96, arity=3, universe=16, seed=32)
    store = RelationStore(store_dir)
    store.write(
        "T", random_relation(600, 3, universe=40, seed=9),
        chunk_rows=50, index_columns=(0, 1),
    )
    chain = [Project(Join(Base("R"), Base("S"), on=((0, 0),)), (0, 1))]
    return {
        "single_op": dict(
            store={"A": a, "B": b}, plans=[Intersect(Base("A"), Base("B"))],
        ),
        "pipelined_chain": dict(store={"R": r, "S": s}, plans=chain),
        "forced_fallback": dict(
            preload={name: same for name in "ABCD"}, memories=3,
            plans=[Join(Dedup(Base("A")), Base("D"), on=((0, 0),))],
        ),
        "fused_select": dict(
            attach=store, store={"B": b}, shardable=False,
            plans=[
                Select(Base("T"), 0, "==", 7),
                Intersect(Select(Base("T"), 1, "<", 5), Base("T")),
            ],
        ),
        "exchanges": dict(
            store={"R": r, "S": s, "P": dividend, "Q": divisor},
            plans=[
                Join(Base("R"), Base("S"), on=((1, 1),)),   # re-partition
                Divide(Base("P"), Base("Q")),               # broadcast of Q
                Dedup(Project(Base("R"), (1,))),
            ],
        ),
        "chaos": dict(
            store={"R": r, "S": s}, faults=CHAOS,
            plans=chain + [Join(Base("R"), Base("S"), on=((1, 1),))],
        ),
        "quarantine": dict(
            store={"R": r, "S": s}, plans=chain, devices=REDUNDANT,
            faults="device:join0:kill",
        ),
    } | {
        f"ranked_{backend}": dict(
            store={"A": big_a, "B": big_b}, backend=backend,
            plans=[
                Intersect(Base("A"), Base("B")),
                Dedup(Project(Base("A"), (0, 1))),
            ],
        )
        for backend in ("lattice", "bitplane")
    }


def build(front_end: str, spec: dict):
    """The loaded front end: a machine or a (sharded) pool session."""
    options = {"memories": spec.get("memories", 4)}
    for option in ("devices", "backend"):
        if option in spec:
            options[option] = spec[option]
    if "faults" in spec:
        options["faults"] = parse_faults(spec["faults"], seed=42)
    if FRONT_ENDS[front_end] is None:
        target = SystolicDatabaseMachine(**options)
    else:
        shards, strategy = FRONT_ENDS[front_end]
        target = EnginePool(**options).session(
            "acme", shards=shards, shard_strategy=strategy
        )
    for name, relation in spec.get("store", {}).items():
        target.store(name, relation)
    for name, relation in spec.get("preload", {}).items():
        target.preload(name, relation)
    if "attach" in spec:
        target.catalog.attach_store(spec["attach"])
    return target


def explain_text(target, plans) -> str:
    compiled = target.compile(plans)
    if hasattr(compiled, "physicals"):  # a ShardedCompilation
        return "\n".join(
            [compiled.plan.explain()]
            + [f"shard {i}:\n{physical.explain()}"
               for i, physical in enumerate(compiled.physicals)]
        )
    return compiled.explain()


def metrics_text() -> str:
    lines = []
    for name, entry in metrics.snapshot().items():
        if entry["kind"] == "histogram":
            value = f"count={entry['count']}"
            if name not in HOST_CLOCK:
                value += f" total={entry['total']!r}"
        else:
            value = repr(entry["value"])
        lines.append(f"{name} {entry['kind']} {value}")
    return "\n".join(lines)


def spans_text(structures) -> str:
    lines = []

    def emit(structure, depth: int) -> None:
        name, attrs, children = structure
        lines.append(f"{'  ' * depth}{name} {json.dumps(dict(attrs))}")
        for child in children:
            emit(child, depth + 1)

    for structure in structures:
        emit(structure, 0)
    return "\n".join(lines)


def observe(front_end: str, spec: dict) -> dict[str, str]:
    """Run one transaction on one front end; section name -> text."""
    target = build(front_end, spec)
    metrics.reset()
    metrics.enable()
    try:
        with obs.tracing() as tracer:
            results, report = target.run_many(spec["plans"])
        counted = metrics_text()
    finally:
        metrics.disable()
        metrics.reset()
    return {
        "results": "\n".join(
            f"{result.schema.names} {list(result.tuples)!r}"
            for result in results
        ),
        "steps": "\n".join(repr(astuple(step)) for step in report.steps),
        "explain": explain_text(target, spec["plans"]),
        "metrics": counted,
        "spans": spans_text(root.structure() for root in tracer.roots),
    }


def store_digests(store_dir: Path) -> list[str]:
    """One SHA-256 per file of every relation stored under ``store_dir``,
    after ``W`` is written there twice with different rows: a rewrite's
    chunk names and bytes are observables too."""
    store = RelationStore(store_dir)
    for seed in (10, 11):
        store.write(
            "W", random_relation(120, 2, universe=40, seed=seed),
            chunk_rows=50,
        )
    return [
        f"store {name}/{file.name} "
        f"{hashlib.sha256(file.read_bytes()).hexdigest()}"
        for name in store.names()
        for file in sorted(store.open(name).path.iterdir())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="print each section's text under its digest",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="dump-observables-") as scratch:
        for name, spec in transactions(Path(scratch)).items():
            for front_end in FRONT_ENDS:
                if front_end.startswith("shards") and not spec.get(
                    "shardable", True
                ):
                    continue
                for section, text in observe(front_end, spec).items():
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    print(f"{name} {front_end} {section} {digest}")
                    if args.full:
                        for line in text.splitlines():
                            print(f"    {line}")
        for line in store_digests(Path(scratch)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
