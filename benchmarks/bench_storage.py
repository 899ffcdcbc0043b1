#!/usr/bin/env python3
"""E22 — out-of-core storage: zone-pruned scans over Morton-clustered
chunks at the million-tuple scale.

Claim reproduced: the paper's machine reads base relations from mass
storage in blocks (§8); with the columnar store's rows clustered in
Morton order and each chunk's (min, max) zone maps, a selective
predicate reads **strictly fewer chunks** than a full scan —
and the machine's answer over the pruned scan is bit-identical to the
in-memory path, on the lattice and bitplane engines alike.

Run standalone to (re)generate ``BENCH_storage.json`` at the repo root —
CI's benchmark smoke job does exactly this::

    python benchmarks/bench_storage.py [--out BENCH_storage.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

if not __package__:  # run as a script: the repository root, for benchmarks.*
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.probed import Probed
from repro.machine import Base, Select, SystolicDatabaseMachine
from repro.machine.disk import MachineDisk
from repro.relational.domain import IntegerDomain
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.store import DEFAULT_CHUNK_ROWS, RelationStore, pool_info
from repro.store import columnar

_INT = IntegerDomain("int")

#: The scaled suppliers-parts workload: a million (s, p, qty) tuples.
N_ROWS = 1_000_000

#: Selective probes: ~0.1% (equality) and ~5% (range) of the relation.
PROBES = [
    ("equality s=123 (~0.1%)", ("s", "==", 123)),
    ("range p<100 (~5%)", ("p", "<", 100)),
]


def _sp_schema() -> Schema:
    return Schema.of(("s", _INT), ("p", _INT), ("qty", _INT))


def _sp_array(n: int, seed: int = 22) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.integers(0, 1000, n),
            rng.integers(0, 2000, n),
            np.arange(n),  # keeps full rows distinct under set semantics
        ],
        axis=1,
    )


def build_store(root, n: int = N_ROWS, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Write the scaled workload; returns (store, raw rows array)."""
    rows = _sp_array(n)
    store = RelationStore(root)
    store.write_array(
        "SP", rows, _sp_schema(), chunk_rows=chunk_rows,
        index_columns=("s", "p"),
    )
    return store, rows


def _time(thunk, repeats: int = 1):
    """Best-of-``repeats`` wall-clock (same discipline as bench_engines)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_first_reads(store: RelationStore, selection, repeats: int = 3):
    """Best-of-``repeats`` first read, each by a freshly opened handle:
    the chunk pool holds nothing of it, so every chunk comes from its
    file, as every read did before the pool."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        handle = RelationStore(store.root).open("SP")
        seconds, result = _time(lambda: handle.read(selection))
        best = min(best, seconds)
    return best, result


def _time_pooled(handle, selection, repeats: int = 3):
    """Best-of-``repeats`` read after two untimed ones: the pool keeps a
    block at its second miss, so these are served from it when it keeps
    the blocks at all.  Also returns how many chunk files each read."""
    handle.read(selection)
    handle.read(selection)
    misses = pool_info()["misses"]
    seconds, scan = _time(lambda: handle.read(selection), repeats)
    return seconds, scan, (pool_info()["misses"] - misses) // repeats


def _brute(rows: np.ndarray, position: int, op: str, value: int) -> int:
    ufunc = {"==": np.equal, "<": np.less}[op]
    return int(ufunc(rows[:, position], value).sum())


def run_scan_matrix(store: RelationStore, rows: np.ndarray) -> list[dict]:
    """Host-side scans: pruned reads vs the full sweep, same answers.

    The entries without a suffix time reads that go to the chunk files:
    the handle's first full read, and each probe's first read by a
    fresh handle.  ``, pooled`` entries time the same reads once the
    chunk pool holds them; ``, SP 4x the pool`` entries repeat them with
    the pool's budget cut to a quarter of SP, which then stands for a
    relation larger than the pool.
    """
    handle = store.open("SP")
    disk = MachineDisk()
    disk.attach_store(store)
    pools = (
        ("pooled", columnar.CHUNK_POOL_BYTES),
        ("SP 4x the pool", handle.rows * handle.arity * 8 // 4),
    )
    entries = []
    full_seconds = None
    for label, selection in [("full scan", None)] + PROBES:
        if selection is None:
            with Probed() as probed:
                seconds, scan = _time(lambda: handle.read())
            full_seconds = seconds
            assert scan.chunks_read == handle.n_chunks
        else:
            column, op, value = selection
            with Probed() as probed:
                seconds, scan = _time_first_reads(store, selection)
            # The pruning contract, at scale: strictly fewer chunks
            # read, bit-identical row set.
            assert scan.chunks_read < scan.chunks_total, (
                f"{label}: read {scan.chunks_read}/{scan.chunks_total} "
                f"chunks — the zone maps pruned nothing"
            )
            assert scan.chunks_pruned > 0
            assert len(scan.relation) == _brute(
                rows, handle.schema.resolve(column), op, value
            )
        _, sim_seconds = disk.read("SP", selection)
        entry = {
            "experiment": "E22",
            "operation": label,
            "rows": handle.rows,
            "chunks_total": scan.chunks_total,
            "chunks_read": scan.chunks_read,
            "chunks_pruned": scan.chunks_pruned,
            "rows_scanned": scan.rows_scanned,
            "host_seconds": round(seconds, 6),
            "simulated_ms": round(sim_seconds * 1e3, 3),
            "probe_seconds": probed.seconds,
        }
        entries.append(entry if selection is None else {
            **entry,
            "result_tuples": len(scan.relation),
            "host_speedup_vs_full": round(full_seconds / seconds, 1),
        })
        for suffix, budget in pools:
            with _pool_of(budget), Probed() as probed:
                seconds, again, misses = _time_pooled(handle, selection)
            assert np.array_equal(again.relation.array, scan.relation.array)
            entries.append({
                **entry,
                "operation": f"{label}, {suffix}",
                "chunk_files_read": misses,
                "host_seconds": round(seconds, 6),
                "probe_seconds": probed.seconds,
            })
    return entries


@contextlib.contextmanager
def _pool_of(budget: int):
    """Read through an empty chunk pool of ``budget`` bytes, then put
    the process's pool back."""
    kept = columnar._POOL
    columnar._POOL = columnar._ChunkPool(budget)
    try:
        yield
    finally:
        columnar._POOL = kept


def run_machine_matrix(store: RelationStore, rows: np.ndarray) -> list[dict]:
    """The machine over the stored relation, both engines, checked
    against a straight numpy filter of the raw rows."""
    entries = []
    plan = Select(Base("SP"), column="s", op="==", value=123)
    expected = sorted(
        tuple(map(int, row)) for row in rows[rows[:, 0] == 123]
    )
    answers = {}
    for backend in ("lattice", "bitplane"):
        machine = SystolicDatabaseMachine(backend=backend)
        machine.attach_store(store)
        with Probed() as probed:
            seconds, (result, report) = _time(lambda: machine.run(plan))
        assert sorted(result.tuples) == expected, (
            f"{backend}: store-backed select disagrees with numpy filter"
        )
        answers[backend] = sorted(result.tuples)
        (scan,) = [
            op.scan for op in machine.compile(plan).ops
            if op.scan is not None
        ]
        entries.append({
            "experiment": "E22",
            "operation": "machine select s=123",
            "backend": backend,
            "rows": len(rows),
            "chunks_total": scan.chunks_total,
            "chunks_read": scan.chunks_read,
            "chunks_pruned": scan.chunks_pruned,
            "result_tuples": len(result),
            "host_seconds": round(seconds, 6),
            "simulated_makespan_ms": round(report.makespan * 1e3, 3),
            "probe_seconds": probed.seconds,
        })
    assert answers["lattice"] == answers["bitplane"]
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_storage.json"
        ),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--rows", type=int, default=N_ROWS,
        help="workload size (default: one million tuples)",
    )
    args = parser.parse_args(argv)
    # Scaled-down runs (--rows) keep the default's 16-chunk layout, so
    # the pruning asserts stay meaningful at any size.
    chunk_rows = (
        DEFAULT_CHUNK_ROWS
        if args.rows >= N_ROWS
        else min(DEFAULT_CHUNK_ROWS, max(1, -(-args.rows // 16)))
    )
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        with Probed() as probed:
            write_seconds, (store, rows) = _time(
                lambda: build_store(tmp, n=args.rows, chunk_rows=chunk_rows)
            )
        handle = store.open("SP")
        scans = run_scan_matrix(store, rows)
        machine = run_machine_matrix(store, rows)
    report = {
        "description": "E22 out-of-core columnar store: zone-pruned "
                       "scans over Morton-clustered chunks on a scaled "
                       "suppliers-parts workload (see docs/STORAGE.md)",
        "rows": args.rows,
        "chunk_rows": handle.chunk_rows,
        "chunks": handle.n_chunks,
        "write_seconds": round(write_seconds, 3),
        "probe_seconds": probed.seconds,
        "entries": scans + machine,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for e in report["entries"]:
        backend = f" [{e['backend']}]" if "backend" in e else ""
        sim = e.get("simulated_ms", e.get("simulated_makespan_ms"))
        print(
            f"{e['experiment']} {e['operation']:<24}{backend:<12} "
            f"chunks {e['chunks_read']:>3}/{e['chunks_total']:<3} "
            f"host {e['host_seconds']:>9.4f}s  sim {sim:>10.3f}ms"
        )
    print(f"wrote {args.out}")
    return 0


# -- tier-visible smoke (pytest benchmarks/ --benchmark-only) ------------------


def test_pruned_scan_matches_full_scan(benchmark, experiment_report, tmp_path):
    """E22 at smoke scale: pruning reads less and changes nothing."""
    store, rows = build_store(tmp_path, n=20_000, chunk_rows=1024)
    handle = store.open("SP")
    scan = benchmark(lambda: handle.read(("s", "==", 123)))
    assert scan.chunks_read < scan.chunks_total
    assert scan.chunks_pruned > 0
    assert len(scan.relation) == _brute(rows, 0, "==", 123)
    experiment_report("E22 zone-pruned scans (smoke, n=20k)", [
        ("answers identical", "yes", "yes"),
        ("chunks read", f"< {scan.chunks_total}",
         f"{scan.chunks_read}/{scan.chunks_total}"),
        ("rows scanned", f"< {handle.rows}", f"{scan.rows_scanned}"),
    ])


def test_machine_agrees_across_backends(benchmark, experiment_report, tmp_path):
    """E22: store-backed machine select, lattice == bitplane == numpy."""
    store, rows = build_store(tmp_path, n=5_000, chunk_rows=512)
    plan = Select(Base("SP"), column="s", op="==", value=123)
    expected = sorted(tuple(map(int, r)) for r in rows[rows[:, 0] == 123])
    results = {}
    for backend in ("lattice", "bitplane"):
        machine = SystolicDatabaseMachine(backend=backend)
        machine.attach_store(store)
        result, _ = machine.run(plan)
        results[backend] = sorted(result.tuples)
    benchmark(lambda: SystolicDatabaseMachine(backend="lattice"))
    assert results["lattice"] == results["bitplane"] == expected
    experiment_report("E22 store-backed select across engines (n=5k)", [
        ("lattice == bitplane", "yes", "yes"),
        ("matches numpy filter", "yes", "yes"),
        ("result tuples", "-", str(len(expected))),
    ])


if __name__ == "__main__":
    raise SystemExit(main())
