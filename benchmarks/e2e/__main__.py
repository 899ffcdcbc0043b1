"""Command line of the end-to-end benchmark.

``run --workload W --seed N --seconds S --trace T`` measures one pass
of one workload in this process and prints one JSON object as its last
line (the form ``BENCHMARK.json``'s command is run in).  ``run``
without ``--workload`` runs every workload, each pass in a fresh
interpreter, and can write the combined results with ``--out``;
``compare A.json B.json`` applies the declared bounds to two of those.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import spec as specs

SRC = specs.ROOT / "src"
#: each run writes into a directory of its own with this prefix, removed on
#: exit.  In the checkout root, not the system temp directory: the driver
#: that runs BENCHMARK.json's command lets the benchmark read and write only
#: inside its checkout.  No directory is shared between concurrent runs.
SCRATCH_PREFIX = ".bench_e2e_tmp-"
#: ``setup_s`` is the median of at least this many set-ups (one reading of a
#: second of process start and file creation is not steady on its own) ...
SETUP_REPEATS = 5
#: ... and of as many more as fit in this many seconds: two workloads set up
#: in milliseconds, and the median of five such readings moves with every
#: scheduling hiccup.
SETUP_SECONDS = 2.0
#: timed passes per workload when running them all; ``compare`` takes the
#: spread between them, so two runs always have the same number.
TIMED_PASSES = 3
#: a traced pass runs ``seconds // 4`` whole rounds — a fixed number, so
#: the counts it reports repeat exactly for a given seed.
TRACE_SECONDS_PER_ROUND = 4
QUICK_SECONDS = 1


def _scratch(name: str):
    """A fresh directory in the checkout, gone when the ``with`` block ends."""
    return tempfile.TemporaryDirectory(
        prefix=f"{SCRATCH_PREFIX}{name}-", dir=specs.ROOT
    )


def _prepare_imports() -> None:
    """Make ``repro`` importable and ignore the caller's REPRO_* knobs."""
    if not (SRC / "repro").is_dir():
        raise specs.SpecError(
            f"{SRC} does not hold the repro package; run from a checkout"
        )
    sys.path.insert(0, str(SRC))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]


# -- one pass of one workload -------------------------------------------------


def _setup_probe() -> float:
    """The middle of three probes: a set-up has only the one before it and
    the one after, so neither may be a probe that caught a hiccup."""
    from benchmarks.e2e import harness

    return statistics.median(harness.probe() for _ in range(3))


def _timed_pass(cls, seed: int, seconds: float, scratch: Path) -> dict:
    from benchmarks.e2e import harness

    setup_seconds, problems = [], []
    workload = None
    try:
        began = time.perf_counter()
        while (len(setup_seconds) < SETUP_REPEATS
               or time.perf_counter() - began < SETUP_SECONDS):
            if workload is not None:
                problems += workload.teardown()
            workload = cls(
                seed, scratch / f"setup-{len(setup_seconds)}", traced=False
            )
            # On the probed clock, like the latencies.
            before = _setup_probe()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            setup_seconds.append(
                harness.rescaled(elapsed, (before + _setup_probe()) / 2)
            )
        ops = workload.ops()
        mismatches, _ = harness.warm_up(ops)
        problems += mismatches
        timed = harness.run_pass(ops, seed, seconds=seconds)
    finally:
        if workload is not None:
            problems += workload.teardown()
    slowdown = timed.host_slowdown()
    return {
        "describe": workload.describe(),
        "problems": problems + [s.error for s in timed.samples if s.error],
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": harness.end_to_end(timed, setup_seconds, ops),
        "samples": len(timed.latencies_ms()),
        "kinds": {
            kind: {
                "ops": len(timed.latencies_ms(kind)),
                "p50_ms": harness.percentile(timed.latencies_ms(kind), 0.5),
            }
            for kind in sorted({s.kind for s in timed.samples if s.ok})
        },
        "host_slowdown": slowdown,
        "noisy": slowdown > harness.NOISY_SLOWDOWN,
    }


def _traced_pass(
    cls, seed: int, seconds: float, scratch: Path, spans_path: Path | None
) -> dict:
    from benchmarks.e2e import harness, layers, trace

    rounds = max(1, int(seconds) // TRACE_SECONDS_PER_ROUND)
    workload = cls(seed, scratch / "setup", traced=True)
    problems = []
    try:
        workload.setup()
        ops = workload.ops()
        problems, oracle_seconds = harness.warm_up(ops)
        calibrations = [harness.calibrate()]
        untraced = harness.run_pass(ops, seed, rounds=rounds)
        calibrations.append(harness.calibrate())
        tracer = trace.Tracer()
        uninstall = trace.install_shims(tracer)
        try:
            traced = harness.run_pass(ops, seed, rounds=rounds, tracer=tracer)
        finally:
            uninstall()
        calibrations.append(harness.calibrate())
    finally:
        problems += workload.teardown()
    if spans_path is not None:
        trace.write_jsonl(tracer.spans, spans_path)
    passes = (untraced, traced)
    analysed = layers.Trace(tracer.spans, rounds)
    return {
        "describe": workload.describe(),
        "problems": problems + [
            s.error for p in passes for s in p.samples if s.error
        ],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": layers.per_layer(
            analysed, untraced, traced, workload, oracle_seconds, calibrations
        ),
        "layers": layers.layer_table(analysed),
        "rounds": rounds,
        "spans": str(spans_path) if spans_path is not None else None,
    }


def _print_layers(table: dict) -> None:
    print(f"layer table over {table['ops']} traced ops (self time; seconds "
          f"two spans shared are split)")
    print(f"  {'span':<24}{'layer':<18}{'self ms/op':>12}{'share':>8}")
    for row in table["rows"]:
        print(
            f"  {row['span']:<24}{row['layer']:<18}"
            f"{row['self_ms_per_op']:>12.3f}{row['share']:>8.3f}"
        )
    print(f"  {'sum of shares (coverage)':<42}{'':>12}"
          f"{table['coverage']:>8.3f}")
    for kind, names in table["by_kind"].items():
        top = ", ".join(
            f"{name} {share:.2f}" for name, share in list(names.items())[:4]
        )
        print(f"  {kind:<26}{top}")


def _run_one(args, spec: dict) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    units = {
        e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]
    }
    out = Path(args.out).resolve() if args.out else None
    with _scratch(args.workload) as scratch_dir:
        scratch = Path(scratch_dir)
        if args.trace:
            spans = out.with_suffix(".spans.jsonl") if out else None
            detail = _traced_pass(
                WORKLOADS[args.workload], args.seed, args.seconds, scratch,
                spans,
            )
        else:
            detail = _timed_pass(
                WORKLOADS[args.workload], args.seed, args.seconds, scratch
            )

    # A server that hung or a result the oracle rejects voids the pass.
    voided = [p for p in detail["problems"] if p]
    if voided and not detail["failed"]:
        detail["failed"] = detail["attempted"]
    detail["correct"] = not voided
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace,
        fail_ratio=detail["failed"] / max(1, detail["attempted"]),
    )

    print(f"{args.workload}: {detail['describe']}")
    for problem in voided[:10]:
        print(f"  PROBLEM {problem}")
    for name, value in detail["metrics"].items():
        print(f"  {name:<38}{value:>16.4f} {units[name]}")
    if args.trace:
        _print_layers(detail["layers"])
    else:
        for kind, cell in detail["kinds"].items():
            print(f"    {kind:<26}{cell['ops']:>6} ops   "
                  f"p50 {cell['p50_ms']:>10.3f} ms")
        print(
            f"  {detail['samples']} samples; per-kind p50 is the raw host "
            f"clock, which ran {detail['host_slowdown']:.3f}x slower than "
            f"the probe's reference{' (NOISY)' if detail['noisy'] else ''}"
        )
    if out is not None:
        out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in detail["metrics"].items()
        },
    }))
    return 0


# -- every workload, each pass in a fresh interpreter ---------------------------


def _child(workload: str, seed: int, seconds: int, traced: int, out: Path):
    command = [
        sys.executable, "-m", "benchmarks.e2e", "run",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(traced), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=specs.ROOT, text=True,
                          stdout=subprocess.PIPE)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # not the JSON
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def _spread(values: list[float]) -> float:
    """Quartile distance over the median; range over median below 4."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def _run_all(args, spec: dict) -> int:
    out = Path(args.out).resolve() if args.out else None
    passes = 1 if args.quick else TIMED_PASSES
    report = {"seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "workloads": {}}
    with _scratch("run") as work_dir:
        work = Path(work_dir)
        for entry in spec["workloads"]:
            name = entry["name"]
            timed = [
                _child(name, args.seed, args.seconds, 0,
                       work / f"{name}-{i}.json")
                for i in range(passes)
            ]
            traced = _child(name, args.seed, args.seconds, 1,
                            work / f"{name}-traced.json")
            if out is not None and traced["spans"]:
                kept = out.with_name(f"{out.stem}.{name}.spans.jsonl")
                shutil.move(traced["spans"], kept)
                traced["spans"] = str(kept)
            every = timed + [traced]
            attempted = sum(d["attempted"] for d in every)
            failed = sum(d["failed"] for d in every)
            report["workloads"][name] = {
                "correct": all(d["correct"] for d in every),
                "noisy": any(d["noisy"] for d in timed),
                "host_slowdown": statistics.median(
                    d["host_slowdown"] for d in timed
                ),
                "attempted": attempted,
                "failed": failed,
                "fail_ratio": failed / attempted,
                "end_to_end": {
                    metric: {
                        "value": statistics.median(values),
                        "spread": _spread(values),
                        "passes": values,
                    }
                    for metric in timed[0]["metrics"]
                    for values in [[d["metrics"][metric] for d in timed]]
                },
                "per_layer": traced["metrics"],
                "layers": traced["layers"],
                "spans": traced["spans"],
            }
    print()
    for name, result in report["workloads"].items():
        flags = (" NOISY" if result["noisy"] else "") + (
            "" if result["correct"] else " INCORRECT"
        )
        print(f"{name}: fail_ratio {result['fail_ratio']:.4f}{flags}")
        for metric, cell in result["end_to_end"].items():
            print(f"  {metric:<20}{cell['value']:>14.4f}"
                  f"   spread {cell['spread']:.3f} over {passes} passes")
    if out is not None:
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


# -- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure one workload, or all of them")
    run.add_argument("--workload", help="one workload, one pass, this process")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=None,
                     help="how long a pass measures (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced pass and per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="smoke run: one timed pass of one round, numbers "
                          "not comparable")
    run.add_argument("--out", help="write the detailed results as JSON")
    run.add_argument("--list", action="store_true",
                     help="print every workload and metric and exit")
    compare = sub.add_parser("compare", help="apply the bounds to two runs")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)

    try:
        spec = specs.load()
        if args.command == "compare":
            from benchmarks.e2e.compare import compare_files

            return compare_files(spec, args.a, args.b)
        if args.list:
            print(specs.render_list(spec))
            return 0
        _prepare_imports()
        from benchmarks.e2e.harness import END_TO_END
        from benchmarks.e2e.layers import PER_LAYER
        from benchmarks.e2e.workloads import WORKLOADS

        specs.check(spec, WORKLOADS, END_TO_END, PER_LAYER)
    except specs.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        args.seconds = QUICK_SECONDS
    elif args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return _run_all(args, spec)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return _run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
