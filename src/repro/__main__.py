"""Command-line interface: run algebra queries over CSV relations.

Examples::

    python -m repro query "join(EMP, DEPT, dept == dept)" \\
        --relation EMP=employees.csv --relation DEPT=departments.csv

    python -m repro query "intersect(A, B)" -r A=a.csv -r B=b.csv \\
        --engine software --out result.csv

    python -m repro machine "project(join(E, D, dept == dept), name)" \\
        -r E=employees.csv -r D=departments.csv

    python -m repro query "divide(project(join(A, B, k == k), x, y), D)" \\
        -r A=a.csv -r B=b.csv -r D=d.csv --machine --explain

``query`` evaluates on the pulse-level systolic arrays (default) or the
software reference engine; ``machine`` (or ``query --machine``) runs
the plan on the Fig 9-1 integrated database machine and prints the
scheduled timeline.  ``--explain`` additionally shows the compiled
physical plan: per-operator device assignments, §8 block counts, fused
pipeline chains, and the predicted vs simulated makespan.

Observability (docs/OBSERVABILITY.md): ``--profile`` prints per-stage
host wall-clock, ``--trace FILE`` writes a Chrome trace-event file of
the whole run, ``--metrics`` prints the metrics registry, and
``trace summarize FILE`` tabulates a previously written trace.

Columns with the same name across files share a domain, so they are
join/union-compatible automatically.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import obs
from repro.errors import ReproError
from repro.lang import execute_plan, optimize, parse
from repro.obs import metrics
from repro.relational.csv_io import DomainRegistry, dump_csv, load_csv
from repro.relational.relation import Relation


class _Observation:
    """Per-invocation observability: ``--profile``, ``--trace``,
    ``--metrics`` — of one query, or of a server's whole run.

    All three are views over the same :mod:`repro.obs` spans and
    metrics registry.  ``--profile`` and ``--trace`` activate a tracer
    for the duration of the command (every layer's spans land in it;
    the CLI adds one ``cli.<stage>`` span per pipeline stage);
    ``--metrics`` enables the registry.  On success the requested
    reports are printed/written; previous tracer/registry state is
    restored either way, so in-process callers (tests, notebooks) are
    unaffected.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.profile = getattr(args, "profile", False)
        self.trace_path = getattr(args, "trace", None)
        self.show_metrics = getattr(args, "metrics", False)
        self.tracer: obs.Tracer | None = None
        self._previous: obs.Tracer | obs.NullTracer | None = None
        self._owns_metrics = False
        self._stage_spans: list = []

    def __enter__(self) -> "_Observation":
        if self.profile or self.trace_path:
            self._previous = obs.get_tracer()
            self.tracer = obs.Tracer()
            obs.start(self.tracer)
        if self.show_metrics and not metrics.enabled:
            metrics.reset()
            metrics.enable()
            self._owns_metrics = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.report()
        finally:
            if self.tracer is not None:
                obs.stop()
                if self._previous is not None and self._previous.enabled:
                    obs.start(self._previous)
            if self._owns_metrics:
                metrics.disable()

    @contextlib.contextmanager
    def stage(self, name: str):
        """One CLI pipeline stage, recorded as a ``cli.<name>`` span."""
        with obs.span(f"cli.{name}") as sp:
            yield
        if self.tracer is not None:
            self._stage_spans.append(sp)

    def report(self) -> None:
        if self.trace_path and self.tracer is not None:
            registry = metrics if metrics.enabled else None
            events = obs.write_chrome_trace(
                self.tracer, self.trace_path, metrics=registry
            )
            print(f"trace: {events} events written to {self.trace_path}")
        if self.show_metrics:
            print()
            print(metrics.render())
        if self.profile:
            self._print_profile()

    def _print_profile(self) -> None:
        """The ``--profile`` table: host wall-clock per ``cli.*`` span."""
        stages = [
            (sp.name[len("cli."):], sp.seconds) for sp in self._stage_spans
        ]
        if not stages:
            return
        total = sum(seconds for _, seconds in stages)
        width = max(len(name) for name, _ in stages)
        print()
        print("profile (host wall-clock):")
        for name, seconds in stages:
            share = (seconds / total * 100.0) if total > 0 else 0.0
            print(f"  {name:<{width}}  {seconds * 1e3:>9.3f} ms  {share:5.1f}%")
        print(f"  {'total':<{width}}  {total * 1e3:>9.3f} ms")


def _store_dir(args: argparse.Namespace) -> str | None:
    """``--store-dir``, defaulting to $REPRO_STORE_DIR when set."""
    import os

    from repro.store import STORE_DIR_ENV

    return getattr(args, "store_dir", None) or os.environ.get(STORE_DIR_ENV)


def _fault_plan(args: argparse.Namespace):
    """The ``--faults`` plan, or None when chaos is off."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults import parse_faults

    return parse_faults(spec, seed=getattr(args, "fault_seed", 0))


def _load_relations(specs: list[str]) -> dict[str, Relation]:
    registry: DomainRegistry = {}
    catalog: dict[str, Relation] = {}
    for spec in specs:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ReproError(
                f"--relation expects NAME=path.csv, got {spec!r}"
            )
        catalog[name] = load_csv(path, registry=registry)
    return catalog


def _emit(relation: Relation, out: str | None) -> None:
    if out:
        dump_csv(relation, out)
        print(f"{len(relation)} tuples written to {out}")
    else:
        print(relation.pretty(max_rows=50))
        print(f"({len(relation)} tuples)")


def _cmd_query(args: argparse.Namespace) -> int:
    if (
        args.machine
        or getattr(args, "shards", 1) > 1
        or getattr(args, "faults", None)
        or _store_dir(args)
    ):
        # sharding, fault injection, and persistent storage are
        # properties of the simulated machine, so --shards/--faults/
        # --store-dir imply the machine path
        return _run_on_machine(args)
    with _Observation(args) as observed:
        with observed.stage("load"):
            catalog = _load_relations(args.relation)
        with observed.stage("parse"):
            plan = parse(args.expression)
        if args.optimize:
            with observed.stage("optimize"):
                plan = optimize(
                    plan, schemas={n: r.schema for n, r in catalog.items()}
                )
        with observed.stage("execute"):
            result = execute_plan(
                plan, catalog,
                engine=args.engine, backend=args.backend, optimize=False,
            )
        with observed.stage("materialize"):
            _emit(result, args.out)
    return 0


def _machine_target(args: argparse.Namespace, faults):
    """What ``machine`` / ``query --machine`` runs on: the Fig 9-1
    machine, or with ``--shards N`` a session over a cluster of them.
    Both answer ``store`` / ``compile`` / ``run_many``."""
    if args.shards > 1:
        from repro.machine.pool import EnginePool

        return EnginePool(backend=args.backend, faults=faults).session(
            "cli", shards=args.shards, shard_strategy=args.shard_strategy
        )
    from repro.machine import MachineDisk, SystolicDatabaseMachine

    machine = SystolicDatabaseMachine(
        disk=MachineDisk(
            logic_per_track=getattr(args, "logic_per_track", False)
        ),
        backend=args.backend,
        faults=faults,
    )
    store_dir = _store_dir(args)
    if store_dir:
        from repro.store import RelationStore

        machine.attach_store(RelationStore(store_dir))
    return machine


def _run_on_machine(args: argparse.Namespace) -> int:
    """Shared body of ``machine`` and ``query --machine``."""
    sharded = args.shards > 1
    if sharded and getattr(args, "logic_per_track", False):
        print("--logic-per-track is a single-disk feature; it cannot be "
              "combined with --shards")
        return 2
    if sharded and _store_dir(args):
        print("--store-dir (or $REPRO_STORE_DIR) is a single-machine "
              "feature; it cannot be combined with --shards")
        return 2
    faults = _fault_plan(args)
    pipeline = not getattr(args, "store_and_forward", False)
    with _Observation(args) as observed:
        with observed.stage("load"):
            catalog = _load_relations(args.relation)
            target = _machine_target(args, faults)
            for name, relation in catalog.items():
                target.store(name, relation)
        with observed.stage("parse"):
            plan = parse(args.expression)
        if args.optimize:
            with observed.stage("optimize"):
                plan = optimize(
                    plan, schemas={n: r.schema for n, r in catalog.items()}
                )
        if args.explain or not sharded:
            with observed.stage("compile"):
                compiled = target.compile(plan, pipeline=pipeline)
        if args.explain:
            print(compiled.explain())
            print()
        with observed.stage("execute"):
            if sharded or faults is not None:
                # run_many owns the exchanges and the quarantine-and-
                # replan loop; the plan compiled above feeds --explain.
                (result,), report = target.run_many(
                    [plan], pipeline=pipeline
                )
            else:
                (result,), report = target.run_physical(compiled)
        with observed.stage("materialize"):
            _emit(result, args.out)
        print()
        print(report.timeline())
        if faults is not None:
            print(faults.summary())
        if args.explain:
            cluster = (
                f" ({args.shards} shards, "
                f"{report.exchange_seconds * 1e3:.3f} ms on the interconnect)"
                if sharded else ""
            )
            print(
                f"predicted makespan "
                f"{compiled.predicted_makespan * 1e3:.3f} ms, simulated "
                f"{report.makespan * 1e3:.3f} ms{cluster}"
            )
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    print(obs.summarize_file(args.file, top=args.top))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    """Check every chunk of a store; non-zero naming each bad one."""
    import os

    from repro.store import RelationStore

    store_dir = _store_dir(args)
    if not store_dir or not os.path.isdir(store_dir):
        print(f"error: no store directory {store_dir!r} (pass --store-dir "
              f"DIR)", file=sys.stderr)
        return 2
    store = RelationStore(store_dir)
    chunks, problems = store.verify()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{store_dir}: {len(store.names())} relations, {chunks} chunks, "
          f"{len(problems) or 'no'} failures")
    return 1 if problems else 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.selftest import run_selftest

    report = run_selftest(seed=args.seed, size=args.size, backend=args.backend)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.shell import SystolicShell

    SystolicShell().cmdloop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the multi-tenant engine pool over TCP until interrupted."""
    import asyncio
    import signal

    from repro.machine.pool import EnginePool
    from repro.serve.server import ReproServer

    faults = _fault_plan(args)

    async def serve() -> None:
        pool = EnginePool(
            backend=args.backend,
            max_concurrent=args.max_concurrent,
            admission_timeout=args.admission_timeout,
            faults=faults,
            query_deadline=args.query_deadline,
        )
        server = ReproServer(
            pool, host=args.host, port=args.port,
            shards=args.shards, shard_strategy=args.shard_strategy,
            store_dir=_store_dir(args),
        )
        host, port = await server.start()
        print(f"serving on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            await server.stop()
            if faults is not None:
                print(faults.summary(), flush=True)
            print("server stopped", flush=True)

    with _Observation(args):
        asyncio.run(serve())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systolic-array relational queries over CSV files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("expression", help="relational-algebra expression")
        p.add_argument(
            "--relation", "-r", action="append", default=[],
            metavar="NAME=FILE", help="bind a relation name to a CSV file",
        )
        p.add_argument("--out", "-o", help="write the result to a CSV file")
        p.add_argument(
            "--optimize", action="store_true", default=True,
            help="apply algebraic rewrites (selection pushdown incl. "
                 "joins, dedup elimination, subplan sharing) before "
                 "execution (the default)",
        )
        p.add_argument(
            "--no-optimize", dest="optimize", action="store_false",
            help="execute the plan exactly as written",
        )

    def backend_option(p: argparse.ArgumentParser) -> None:
        from repro.systolic.engine import DEFAULT_BACKEND, ENGINES

        p.add_argument(
            "--backend", choices=sorted(ENGINES), default=None,
            help="array execution backend: "
                 f"{', '.join(sorted(ENGINES))} — results and pulse "
                 "counts are identical (default: $REPRO_BACKEND or "
                 f"{DEFAULT_BACKEND})",
        )

    def explain_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--explain", action="store_true",
            help="print the compiled physical plan (device assignments, "
                 "block counts, fused chains) and the predicted vs "
                 "simulated makespan",
        )

    def profile_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile", action="store_true",
            help="print per-stage host wall-clock times (load, parse, "
                 "optimize, compile, execute, materialize)",
        )

    def shard_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--shards", type=int, default=1, metavar="N",
            help="partition relations across N simulated machines and "
                 "run the plan shard-local with costed exchanges "
                 "(default 1: the single Fig 9-1 machine)",
        )
        p.add_argument(
            "--shard-strategy", choices=("hash", "range"), default="hash",
            help="how relations split across shards: multiplicative "
                 "hashing of the key (default) or equi-depth key ranges",
        )

    def fault_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--faults", metavar="SPEC", default=None,
            help="inject deterministic faults and recover from them: "
                 "comma-separated rules like "
                 "'device:join0:2,disk:R,shard:1,exchange:*,"
                 "device:join1:kill' (grammar in docs/ROBUSTNESS.md); "
                 "recovered results are bit-identical to a fault-free run",
        )
        p.add_argument(
            "--fault-seed", type=int, default=0, metavar="N",
            help="seed for the fault plan's deterministic coin flips "
                 "(probability rules; default 0)",
        )

    def store_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store-dir", metavar="DIR", default=None,
            help="attach a persistent columnar relation store rooted at "
                 "DIR (docs/STORAGE.md): stored relations are queryable "
                 "by name, selections prune chunks through the grid "
                 "index during the disk read (default: $REPRO_STORE_DIR)",
        )

    def obs_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="FILE",
            help="record spans for the whole run (compile, physical "
                 "ops, device executions, engine runs; for serve, every "
                 "request until the server stops) and write a Chrome "
                 "trace-event file — open it in chrome://tracing or "
                 "https://ui.perfetto.dev",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="collect the repro.obs metrics registry during the "
                 "run and print it afterwards (and keep it in the "
                 "--trace file)",
        )

    query = sub.add_parser("query", help="evaluate on an execution engine")
    common(query)
    query.add_argument(
        "--engine", choices=("systolic", "software"), default="systolic",
        help="pulse-level arrays (default) or the software reference",
    )
    query.add_argument(
        "--machine", action="store_true",
        help="run on the Fig 9-1 integrated database machine instead "
             "(timed physical plan; implies a machine-resident catalog)",
    )
    explain_option(query)
    profile_option(query)
    obs_options(query)
    backend_option(query)
    shard_options(query)
    fault_options(query)
    store_option(query)
    query.set_defaults(handler=_cmd_query)

    machine = sub.add_parser(
        "machine", help="run on the Fig 9-1 integrated database machine"
    )
    common(machine)
    machine.add_argument(
        "--logic-per-track", action="store_true",
        help="give the disk §9's logic-per-track selection capability",
    )
    machine.add_argument(
        "--store-and-forward", action="store_true",
        help="disable §9 chain pipelining: every operation runs to "
             "completion before its consumer starts",
    )
    explain_option(machine)
    profile_option(machine)
    obs_options(machine)
    backend_option(machine)
    shard_options(machine)
    fault_options(machine)
    store_option(machine)
    machine.set_defaults(handler=_run_on_machine)

    selftest = sub.add_parser(
        "selftest",
        help="verify every array against the reference algebra",
    )
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument(
        "--size", type=int, default=8,
        help="relation cardinality used by the sweep (default 8)",
    )
    backend_option(selftest)
    selftest.set_defaults(handler=_cmd_selftest)

    shell = sub.add_parser(
        "shell", help="interactive session with the database machine"
    )
    shell.set_defaults(handler=_cmd_shell)

    serve = sub.add_parser(
        "serve",
        help="serve concurrent multi-tenant queries over TCP "
             "(newline-delimited JSON protocol, docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=4, metavar="N",
        help="queries executing simultaneously; excess queries queue "
             "at the admission gate (default 4)",
    )
    serve.add_argument(
        "--admission-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long a query may wait for a pool slot before being "
             "refused with an admission error (default 30)",
    )
    serve.add_argument(
        "--query-deadline", type=float, default=None, metavar="SECONDS",
        help="cancel any query still running after SECONDS with a "
             "deadline error and free its pool slot (default: "
             "$REPRO_QUERY_DEADLINE, else unlimited)",
    )
    obs_options(serve)
    backend_option(serve)
    shard_options(serve)
    fault_options(serve)
    store_option(serve)
    serve.set_defaults(handler=_cmd_serve)

    store = sub.add_parser("store", help="inspect a relation store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    verify = store_sub.add_parser(
        "verify",
        help="read every chunk of every stored relation, checking its "
             "size and, where the manifest records one, its CRC32; exit "
             "non-zero naming each torn or corrupt chunk",
    )
    store_option(verify)
    verify.set_defaults(handler=_cmd_store_verify)

    trace = sub.add_parser(
        "trace", help="inspect trace files written by --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-span count/total/share table (and the metrics, if "
             "kept) of a trace file written by --trace",
    )
    summarize.add_argument("file", help="path to the trace file")
    summarize.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most expensive span names",
    )
    summarize.set_defaults(handler=_cmd_trace_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
