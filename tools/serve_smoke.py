#!/usr/bin/env python3
"""CI smoke test for ``repro serve``.

Starts the server as a subprocess with ``--trace --metrics``, drives
two concurrent tenants through the E6 equi-join over the wire, shuts
the server down cleanly (SIGINT), and then asserts that

* both clients got the same, correct number of rows;
* repeating the query 50× per tenant, with a ``store`` to a relation it
  does not read in between, is answered from the caches: by the
  ``stats`` verb, plan-cache misses do not grow and statement-cache
  hits do;
* a selection of several hundred rows from a stored relation (a reply
  past the rows writer's crossover, sent by the client's writer too)
  and a query over a string-domain column (the value-by-value path)
  each answer what ``repro.lang.query(..., engine="software")`` answers
  over the same relations decoded the way the server decodes them;
* the server exited 0 after printing its clean-shutdown line, with a
  client still connected and idle when it was interrupted;
* the JSONL trace it wrote contains nonzero ``service.*`` metrics
  (admissions and per-tenant query counters actually moved).

Usage: PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import lang  # noqa: E402
from repro.relational import Domain, IntegerDomain, Relation, Schema  # noqa: E402
from repro.serve import ServiceClient  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    ROWS_WRITER_MIN_ELEMENTS,
    relation_from_wire,
    relation_to_wire,
)
from repro.workloads import join_pair, random_relation  # noqa: E402

QUERY = "project(join(R, S, #0 == #0), #0, #1)"
HOT_REPEATS = 50
#: A selection of several hundred rows, and one over a string domain.
WIDE_QUERY = "select(BIG, c1 < 400)"
NAMED_QUERY = "select(NAMES, id < 40)"


def check_replies(host: str, port: int) -> None:
    """Both queries over the wire equal the software engine's answer."""
    relations = {
        "BIG": random_relation(1200, 3, seed=33),
        "NAMES": Relation.from_values(
            Schema.of(("id", IntegerDomain("id")), ("name", Domain("name"))),
            [(i, f"name-{i % 17}") for i in range(60)],
        ),
    }
    # The server resolves a wire column's domain by name in the tenant's
    # registry, so its codes (which a range selection compares) are the
    # ones a registry of our own assigns to the same stores.
    registry: dict = {}
    replica = {
        name: relation_from_wire(relation_to_wire(relation), registry)
        for name, relation in relations.items()
    }
    with ServiceClient(host, port, tenant="wire") as db:
        for name, relation in relations.items():
            db.store(name, relation)
        for expr in (WIDE_QUERY, NAMED_QUERY):
            reply = db.query(expr)
            rows = sorted(map(tuple, reply["relation"]["rows"]))
            expected = lang.query(expr, replica, engine="software")
            if rows != sorted(expected.decoded()) or reply["rows"] != len(
                expected
            ):
                raise SystemExit(
                    f"{expr}: {reply['rows']} rows over the wire differ "
                    f"from the software engine's {len(expected)}"
                )
            print(f"{expr}: {len(rows)} rows, equal to the software engine")
            if expr == WIDE_QUERY and (
                len(rows) * len(expected.schema) < ROWS_WRITER_MIN_ELEMENTS
            ):
                raise SystemExit(
                    f"{expr}: {len(rows)} rows stay below the rows "
                    f"writer's crossover ({ROWS_WRITER_MIN_ELEMENTS} elements)"
                )


def main() -> int:
    trace_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-serve-smoke-"), "serve_trace.jsonl"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--max-concurrent", "2",
            "--trace", trace_path, "--metrics",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=REPO,
    )
    lingering = None
    try:
        line = proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise SystemExit(f"unexpected server banner: {line!r}")
        host, port_text = line.removeprefix("serving on ").rsplit(":", 1)
        port = int(port_text)
        print(f"server up at {host}:{port}")

        ja, jb = join_pair(40, 30, 8, seed=31)
        rows: dict[str, int] = {}
        errors: list[BaseException] = []

        def tenant_run(tag: str) -> None:
            try:
                with ServiceClient(host, port, tenant=tag) as db:
                    db.store("R", ja)
                    db.store("S", jb)
                    reply = db.query(QUERY)
                    rows[tag] = reply["rows"]
            except BaseException as exc:  # report, don't hang the join
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant_run, args=(f"tenant{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        if errors:
            raise SystemExit(f"client errors: {errors}")
        if len(rows) != 2 or len(set(rows.values())) != 1:
            raise SystemExit(f"tenants disagree: {rows}")
        if next(iter(rows.values())) == 0:
            raise SystemExit("E6 equi-join over the wire returned no rows")
        print(f"both tenants answered: {rows}")

        # The hot path: same text, same relations, unrelated writes.
        extra, _ = join_pair(12, 8, 4, seed=32)
        with ServiceClient(host, port, tenant="tenant0") as db:
            before = db.stats()
            for tag in rows:
                db.hello(tag)
                for i in range(HOT_REPEATS):
                    db.store("UNRELATED", extra if i % 2 else ja)
                    if db.query(QUERY)["rows"] != rows[tag]:
                        raise SystemExit(f"{tag}: hot query changed its answer")
            after = db.stats()
        repeats = HOT_REPEATS * len(rows)
        misses = (
            after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
        )
        hits = (
            after["statement_cache"]["hits"]
            - before["statement_cache"]["hits"]
        )
        if misses != 0:
            raise SystemExit(
                f"{misses} plan-cache misses in {repeats} repeats of a "
                f"query whose relations did not change"
            )
        if hits != repeats:
            raise SystemExit(
                f"statement cache hit {hits} times in {repeats} repeats"
            )
        print(f"{repeats} hot queries: 0 plan-cache misses, "
              f"{hits} statement-cache hits")

        check_replies(host, port)

        # An idle connection must not hold the shutdown up.
        lingering = ServiceClient(host, port, tenant="tenant0", retries=0)
        lingering.connect()
        print("one client left connected across the SIGINT")
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            output, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("server did not shut down on SIGINT")
        finally:
            if lingering is not None:
                lingering.close()

    if proc.returncode != 0:
        raise SystemExit(
            f"server exited {proc.returncode}; output:\n{output}"
        )
    if "server stopped" not in output:
        raise SystemExit(f"no clean-shutdown line; output:\n{output}")
    print("server shut down cleanly")

    deadline = time.monotonic() + 10.0
    while not os.path.exists(trace_path) and time.monotonic() < deadline:
        time.sleep(0.1)
    service_metrics: dict[str, float] = {}
    with open(trace_path) as stream:
        for raw in stream:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            name = obj.get("metric", "")
            if name.startswith("service."):
                service_metrics[name] = obj.get(
                    "value", obj.get("count", 0)
                )
    print(f"service metrics in trace: {service_metrics}")
    if not service_metrics:
        raise SystemExit("trace holds no service.* metrics")
    for required in ("service.queries", "service.admissions"):
        if service_metrics.get(required, 0) <= 0:
            raise SystemExit(f"{required} is zero in the trace")
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
