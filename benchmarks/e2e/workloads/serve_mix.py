"""``serve_mix`` — small queries through the TCP front end.

A ``python -m repro serve --backend lattice --max-concurrent 2
--store-dir DIR`` subprocess and two :class:`ServiceClient`
connections (two tenants) taking turns in one closed loop: one request
in flight, client and server on one core.  Relations are small, so
wire codec, parse/optimize, compile/plan cache and transport are a
large share of every request and the arrays a small one.

For the traced pass the subprocess is swapped for an in-process
:class:`ReproServer` on an asyncio thread with the same pool settings,
so the timing shims see real requests.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from repro import lang
from repro.machine import EnginePool
from repro.relational.domain import IntegerDomain
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serve import (
    ReproServer,
    ServiceClient,
    relation_from_wire,
    relation_to_wire,
)
from repro.workloads import (
    division_workload,
    join_pair,
    overlapping_pair,
    random_relation,
)

from benchmarks.e2e.harness import Op, Outcome, Workload, digest_rows

__all__ = ["ServeMix"]

SRC = Path(__file__).resolve().parents[3] / "src"
TENANTS = ("acme", "globex")
MAX_CONCURRENT = 2
SP_ROWS = 32_768  # persisted; one store chunk
#: small enough for one or two block runs on the server's 63-row devices,
#: so the front end, not the arrays, owns most of a request.
JOIN_ROWS = (64, 32)
WIDE_ROWS = 32
DIVIDE_GROUPS = 32
#: store_small cycles through this many cardinalities, so every write
#: leaves the tenant's catalog with a fingerprint the plan cache has
#: not seen (or has long evicted): the next query of each kind recompiles.
SMALL_ROWS = range(449, 513)
SERVER_EXIT_SECONDS = 30.0

#: kind -> how many per tenant per round.  The median lands on the
#: rotating select, the 90th percentile on the pipelined chain.
MIX = {
    "select_eq": 8,
    "select_eq_hot": 6,
    "select_range": 3,
    "join_key": 3,
    "project_join": 4,
    "divide": 3,
    "intersect_wide": 3,
    "store_small": 1,
}

_SNO, _PNO, _QTY = (IntegerDomain(n) for n in ("sno", "pno", "qty"))
SP_SCHEMA = Schema.of(("s", _SNO), ("p", _PNO), ("qty", _QTY))


def _tenant_relations(seed: int) -> dict[str, Relation]:
    """One tenant's base relations, in the order they are sent."""
    rng = np.random.default_rng(seed)
    sp = np.stack(
        [rng.integers(0, 1000, SP_ROWS), rng.integers(0, 2000, SP_ROWS),
         np.arange(SP_ROWS)],
        axis=1,
    )
    ja, jb = join_pair(*JOIN_ROWS, min(JOIN_ROWS), universe=1000, seed=seed)
    wa, wb = overlapping_pair(
        WIDE_ROWS, WIDE_ROWS, WIDE_ROWS // 3, arity=8, seed=seed
    )
    da, db, _ = division_workload(DIVIDE_GROUPS, 4, 10, seed=seed)
    return {
        "SP": Relation(SP_SCHEMA, map(tuple, sp.tolist())),
        "JA": ja, "JB": jb, "WA": wa, "WB": wb, "DA": da, "DB": db,
    }


class _Tenant:
    """One client connection plus the local replica the oracle reads."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.relations = _tenant_relations(seed)
        small = random_relation(SMALL_ROWS[-1], 3, seed=seed)
        self.smalls = [
            Relation(small.schema, small.tuples[:rows]) for rows in SMALL_ROWS
        ]
        self.writes = 0
        self.client: ServiceClient | None = None
        #: what the server's per-tenant registry and catalog will hold.
        self.registry: dict = {}
        self.replica: dict[str, Relation] = {}

    def load(self, host: str, port: int) -> None:
        self.client = ServiceClient(host, port, tenant=self.name).connect()
        for name, relation in self.relations.items():
            self.client.store(name, relation, persist=(name == "SP"))
            self._mirror(name, relation)

    def _mirror(self, name: str, relation: Relation) -> None:
        """Decode the way the server does, so encodings line up."""
        self.replica[name] = relation_from_wire(
            relation_to_wire(relation), self.registry
        )

    def store_small(self):
        relation = self.smalls[self.writes % len(self.smalls)]
        self.writes += 1
        return self.client.store("SMALL", relation), len(relation)


class ServeMix(Workload):
    name = "serve_mix"

    def setup(self) -> None:
        # Client and server hand every request back and forth.  On two
        # mostly idle virtual CPUs each hand-over waits for the hypervisor
        # to wake the other one (a third of a request here, and the part
        # that moved most from run to run); on one CPU it is a context
        # switch, and the probe runs on the core that did the work.  The
        # server child inherits the mask.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.tenants = [
            _Tenant(name, self.seed * 10 + i)
            for i, name in enumerate(TENANTS)
        ]
        self.store_dir = self.scratch / "serve-store"
        self.proc = None
        self.loop = None
        if self.traced:
            host, port = self._start_in_process()
        else:
            host, port = self._start_subprocess()
        # Both tenants are fully loaded before any clock starts.
        for tenant in self.tenants:
            tenant.load(host, port)

    def describe(self) -> str:
        where = (
            "in-process ReproServer" if self.traced
            else "repro serve subprocess"
        )
        return (
            f"{where} on one core; {len(TENANTS)} tenants taking turns, "
            f"persisted SP {SP_ROWS} rows, "
            f"join {JOIN_ROWS[0]}x{JOIN_ROWS[1]}, divide {DIVIDE_GROUPS} "
            f"groups, 8-ary intersect {WIDE_ROWS}x{WIDE_ROWS}, store_small "
            f"{SMALL_ROWS[0]}-{SMALL_ROWS[-1]} rows; "
            f"{sum(MIX.values())} ops per tenant per round"
        )

    # -- server lifecycle --------------------------------------------------

    def _start_subprocess(self) -> tuple[str, int]:
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", "lattice",
             "--max-concurrent", str(MAX_CONCURRENT), "--port", "0",
             "--store-dir", str(self.store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        banner = self.proc.stdout.readline().strip()
        if not banner.startswith("serving on "):
            self.proc.kill()
            rest, _ = self.proc.communicate()
            raise RuntimeError(f"unexpected server banner: {banner!r} {rest}")
        host, port = banner.removeprefix("serving on ").rsplit(":", 1)
        return host, int(port)

    def _start_in_process(self) -> tuple[str, int]:
        pool = EnginePool(backend="lattice", max_concurrent=MAX_CONCURRENT)
        self.server = ReproServer(pool, store_dir=self.store_dir)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="bench-server", daemon=True
        )
        self.thread.start()
        return asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30.0)

    def teardown(self) -> list[str]:
        problems = []
        for tenant in self.tenants:
            if tenant.client is not None:
                tenant.client.close()
        if self.loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self.loop
            ).result(timeout=SERVER_EXIT_SECONDS)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(SERVER_EXIT_SECONDS)
            if self.thread.is_alive():
                problems.append("in-process server thread did not stop")
            else:
                self.loop.close()
            self.loop = None
        if self.proc is not None:
            self.proc.send_signal(signal.SIGINT)
            try:
                output, _ = self.proc.communicate(timeout=SERVER_EXIT_SECONDS)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                output, _ = self.proc.communicate()
                problems.append("server hung on SIGINT and was killed")
            if self.proc.returncode != 0:
                problems.append(
                    f"server exited {self.proc.returncode}: {output[-400:]}"
                )
            elif "server stopped" not in output:
                problems.append(f"no clean-shutdown line: {output[-400:]}")
            self.proc = None
        return problems

    # -- operations --------------------------------------------------------

    @staticmethod
    def _replied(reply) -> Outcome:
        rows = reply["relation"]["rows"]
        if reply["rows"] != len(rows):
            raise AssertionError(
                f"reply says {reply['rows']} rows, carries {len(rows)}"
            )
        return Outcome(
            rows=len(rows), digest=digest_rows(rows),
            sim_ms=reply["makespan_ms"],
        )

    @staticmethod
    def _stored(raw) -> Outcome:
        reply, sent = raw
        if reply["rows"] != sent or reply["persisted"]:
            raise AssertionError(f"store_small acknowledged {reply}")
        return Outcome(rows=0, digest="store")

    def _tenant_ops(self, tenant: _Tenant) -> list[Op]:
        def query_op(kind: str, expr: str) -> Op:
            def reference() -> tuple[int, str]:
                expected = lang.query(expr, tenant.replica, engine="software")
                return len(expected), digest_rows(expected.decoded())

            return Op(
                kind, lambda: tenant.client.query(expr), self._replied,
                reference, f"{tenant.name}/{expr}",
            )

        exprs = {
            "select_eq_hot": ["select(SP, s == 7)"],
            # Each constant once per round with a store_small in between:
            # compiled cold every time.
            "select_eq": [f"select(SP, s == {100 + 97 * i % 700})"
                          for i in range(MIX["select_eq"])],
            "select_range": ["select(SP, p < 100)"],
            "join_key": ["join(JA, JB, key == key)"],
            "project_join": ["project(join(JA, JB, key == key), #0, #1)"],
            "divide": ["divide(DA, DB)"],
            "intersect_wide": ["intersect(WA, WB)"],
        }
        ops = []
        for kind, count in MIX.items():
            if kind == "store_small":
                ops.extend(
                    Op(kind, tenant.store_small, self._stored,
                       lambda: (0, "store"), f"{tenant.name}/store")
                    for _ in range(count)
                )
                continue
            choices = exprs[kind]
            ops.extend(
                query_op(kind, choices[i % len(choices)])
                for i in range(count)
            )
        return ops

    def ops(self) -> list[Op]:
        # One op in flight: the shuffle decides whose turn it is.
        return [op for tenant in self.tenants for op in self._tenant_ops(tenant)]
