"""The asyncio serving loop over an :class:`EnginePool`.

One :class:`ReproServer` owns one pool.  Each accepted connection gets
a protocol handler coroutine; queries — the only slow verb — hop onto
the default thread-pool executor, where the pool's admission gate,
plan cache, and per-query machine state do their work and where the
reply, which can be thousands of rows, is built and serialized too.
The asyncio side stays single-threaded and non-blocking, so hellos,
stats probes, and pings keep flowing while queries execute.

A query's text is looked up in a small server-wide statement cache
first: optimizing a parse takes no schemas, so the logical plan is a
function of the text alone, and a hot query goes from the wire to a
plan-cache hit without entering :mod:`repro.lang`.
"""

from __future__ import annotations

import asyncio
import re
from collections import OrderedDict
from pathlib import Path
from typing import Any, Optional, Union

from repro import obs
from repro.errors import ConfigError, ReproError
from repro.lang import optimize, parse
from repro.machine.plan import PlanNode
from repro.machine.pool import EnginePool
from repro.obs import metrics
from repro.relational.csv_io import DomainRegistry
from repro.store import RelationStore
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    relation_from_wire,
    relation_to_wire,
)

__all__ = ["ReproServer", "MAX_LINE_BYTES"]

#: Tenants of a persistent server become directory names.
_TENANT_DIR_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")

#: Query texts the statement cache holds, least recently used evicted.
_STATEMENT_CACHE_SIZE = 256
#: Longer texts are planned on every request: one-off generated
#: queries, not worth a slot or the memory.
_STATEMENT_MAX_CHARS = 4096


class _StatementCache:
    """Query text → optimized logical plan, a bounded LRU.

    Used from the event-loop thread only, so it needs no lock.  Plans
    are immutable and carry no tenant state, so one entry serves every
    tenant; a text that fails to parse raises and leaves no entry.
    """

    def __init__(self) -> None:
        self._plans: OrderedDict[str, PlanNode] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def plan(self, expr: str) -> PlanNode:
        with obs.span("serve.statement", chars=len(expr)) as sp:
            # A hit skips the lang.* spans a miss records, and which
            # request of a text comes first is the clients' business.
            sp.mark_children_volatile()
            plan = self._plans.get(expr)
            sp.set_volatile(cached=plan is not None)
            if plan is not None:
                self._plans.move_to_end(expr)
                self._hits += 1
                metrics.inc("serve.statement_cache.hits")
                return plan
            self._misses += 1
            metrics.inc("serve.statement_cache.misses")
            plan = optimize(parse(expr))
            if len(expr) <= _STATEMENT_MAX_CHARS:
                self._plans[expr] = plan
                if len(self._plans) > _STATEMENT_CACHE_SIZE:
                    self._plans.popitem(last=False)
            return plan

    def info(self) -> dict[str, int]:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._plans),
            "maxsize": _STATEMENT_CACHE_SIZE,
        }


class ReproServer:
    """Serves the line protocol of :mod:`repro.serve.protocol` over TCP.

    ``await start()`` binds the socket (port 0 picks a free port;
    read the result back from :attr:`address`), ``await stop()``
    closes it and waits for in-flight connections to finish.  The
    server can also be used as an async context manager.
    """

    def __init__(
        self,
        pool: Optional[EnginePool] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 1,
        shard_strategy: str = "hash",
        store_dir: Union[str, Path, None] = None,
        **pool_kwargs: Any,
    ) -> None:
        if shards > 1 and store_dir is not None:
            # A sharded session partitions its relations across shard
            # machines and never reads the tenant catalog a store is
            # attached to (ROADMAP 3(a) is what lifts this).
            raise ConfigError(
                "store_dir (--store-dir) is a single-machine feature; it "
                "cannot be combined with shards > 1 (--shards)"
            )
        self.pool = pool if pool is not None else EnginePool(**pool_kwargs)
        self._host = host
        self._port = port
        #: every tenant talks to one session; shards > 1 makes it a
        #: sharded one (docs/SHARDING.md), whose ``store`` honours the
        #: optional ``key``/``replicate`` request fields.
        self.shards = shards
        self.shard_strategy = shard_strategy
        #: persistence root: each tenant gets ``store_dir/<tenant>`` as
        #: a :class:`~repro.store.RelationStore` attached to its
        #: catalog, and ``store`` requests may set ``persist: true`` —
        #: persisted relations survive server restarts.
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self._sessions: dict[str, Any] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        #: one domain registry per tenant — wire relations naming the
        #: same domain stay join-compatible within a tenant.
        self._registries: dict[str, DomainRegistry] = {}
        self._statements = _StatementCache()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not listening")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, then drain in-flight connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        tenant = "default"
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                    response, tenant, closing = await self._dispatch(
                        request, tenant
                    )
                except ReproError as exc:
                    response, closing = _error(exc), False
                except Exception as exc:  # defensive: never kill the loop
                    response, closing = _error(exc), False
                if not isinstance(response, bytes):  # else: encoded off-loop
                    response = encode_line(response)
                writer.write(response)
                await writer.drain()
                if closing:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: dict[str, Any], tenant: str
    ) -> tuple[Union[dict[str, Any], bytes], str, bool]:
        """Handle one request; returns (response, tenant, closing) —
        the response as a payload, or as its finished protocol line."""
        op = request.get("op")
        if op == "hello":
            tenant = str(request.get("tenant", "default"))
            self._session(tenant)  # materialize eagerly
            return {"ok": True, "tenant": tenant}, tenant, False
        if op == "ping":
            return {"ok": True, "pong": True}, tenant, False
        if op == "bye":
            return {"ok": True, "bye": True}, tenant, True
        if op == "stats":
            stats = self.pool.stats()
            stats["statement_cache"] = self._statements.info()
            return {"ok": True, "stats": stats}, tenant, False
        if op == "health":
            # The heartbeat: cheap enough to probe every few seconds —
            # gate occupancy, the per-query deadline, and the fault
            # plan's injection/retry ledger when chaos is active.
            pool = self.pool
            return (
                {
                    "ok": True,
                    "status": "ok",
                    "admission": pool.gate.stats(),
                    "query_deadline": pool.query_deadline,
                    "shards": self.shards,
                    "faults": (
                        pool.faults.snapshot()
                        if pool.faults is not None else None
                    ),
                },
                tenant, False,
            )
        if op == "store" or op == "preload":
            name = request.get("name")
            if not isinstance(name, str) or not name:
                raise ReproError(f"{op} needs a relation 'name'")
            relation = relation_from_wire(
                request.get("relation"), self._registry(tenant)
            )
            persist = bool(request.get("persist", False))
            if persist and op != "store":
                raise ReproError("persist applies to 'store', not 'preload'")
            if persist and self.shards > 1:
                raise ReproError(
                    "persist is not supported on a sharded server "
                    "(relations are partitioned across shard machines)"
                )
            if persist and self.store_dir is None:
                raise ReproError(
                    "this server has no persistence root; start it with "
                    "store_dir= (CLI: repro serve --store-dir DIR)"
                )
            session = self._session(tenant)
            if persist:
                session.catalog.persist(name, relation)
            else:
                verb = session.store if op == "store" else session.preload
                verb(
                    name, relation, key=request.get("key"),
                    replicate=bool(request.get("replicate", False)),
                )
            return (
                {"ok": True, "name": name, "rows": len(relation),
                 "persisted": persist},
                tenant, False,
            )
        if op == "query":
            expr = request.get("expr")
            if not isinstance(expr, str) or not expr:
                raise ReproError("query needs an algebra 'expr'")
            plan = self._statements.plan(expr)
            session = self._session(tenant)
            pipeline = bool(request.get("pipeline", True))
            priority = int(request.get("priority", 0))
            timeout = request.get("timeout")

            def answer() -> bytes:
                """Run the query and serialize its reply, off the loop."""
                results, report = session.run_many(
                    [plan], pipeline=pipeline, priority=priority,
                    timeout=timeout,
                )
                result = results[0]
                return encode_line({
                    "ok": True,
                    "relation": relation_to_wire(result),
                    "rows": len(result),
                    "makespan_ms": report.makespan * 1e3,
                })

            line = await asyncio.get_running_loop().run_in_executor(
                None, answer
            )
            return line, tenant, False
        raise ReproError(f"unknown op {op!r}")

    def _registry(self, tenant: str) -> DomainRegistry:
        return self._registries.setdefault(tenant, {})

    def _session(self, tenant: str):
        """The tenant's session (server-lifetime, lazily made) — sharded
        when the server is — store-attached when persistence is on.

        Attaching happens on first touch, so a freshly restarted server
        sees every relation a previous process persisted under
        ``store_dir/<tenant>`` without any replay.
        """
        session = self._sessions.get(tenant)
        if session is None:
            session = self.pool.session(
                tenant, shards=self.shards,
                shard_strategy=self.shard_strategy,
            )
            catalog = session.catalog
            if self.store_dir and catalog.disk.backing_store is None:
                if not _TENANT_DIR_RE.match(tenant):
                    raise ReproError(
                        f"tenant {tenant!r} is not filesystem-safe; a "
                        f"persistent server needs tenants matching "
                        f"{_TENANT_DIR_RE.pattern}"
                    )
                catalog.attach_store(RelationStore(self.store_dir / tenant))
            self._sessions[tenant] = session
        return session


def _error(exc: Exception) -> dict[str, Any]:
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}
