"""A thread-per-connection TCP server over an :class:`EnginePool`.

One :class:`ReproServer` owns one pool.  An accept thread gives each
connection a thread of its own, which reads a request line, answers it
— a query runs through the pool's admission gate, plan cache and
per-query machine state right there, and its reply, which can be
thousands of rows, is built and serialized there too — writes the
reply line and reads the next.  Nothing hops between threads on the
way, and the admission gate is the one place concurrent queries wait:
``max_concurrent`` bounds them, and priority and the admission timeout
order and shed every one of them.  Hellos, stats probes and pings on
other connections keep answering while queries execute.

What connections share is locked where they meet: the statement cache,
the creation of a tenant's session and domain registry, and — one lock
per tenant — the decoding of a ``store``d or ``preload``ed relation,
which extends the tenant's domain dictionaries.

A query's text is looked up in a small server-wide statement cache
first: optimizing a parse takes no schemas, so the logical plan is a
function of the text alone, and a hot query goes from the wire to a
plan-cache hit without entering :mod:`repro.lang`.
"""

from __future__ import annotations

import re
import socket
import threading
import time
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
from repro.store import RelationStore, pool_info
# The four codec names are module attributes here and in the client,
# where a caller that wraps the codec (the end-to-end benchmark's timing
# shims) looks them up; relation_to_wire is not called here, because
# encode_line writes the reply's relation.
from repro.serve.protocol import (  # noqa: F401
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

#: Connections the listener queues before the accept thread takes them.
_BACKLOG = 100
#: Pause before accepting again after ``accept`` failed on a listener
#: that is still open (out of file descriptors, say).
_ACCEPT_RETRY_SECONDS = 0.05


class _StatementCache:
    """Query text → optimized logical plan, a bounded LRU.

    Connection threads share it, so a lock guards the table and its
    counters.  A miss is planned outside the lock; two threads missing
    on one text both plan it and the later entry stays.  Plans are
    immutable and carry no tenant state, so one entry serves every
    tenant; a text that fails to parse raises and leaves no entry.
    """

    def __init__(self) -> None:
        self._plans: OrderedDict[str, PlanNode] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def plan(self, expr: str) -> PlanNode:
        with obs.span("serve.statement", chars=len(expr)) as sp:
            # A hit skips the lang.* spans a miss records, and which
            # request of a text comes first is the clients' business.
            sp.mark_children_volatile()
            with self._lock:
                plan = self._plans.get(expr)
                if plan is None:
                    self._misses += 1
                else:
                    self._plans.move_to_end(expr)
                    self._hits += 1
            sp.set_volatile(cached=plan is not None)
            if plan is not None:
                metrics.inc("serve.statement_cache.hits")
                return plan
            metrics.inc("serve.statement_cache.misses")
            plan = optimize(parse(expr))
            if len(expr) <= _STATEMENT_MAX_CHARS:
                with self._lock:
                    self._plans[expr] = plan
                    if len(self._plans) > _STATEMENT_CACHE_SIZE:
                        self._plans.popitem(last=False)
            return plan

    def info(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._plans),
                "maxsize": _STATEMENT_CACHE_SIZE,
            }


class ReproServer:
    """Serves the line protocol of :mod:`repro.serve.protocol` over TCP.

    ``await start()`` binds the socket (port 0 picks a free port; read
    the result back from :attr:`address`) and starts accepting.
    ``await stop()`` closes the listener, lets every request in flight
    finish and send its reply, closes the idle connections and joins
    their threads.  The server can also be used as an async context
    manager.  Both are coroutines so that an event loop can drive them;
    neither awaits anything, and ``stop`` blocks its caller until the
    requests in flight are answered.
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
        #: one domain registry per tenant — wire relations naming the
        #: same domain stay join-compatible within a tenant — and the
        #: lock a store or preload holds while it decodes into it.
        self._registries: dict[str, tuple[DomainRegistry, threading.Lock]] = {}
        self._statements = _StatementCache()
        #: guards the connection tables and the creation of sessions
        #: and registries.
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        #: connection socket → the thread serving it.
        self._connections: dict[socket.socket, threading.Thread] = {}
        #: the connections with a request in flight.
        self._busy: set[socket.socket] = set()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        family, _, _, _, address = socket.getaddrinfo(
            self._host, self._port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )[0]
        self._listener = socket.create_server(
            address, family=family, backlog=_BACKLOG
        )
        self._acceptor = threading.Thread(
            target=self._accept, args=(self._listener,),
            name="repro-serve-accept", daemon=True,
        )
        self._acceptor.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._listener is None:
            raise ReproError("server is not listening")
        name = self._listener.getsockname()
        return name[0], name[1]

    async def stop(self) -> None:
        """Stop accepting; answer the requests in flight; close the idle
        connections; join every connection thread."""
        with self._lock:
            self._stopping = True
        listener, self._listener = self._listener, None
        if listener is not None:
            _shutdown(listener)  # wakes the accept() blocked on it
            self._acceptor.join()
            listener.close()
        with self._lock:
            idle = [s for s in self._connections if s not in self._busy]
            threads = list(self._connections.values())
        for sock in idle:
            _shutdown(sock)  # its thread's readline() sees end of stream
        for thread in threads:
            thread.join()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connection handling ----------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        """The accept thread: one serving thread per connection."""
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if self._stopping:
                    return
                time.sleep(_ACCEPT_RETRY_SECONDS)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve, args=(sock,),
                name="repro-serve-connection", daemon=True,
            )
            with self._lock:
                if self._stopping:
                    sock.close()
                    return
                self._connections[sock] = thread
            thread.start()

    def _serve(self, sock: socket.socket) -> None:
        """One connection: read a line, answer it, write the reply —
        until the peer leaves, says ``bye``, or the server stops."""
        reader = sock.makefile("rb")
        tenant = "default"
        try:
            while True:
                line = reader.readline(MAX_LINE_BYTES + 1)
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    # The rest of the line is unread, so the stream
                    # cannot be resynchronized: answer, then hang up.
                    sock.sendall(encode_line(_error(ReproError(
                        f"protocol line exceeds the {MAX_LINE_BYTES}-byte "
                        f"limit; closing the connection"
                    ))))
                    break
                if not line.strip():
                    continue
                with self._lock:
                    if self._stopping:
                        break
                    self._busy.add(sock)
                try:
                    reply, tenant, closing = self._answer(line, tenant)
                    sock.sendall(reply)
                finally:
                    with self._lock:
                        self._busy.discard(sock)
                        stopping = self._stopping
                if closing or stopping:
                    break
        except OSError:
            pass  # the peer went away, or stop() hung up while idle
        finally:
            with self._lock:
                del self._connections[sock]
            reader.close()
            sock.close()

    def _answer(self, line: bytes, tenant: str) -> tuple[bytes, str, bool]:
        """One request line's reply line; returns (reply, tenant, closing)."""
        try:
            payload, tenant, closing = self._dispatch(decode_line(line), tenant)
            return encode_line(payload), tenant, closing
        except Exception as exc:  # a reply for every request, errors too
            return encode_line(_error(exc)), tenant, False

    def _dispatch(
        self, request: dict[str, Any], tenant: str
    ) -> tuple[dict[str, Any], str, bool]:
        """Handle one request; returns (response, tenant, closing)."""
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
            stats["chunk_pool"] = pool_info()
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
            registry, decoding = self._registry(tenant)
            with decoding:
                relation = relation_from_wire(request.get("relation"), registry)
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
            results, report = self._session(tenant).run_many(
                [plan], pipeline=bool(request.get("pipeline", True)),
                priority=int(request.get("priority", 0)),
                timeout=request.get("timeout"),
            )
            result = results[0]
            # encode_line writes the relation in its wire form.
            return (
                {"ok": True, "relation": result,
                 "rows": len(result), "makespan_ms": report.makespan * 1e3},
                tenant, False,
            )
        raise ReproError(f"unknown op {op!r}")

    def _registry(
        self, tenant: str
    ) -> tuple[DomainRegistry, threading.Lock]:
        """The tenant's domain registry and its decoding lock."""
        entry = self._registries.get(tenant)
        if entry is None:
            with self._lock:
                entry = self._registries.setdefault(
                    tenant, ({}, threading.Lock())
                )
        return entry

    def _session(self, tenant: str):
        """The tenant's session (server-lifetime, lazily made) — sharded
        when the server is — store-attached when persistence is on.

        Attaching happens on first touch, so a freshly restarted server
        sees every relation a previous process persisted under
        ``store_dir/<tenant>`` without any replay.
        """
        session = self._sessions.get(tenant)
        if session is not None:
            return session
        with self._lock:
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
                    catalog.attach_store(
                        RelationStore(self.store_dir / tenant)
                    )
                self._sessions[tenant] = session
        return session


def _error(exc: Exception) -> dict[str, Any]:
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}


def _shutdown(sock: socket.socket) -> None:
    """Shut both directions of ``sock``, waking a thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
