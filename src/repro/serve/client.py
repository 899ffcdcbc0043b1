"""A blocking client for the ``repro serve`` line protocol.

Plain stdlib sockets — usable from scripts, tests, and other
processes without any async machinery.  One client holds one
connection bound to one tenant::

    with ServiceClient(host, port, tenant="acme") as db:
        db.store("R", relation)
        rows = db.query("project(join(R, S, #0 == #0), #0, #1)")["rows"]

Robustness.  The request/response stream is strictly one reply per
request, so a reply that goes missing mid-flight poisons the stream:
whatever arrives next would be read as the answer to the *next*
request.  The client therefore **tears the connection down** on any
timeout or socket error and raises
:class:`~repro.errors.ServiceRetryableError`; the built-in retry
policy then reconnects (re-sending ``hello`` for the bound tenant) and
retries with jittered exponential backoff.
:class:`~repro.errors.AdmissionError` — the server shedding load — is
honoured as retryable on the *same* connection.  Server-side errors
re-raise as the matching class from :mod:`repro.errors` (the
response's ``kind`` field), so ``PlanError``/``SchemaError``/... keep
their identity across the wire.
"""

from __future__ import annotations

import socket
from typing import Any, Optional

from repro.errors import (
    AdmissionError,
    ReproError,
    ServiceRetryableError,
    error_class,
)
from repro.faults.recovery import RetryPolicy, cancellable_sleep
from repro.relational.relation import Relation
# relation_to_wire stays a module attribute beside the codec names the
# client calls, for a caller that wraps them all (the end-to-end
# benchmark's timing shims); encode_line writes the relations.
from repro.serve.protocol import (  # noqa: F401
    decode_line,
    encode_line,
    relation_to_wire,
)

__all__ = ["ServiceClient"]


class ServiceClient:
    """One tenant's connection to a :class:`~repro.serve.server.ReproServer`.

    Raises the server-side error's matching :mod:`repro.errors` class
    when the server answers ``ok: false``.  ``retries`` bounds the
    automatic reconnect-and-retry attempts per request (0 disables
    them); ``retry_backoff`` seeds the jittered exponential backoff
    between attempts.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        timeout: Optional[float] = 60.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.retry_policy = RetryPolicy(
            attempts=max(1, retries + 1),
            base_seconds=retry_backoff,
            cap_seconds=max(retry_backoff, retry_backoff * 8),
        )
        self._sock: Optional[socket.socket] = None
        self._file = None

    # -- connection --------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is not None:
            return self
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rb")
        try:
            self._request_once({"op": "hello", "tenant": self.tenant})
        except BaseException:
            self._teardown()
            raise
        return self

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            # Best-effort, single attempt: never retry our way out the
            # door.
            self._request_once({"op": "bye"})
        except (ReproError, OSError):
            pass
        self._teardown()

    def _teardown(self) -> None:
        """Drop the socket: the stream can no longer be trusted."""
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        for resource in (file, sock):
            if resource is None:
                continue
            try:
                resource.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- verbs -------------------------------------------------------------

    def hello(self, tenant: str) -> dict[str, Any]:
        """Bind the connection to a tenant's catalog."""
        self.tenant = tenant
        return self._request({"op": "hello", "tenant": tenant})

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def health(self) -> dict[str, Any]:
        """The server's heartbeat: gate occupancy, deadline, fault
        ledger (None unless the server runs with ``--faults``)."""
        return self._request({"op": "health"})

    def store(
        self,
        name: str,
        relation: Relation,
        key: Optional[str] = None,
        replicate: bool = False,
        persist: bool = False,
    ) -> dict[str, Any]:
        """Put a base relation on this tenant's disk(s).

        ``key`` and ``replicate`` direct placement when the server runs
        sharded (``repro serve --shards N``); an unsharded server
        ignores them.  ``persist=True`` writes the relation through to
        the server's columnar store (``repro serve --store-dir DIR``),
        so it survives server restarts and is chunk-pruned at query
        time; a server without a persistence root refuses it.
        """
        payload = self._placed({
            "op": "store", "name": name, "relation": relation,
        }, key, replicate)
        if persist:
            payload["persist"] = True
        return self._request(payload)

    def preload(
        self,
        name: str,
        relation: Relation,
        key: Optional[str] = None,
        replicate: bool = False,
    ) -> dict[str, Any]:
        """Mark a relation memory-resident for this tenant's queries."""
        return self._request(self._placed({
            "op": "preload", "name": name, "relation": relation,
        }, key, replicate))

    @staticmethod
    def _placed(
        payload: dict[str, Any], key: Optional[str], replicate: bool
    ) -> dict[str, Any]:
        if key is not None:
            payload["key"] = key
        if replicate:
            payload["replicate"] = True
        return payload

    def query(
        self,
        expr: str,
        pipeline: bool = True,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> dict[str, Any]:
        """Run one algebra expression; returns the response payload.

        The payload carries ``relation`` (wire format: columns +
        decoded rows), ``rows``, and the simulated ``makespan_ms``.
        """
        request: dict[str, Any] = {
            "op": "query", "expr": expr,
            "pipeline": pipeline, "priority": priority,
        }
        if timeout is not None:
            request["timeout"] = timeout
        return self._request(request)

    def stats(self) -> dict[str, Any]:
        """The pool's serving snapshot (tenants, cache, admission gate)."""
        return self._request({"op": "stats"})["stats"]

    # -- plumbing ----------------------------------------------------------

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request with the client's reconnect-and-retry policy.

        :class:`ServiceRetryableError` retries on a **fresh** connection
        (the failed one was torn down; :meth:`connect` re-binds the
        tenant); :class:`AdmissionError` — backpressure, a property of
        the instant — retries on the same connection.  Both back off
        with deterministic jitter.  Every other error propagates.
        """
        policy = self.retry_policy
        for attempt in range(1, policy.attempts + 1):
            try:
                if self._sock is None:
                    self.connect()
                return self._request_once(payload)
            except (ServiceRetryableError, AdmissionError) as exc:
                if attempt == policy.attempts:
                    raise
                delay = policy.delay(
                    attempt, f"{self.host}:{self.port}:{payload.get('op')}"
                )
                cancellable_sleep(delay, None)
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request / one reply on the current connection.

        Any timeout or socket failure mid-flight leaves a reply
        potentially in transit, so the connection is torn down before
        raising — reading that stale reply later as the answer to a
        *different* request would silently corrupt the session.
        """
        if self._sock is None:
            raise ServiceRetryableError("client is not connected")
        try:
            self._sock.sendall(encode_line(payload))
            line = self._file.readline()
        except socket.timeout:
            self._teardown()
            raise ServiceRetryableError(
                f"request {payload.get('op')!r} timed out after "
                f"{self.timeout:g}s; connection torn down (a late reply "
                f"can no longer be matched to its request)"
            ) from None
        except OSError as exc:
            self._teardown()
            raise ServiceRetryableError(
                f"connection to {self.host}:{self.port} failed: {exc}"
            ) from None
        if not line:
            self._teardown()
            raise ServiceRetryableError("server closed the connection")
        response = decode_line(line)
        if not response.get("ok"):
            message = response.get("error", "unknown server error")
            raise error_class(str(response.get("kind", "")))(message)
        return response

    def __repr__(self) -> str:
        state = "connected" if self._sock else "disconnected"
        return (
            f"ServiceClient({self.host}:{self.port}, "
            f"tenant={self.tenant!r}, {state})"
        )
