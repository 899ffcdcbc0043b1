"""Timing shims and span bookkeeping for the traced pass.

The program's own tracing (``repro.obs``) stays off.  Instead the
benchmark wraps the public callables at each layer boundary *from this
file*, patching every name where its caller looks it up (for example
``repro.serve.server.decode_line``, not ``repro.serve.protocol``), and
records one in-memory span per call: ``{id, name, layer, op_id, parent,
start, end}``.  Spans of one operation share ``op_id``; a span's parent
is the innermost open span on its thread, or — after a thread hop —
the span that was open where the work was submitted, or failing both
(the server's side of a socket) the innermost span open on the thread
that issued the operation.  The traced pass issues operations one at a
time, so that last fallback is exact.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union, so two shards computing side by side
are not subtracted twice).
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Span", "Tracer", "install_shims", "self_times", "wall_times",
    "write_jsonl",
]


class Span:
    """One timed call at a layer boundary."""

    __slots__ = (
        "id", "name", "layer", "op_id", "parent", "start", "end", "attrs",
    )

    def __init__(self, id, name, layer, op_id, parent, start) -> None:
        self.id = id
        self.name = name
        self.layer = layer
        self.op_id = op_id
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "op_id": self.op_id, "parent": self.parent,
            "start": self.start, "end": self.end, **self.attrs,
        }


class Tracer:
    """Collects spans in memory; nothing is written until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: span stack of the thread issuing the operation in flight (ops
        #: run one at a time); empty between operations.
        self._op_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The span new work on this thread would be a child of."""
        stack = self._stack() or self._op_stack
        return stack[-1] if stack else None

    @contextmanager
    def _open(self, span: Span, stack: list[Span]):
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.attrs["error"] = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def span(self, name: str, layer: str):
        parent = self.current()
        span = Span(
            next(self._ids), name, layer,
            parent.op_id if parent is not None else None,
            parent.id if parent is not None else None,
            time.perf_counter(),
        )
        return self._open(span, self._stack())

    def op(self, op_id: int, kind: str):
        """The root span of one benchmark operation."""
        root = Span(
            next(self._ids), "bench.op", "bench", op_id, None,
            time.perf_counter(),
        )
        root.attrs["kind"] = kind
        self._op_stack = self._stack()
        return self._open(root, self._op_stack)

    @contextmanager
    def adopted(self, parent: Optional[Span]):
        """Run a block on this thread as a child of ``parent``."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()


# -- shims -------------------------------------------------------------------

Annotate = Callable[[Span, tuple, Any], None]


def _shim(
    tracer: Tracer,
    fn: Callable,
    name: str | Callable[[tuple], str],
    layer: str,
    annotate: Optional[Annotate] = None,
) -> Callable:
    @functools.wraps(fn, updated=())
    def shim(*args, **kwargs):
        label = name if isinstance(name, str) else name(args)
        with tracer.span(label, layer) as span:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
            return result

    return shim


def _note_engine(span: Span, args: tuple, run) -> None:
    span.attrs["pulses"] = run.pulses


def _note_device(span: Span, args: tuple, run) -> None:
    span.attrs["pulses"] = run.pulses
    span.attrs["block_runs"] = run.block_runs


def _note_report(span: Span, args: tuple, outcome) -> None:
    report = outcome[1]
    exchanges = getattr(report, "exchanges", None)
    if exchanges is not None:
        span.attrs["exchanges"] = len(exchanges)
        span.attrs["exchange_sim_ms"] = report.exchange_seconds * 1e3


def _note_scan(span: Span, args: tuple, scan) -> None:
    selection = args[1] if len(args) > 1 else None
    if selection is None:
        span.attrs["mode"] = "full"
    else:
        span.attrs["mode"] = "eq" if selection[1] == "==" else "range"
    span.attrs["chunks_read"] = scan.chunks_read
    span.attrs["chunks_total"] = scan.chunks_total
    span.attrs["rows_scanned"] = scan.rows_scanned


def _note_rows(span: Span, args: tuple, relation) -> None:
    span.attrs["rows"] = len(relation)


def _note_bytes(span: Span, args: tuple, line: bytes) -> None:
    span.attrs["bytes"] = len(line)


def install_shims(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that undoes it."""
    import repro.arrays as arrays
    import repro.arrays.decomposition as decomposition
    import repro.machine.device as device
    import repro.serve.client as client
    import repro.serve.server as server
    import repro.store.columnar as columnar
    from repro.machine import (
        CpuDevice, EnginePool, PlanCache, SystolicDatabaseMachine,
        SystolicDevice,
    )
    from repro.serve import ServiceClient
    from repro.shard import ShardedExecutor
    from repro.store import RelationStore, StoredRelation
    from repro.systolic.engine import LatticeEngine, PulseEngine

    def engine_name(args: tuple) -> str:
        return f"engine.{args[0].name}.run"  # bitplane inherits lattice's run

    targets: list[tuple[Any, str, Any, str, Optional[Annotate]]] = []

    def add(owner, attrs: Iterable[str], name, layer, annotate=None) -> None:
        for attr in attrs:
            targets.append((owner, attr, name, layer, annotate))

    # serve: both ends of the wire use the same codec names.
    for module in (server, client):
        add(module, ["decode_line"], "serve.decode", "serve")
        add(module, ["relation_to_wire"], "serve.encode", "serve")
    add(server, ["relation_from_wire"], "serve.decode", "serve")
    add(server, ["encode_line"], "serve.encode_reply", "serve", _note_bytes)
    add(client, ["encode_line"], "serve.encode", "serve")
    add(ServiceClient, ["query", "store"], "serve.transport", "serve")
    # lang
    add(server, ["parse"], "lang.parse", "lang")
    add(server, ["optimize"], "lang.optimize", "lang")
    # machine
    add(SystolicDatabaseMachine, ["__init__"], "machine.build", "machine")
    add(EnginePool, ["compile"], "machine.compile", "machine")
    add(SystolicDatabaseMachine, ["compile"], "machine.compile", "machine")
    add(EnginePool, ["execute"], "machine.execute", "machine")
    add(ShardedExecutor, ["execute"], "machine.execute", "machine",
        _note_report)
    add(SystolicDatabaseMachine, ["run_many"], "machine.execute", "machine")
    add(SystolicDevice, ["execute"], "machine.device", "machine", _note_device)
    add(CpuDevice, ["execute"], "machine.device", "machine", _note_device)
    # shard
    add(ShardedExecutor, ["plan"], "shard.plan", "shard")
    # arrays: the blocked family as the device calls it, the whole-array
    # runners as this benchmark calls them.
    add(
        device,
        [n for n in vars(device) if n.startswith("blocked_")],
        "arrays.blocked", "arrays",
    )
    add(
        arrays,
        ["systolic_intersection", "systolic_remove_duplicates",
         "systolic_join", "systolic_divide"],
        "arrays.systolic", "arrays",
    )
    # systolic.engine
    add(LatticeEngine, ["run"], engine_name, "systolic.engine", _note_engine)
    add(PulseEngine, ["run"], engine_name, "systolic.engine", _note_engine)
    # store
    add(StoredRelation, ["read"], "store.read", "store", _note_scan)
    add(RelationStore, ["write", "write_array"], "store.write", "store")
    add(RelationStore, ["open", "drop"], "store.catalog", "store")
    # relational: the tuple boxing behind the store and the block results.
    for module in (columnar, decomposition):
        add(module, ["Relation"], "relational.construct", "relational",
            _note_rows)

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets]
    for owner, attr, name, layer, annotate in targets:
        setattr(
            owner, attr,
            _shim(tracer, getattr(owner, attr), name, layer, annotate),
        )

    # Counts taken at the same boundaries, without a span of their own.
    cache_get = PlanCache.get

    @functools.wraps(cache_get)
    def noting_get(self, key):
        cached = cache_get(self, key)
        span = tracer.current()
        if span is not None and span.name == "machine.compile":
            span.attrs["cached"] = cached is not None
        return cached

    PlanCache.get = noting_get
    saved.append((PlanCache, "get", cache_get))

    # Thread hops (the wave scheduler, shard lanes, the server's executor
    # hop) all go through ThreadPoolExecutor.submit: carry the parent over.
    submit = concurrent.futures.ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def carrying_submit(self, fn, /, *args, **kwargs):
        parent = tracer.current()

        def carried(*a, **k):
            with tracer.adopted(parent):
                return fn(*a, **k)

        return submit(self, carried, *args, **kwargs)

    concurrent.futures.ThreadPoolExecutor.submit = carrying_submit
    saved.append((concurrent.futures.ThreadPoolExecutor, "submit", submit))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- analysis ----------------------------------------------------------------


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of the children."""
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda s: s.start):
        lo = max(child.start, cursor)
        hi = min(child.end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds per span id: how long the span's own code was busy."""
    children = _children(spans)
    return {
        span.id: span.duration
        - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def _split(siblings: list[Span]) -> dict[int, float]:
    """Each sibling's seconds when an instant that ``k`` of them share
    counts ``1/k`` for each; the values add up to the union's length."""
    edges = sorted({t for s in siblings for t in (s.start, s.end)})
    split = dict.fromkeys((s.id for s in siblings), 0.0)
    for lo, hi in zip(edges, edges[1:]):
        active = [s for s in siblings if s.start <= lo and hi <= s.end]
        for span in active:
            split[span.id] += (hi - lo) / len(active)
    return split


def wall_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of its operation's wall-clock that each span answers for.

    Equal to self time while an operation runs on one thread.  Where
    child spans ran side by side (the two shards of ``bulk_join``), a
    second they shared is split between them and between everything
    below them, so that one operation's values add up to its root
    span's duration — unless a span outlived its parent or was
    attributed to the wrong one, which is what the layer table's
    ``coverage`` is there to show.
    """
    children = _children(spans)
    selfs = self_times(spans)
    wall: dict[int, float] = {}
    pending = [(s, 1.0) for s in spans if s.parent is None]
    while pending:
        span, scale = pending.pop()
        wall[span.id] = scale * selfs[span.id]
        below = children.get(span.id, [])
        split = _split(below)
        pending.extend(
            (child, scale * split[child.id] / child.duration
             if child.duration else 0.0)
            for child in below
        )
    return wall


def write_jsonl(spans: list[Span], path) -> None:
    """One span per line, in start order."""
    with open(path, "w", encoding="utf-8") as stream:
        for span in sorted(spans, key=lambda s: s.start):
            stream.write(json.dumps(span.as_dict()) + "\n")
