"""Hierarchical spans: wall-clock intervals with attributes and children.

A :class:`Span` records one named interval of *host* time (simulated
pulse-clock quantities belong in its ``attrs``).  A :class:`Tracer`
holds the forest of spans for one observed run and hands out context
managers::

    with obs.span("compile", ops=6) as sp:
        ...
        sp.set(rows_out=12)           # structural: deterministic, compared
        sp.set_volatile(cached=True)  # host-schedule state: exported only

Tracing is **off by default**: the module-level active tracer starts as
:data:`NULL_TRACER`, whose ``span()`` returns one shared no-op context
manager — an instrumentation point costs two attribute lookups and a
``with`` block, nothing else.  ``obs.start()`` installs a real tracer.

Thread model.  Each thread keeps its own span stack, so spans nested on
one thread nest in the recorded tree, and a child's interval lies
inside its parent's: a span is opened where its work happens and
nowhere else.  A query runs on one thread, so the tree *structure* of a
completed run is a function of the work alone; only timestamps (and
thread ids) differ between runs.  A span that exits by exception stays
in the tree — it is what an interrupted attempt looked like — with the
exception's class name as its volatile ``error`` attribute.

Attributes come in two channels.  ``attrs`` are **structural**: a
deterministic function of the work (simulated quantities, counts,
names) and part of :meth:`Span.structure`.  ``volatile`` attributes are
**host-schedule state** — whether a shared cache happened to hit, which
thread won a race — exported beside ``attrs`` but never compared.  A
span whose *children* exist only on one side of such a race (the
planner spans a cache miss records and a hit does not) calls
:meth:`Span.mark_children_volatile` and its subtree leaves the
structure too.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "enabled",
    "start",
    "stop",
    "tracing",
    "span",
]


@dataclass
class Span:
    """One named wall-clock interval with attributes and child spans."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    t0: float = 0.0
    t1: float = 0.0
    tid: int = 0
    children: list["Span"] = field(default_factory=list)
    #: host-schedule state: exported, excluded from :meth:`structure`.
    volatile: dict[str, Any] = field(default_factory=dict)
    #: True when which children exist is itself host-schedule state.
    volatile_children: bool = False

    @property
    def seconds(self) -> float:
        """Host wall-clock duration."""
        return self.t1 - self.t0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def set_volatile(self, **attrs: Any) -> None:
        """Attach host-schedule-dependent attributes (cache hits, thread
        ids, host timings): exported with the span, never compared."""
        self.volatile.update(attrs)

    def mark_children_volatile(self) -> None:
        """Declare that which children this span has depends on the
        host schedule; :meth:`structure` then stops at this span."""
        self.volatile_children = True

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def structure(self) -> tuple:
        """The deterministic projection: names, structural attrs,
        nesting — no timestamps, no thread ids, nothing volatile.  Equal
        between any two runs of the same work, alone or beside
        concurrent queries (the tests' determinism contract)."""
        children = () if self.volatile_children else tuple(
            child.structure() for child in self.children
        )
        return (self.name, tuple(sorted(self.attrs.items())), children)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.seconds * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """The shared do-nothing span the null tracer yields."""

    __slots__ = ()

    name = ""
    attrs: dict[str, Any] = {}
    children: list = []
    t0 = t1 = 0.0
    seconds = 0.0

    def set(self, **attrs: Any) -> None:
        pass

    def set_volatile(self, **attrs: Any) -> None:
        pass

    def mark_children_volatile(self) -> None:
        pass


class _NullContext:
    """A reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The off-switch: every operation is a shared no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer:
    """Records a forest of spans with per-thread nesting."""

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Open a child of the current thread's innermost span (a new
        root when the thread has none)."""
        stack = self._stack()
        sp = Span(name=name, attrs=attrs, tid=threading.get_ident())
        if stack:
            stack[-1].children.append(sp)
        else:
            with self._lock:
                self.roots.append(sp)
        stack.append(sp)
        sp.t0 = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            # Which attempt a fault, deadline or cancel interrupts is
            # host-schedule state: volatile, never in structure().
            sp.set_volatile(error=type(exc).__name__)
            raise
        finally:
            sp.t1 = time.perf_counter()
            stack.pop()

    # -- reading -----------------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every recorded span, roots first, depth-first."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name."""
        return [sp for sp in self.walk() if sp.name == name]

    def __repr__(self) -> str:
        return f"Tracer({len(self.roots)} roots)"


# -- the ambient tracer ------------------------------------------------------

_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the shared :data:`NULL_TRACER` when off)."""
    return _active


def enabled() -> bool:
    """True when a real tracer is collecting spans."""
    return _active.enabled


def start(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the active tracer.  Idempotent when one is
    already active and no explicit tracer is given."""
    global _active
    if tracer is not None:
        _active = tracer
    elif not _active.enabled:
        _active = Tracer()
    return _active  # type: ignore[return-value]


def stop() -> Tracer | NullTracer:
    """Deactivate tracing; returns the tracer that was collecting."""
    global _active
    previous = _active
    _active = NULL_TRACER
    return previous


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Scope-bound tracing: activate for a block, restore after::

        with obs.tracing() as tracer:
            machine.run(plan)
        export.write_chrome_trace(tracer, "out.json")
    """
    global _active
    previous = _active
    _active = tracer if tracer is not None else Tracer()
    try:
        yield _active
    finally:
        _active = previous


def span(name: str, **attrs: Any):
    """``with obs.span("compile", ops=6) as sp: ...`` on the active
    tracer (free when tracing is off)."""
    return _active.span(name, **attrs)
