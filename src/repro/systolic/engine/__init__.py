"""Pluggable execution engines for the paper's systolic arrays.

The split: a *plan* (:mod:`~repro.systolic.engine.plan`) says what an
array computes — operands, timing discipline, taps — and an *engine*
says how.  Three ship:

* ``"pulse"`` — :class:`PulseEngine`, the cycle-accurate reference:
  every latch of the paper's design, advanced pulse by pulse as numpy
  register planes;
  what leaves the array comes back as one :class:`ColumnarTap` table
  per tapped edge.
* ``"lattice"`` — :class:`LatticeEngine`, the same schedule arithmetic
  evaluated as bulk numpy wavefronts; bit-identical outputs, orders of
  magnitude faster on large relations.
* ``"bitplane"`` — :class:`BitplaneEngine`, the §8 word→bit design
  executed as packed ``uint64`` bitplane sweeps; bit-identical outputs
  again, and the only engine whose work unit is §8's bit comparator.

``resolve_backend`` turns the user-facing ``backend=`` argument (a
name, ``None``, or an engine instance) into an engine; ``None`` means
the process default — :data:`DEFAULT_BACKEND` unless the
``REPRO_BACKEND`` environment variable picks another registered name.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import env_choice
from repro.errors import SimulationError
from repro.systolic.engine.hexmesh import (
    BOOLEAN_SEMIRING,
    COMPARISON_SEMIRING,
    Semiring,
)
from repro.systolic.engine.bitplane import BitplaneEngine
from repro.systolic.engine.lattice import DEFAULT_CHUNK_BYTES, LatticeEngine
from repro.systolic.engine.plan import (
    BlockedPlan,
    ColumnarTap,
    DivisionPlan,
    Engine,
    EngineRun,
    ExecutionPlan,
    GridPlan,
    HexPlan,
    TInit,
    t_init_at,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine.pulse import PulseEngine
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    DivisionSchedule,
    FixedRelationSchedule,
)

__all__ = [
    "Engine",
    "EngineRun",
    "ExecutionPlan",
    "GridPlan",
    "BlockedPlan",
    "DivisionPlan",
    "HexPlan",
    "TInit",
    "t_init_true",
    "t_init_strict_lower",
    "t_init_at",
    "ColumnarTap",
    "DEFAULT_CHUNK_BYTES",
    "CounterStreamSchedule",
    "FixedRelationSchedule",
    "DivisionSchedule",
    "Semiring",
    "COMPARISON_SEMIRING",
    "BOOLEAN_SEMIRING",
    "PulseEngine",
    "LatticeEngine",
    "BitplaneEngine",
    "ENGINES",
    "DEFAULT_BACKEND",
    "default_backend",
    "resolve_backend",
]

#: Registered engine names → constructors.
ENGINES: dict[str, type] = {
    "pulse": PulseEngine,
    "lattice": LatticeEngine,
    "bitplane": BitplaneEngine,
}

DEFAULT_BACKEND = "pulse"

BackendSpec = Union[str, Engine, None]


def default_backend() -> str:
    """The process-wide default engine name.

    :data:`DEFAULT_BACKEND` unless the ``REPRO_BACKEND`` environment
    variable selects another registered engine
    (:class:`~repro.errors.ConfigError` on an unknown name, matching
    every other ``REPRO_*`` knob).
    """
    return env_choice("REPRO_BACKEND", DEFAULT_BACKEND, tuple(ENGINES))


def resolve_backend(backend: BackendSpec = None) -> Engine:
    """Resolve a ``backend=`` argument to an engine instance.

    Accepts an engine name from :data:`ENGINES`, ``None`` (meaning
    :func:`default_backend` — ``REPRO_BACKEND`` or
    :data:`DEFAULT_BACKEND`), or any object with a ``run`` method
    (a caller-supplied engine, passed through untouched).
    """
    if backend is None:
        backend = default_backend()
    if isinstance(backend, str):
        try:
            return ENGINES[backend]()
        except KeyError:
            raise SimulationError(
                f"unknown backend {backend!r}; available: {sorted(ENGINES)}"
            ) from None
    if hasattr(backend, "run"):
        return backend
    raise SimulationError(
        f"backend must be an engine name or an Engine instance, "
        f"got {type(backend).__name__}"
    )
