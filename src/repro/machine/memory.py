"""Memory modules of the integrated system (Fig 9-1 left column).

"Initially, the relevant relations are read from disks into memories
... The data is pipelined from the memories through the switch and
through the processor array.  The output of the array is pipelined back
into another memory."  Each module tracks what it holds (named
relations with byte sizes) and enforces its capacity; streaming-rate
limits are applied by the scheduler using the module's bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import CapacityError, PlanError
from repro.relational.relation import Relation

__all__ = [
    "DEFAULT_BANDWIDTH_BYTES_PER_S",
    "MemoryModule",
    "preloaded_free_bytes",
    "relation_bytes",
]

#: §8's disk-rate argument: the system must absorb ~500 KB / 17 ms per
#: stream, so that is what one module sustains.
DEFAULT_BANDWIDTH_BYTES_PER_S = 500_000 / 0.017


def relation_bytes(relation: Relation, element_bits: int = 32) -> int:
    """Stored size of a relation: n tuples × arity × element width."""
    if element_bits < 1:
        raise PlanError(f"element_bits must be >= 1, got {element_bits}")
    if len(relation) == 0:
        return 0
    return len(relation) * relation.arity * ((element_bits + 7) // 8)


def emptiest(free: Sequence[int], nbytes: int) -> Optional[int]:
    """Which of a machine's equal-sized memories (``free`` bytes each) a
    preload of ``nbytes`` goes to: the emptiest with room, the lower
    name on a tie; None when none has room."""
    return min(
        (m for m, room in enumerate(free) if room >= nbytes),
        key=lambda m: (-free[m], f"mem{m}"),
        default=None,
    )


def preloaded_free_bytes(
    preloaded: Iterable[tuple[str, Relation]],
    memories: int,
    memory_bytes: int,
    element_bits: int,
) -> tuple[int, ...]:
    """Each memory's free bytes in the fresh state of a run, the
    ``preloaded`` relations (a catalog's, in preload order) placed as
    :func:`~repro.machine.execution.fresh_state` places them: what the
    planner sizes a disk sweep against.  The count stops at a preload
    no memory can take (running then fails on it)."""
    free = [memory_bytes] * memories
    for _, relation in preloaded:
        nbytes = relation_bytes(relation, element_bits)
        index = emptiest(free, nbytes)
        if index is None:
            break
        free[index] -= nbytes
    return tuple(free)


@dataclass
class _Resident:
    relation: Relation
    nbytes: int


class MemoryModule:
    """One random-access memory module on the crossbar."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int = 4 * 1024 * 1024,
        bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S,
    ) -> None:
        if capacity_bytes < 1 or bandwidth_bytes_per_s <= 0:
            raise CapacityError(
                f"memory {name!r}: invalid capacity/bandwidth "
                f"({capacity_bytes}, {bandwidth_bytes_per_s})"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self._resident: dict[str, _Resident] = {}
        self._used_bytes = 0

    # -- contents ------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied (a running total of the residents)."""
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self.used_bytes

    def holds(self, key: str) -> bool:
        """Whether a named relation is resident here."""
        return key in self._resident

    def store(self, key: str, relation: Relation, nbytes: int) -> None:
        """Place a relation in this module."""
        if key in self._resident:
            raise PlanError(f"memory {self.name!r} already holds {key!r}")
        if nbytes > self.free_bytes:
            raise CapacityError(
                f"memory {self.name!r} cannot fit {key!r}: needs {nbytes} "
                f"bytes, {self.free_bytes} free"
            )
        self._resident[key] = _Resident(relation, nbytes)
        self._used_bytes += nbytes

    def load(self, key: str) -> Relation:
        """Fetch a resident relation."""
        try:
            return self._resident[key].relation
        except KeyError:
            raise PlanError(
                f"memory {self.name!r} does not hold {key!r}; "
                f"has {sorted(self._resident)}"
            ) from None

    def size_of(self, key: str) -> int:
        """Byte size of a resident relation."""
        try:
            return self._resident[key].nbytes
        except KeyError:
            raise PlanError(
                f"memory {self.name!r} does not hold {key!r}"
            ) from None

    def evict(self, key: str) -> None:
        """Drop a resident relation, freeing its space."""
        if key not in self._resident:
            raise PlanError(f"memory {self.name!r} does not hold {key!r}")
        self._used_bytes -= self._resident.pop(key).nbytes

    def transfer_seconds(self, nbytes: int) -> float:
        """Time to stream ``nbytes`` through this module's port."""
        if nbytes < 0:
            raise PlanError(f"negative transfer size: {nbytes}")
        return nbytes / self.bandwidth_bytes_per_s

    def __repr__(self) -> str:
        return (
            f"MemoryModule({self.name!r}, {self.used_bytes}/"
            f"{self.capacity_bytes} bytes, {len(self._resident)} relations)"
        )
