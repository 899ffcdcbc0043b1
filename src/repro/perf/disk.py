"""The moving-head-disk model of §8 and the array-vs-disk comparison.

§8 closes with a bandwidth argument: "a moving-head disk rotates at
about 3600 r.p.m., or about once every 17ms.  Assume that we can read
an entire cylinder in one revolution ... a rate of about 500,000 bytes
in 17ms.  In a comparable period of time, our systolic array can
process (for example, can intersect) two relations, each of about
2 million bytes."  Experiment E9 reproduces the full comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ReproError
from repro.perf.predictions import RelationProfile, intersection_time_seconds
from repro.perf.technology import TechnologyModel

__all__ = [
    "DiskModel",
    "PAPER_DISK",
    "disk_sweep",
    "largest_intersectable_relation_bytes",
]


@dataclass(frozen=True)
class DiskModel:
    """A §8-style disk: rotation speed and per-cylinder capacity."""

    rpm: float = 3600.0
    cylinder_bytes: int = 500_000

    def __post_init__(self) -> None:
        if self.rpm <= 0 or self.cylinder_bytes < 1:
            raise ReproError(f"invalid disk parameters: {self}")

    @property
    def revolution_seconds(self) -> float:
        """One revolution: 60/3600 s ≈ 16.7 ms (the paper rounds to 17)."""
        return 60.0 / self.rpm

    @property
    def bytes_per_second(self) -> float:
        """Sustained cylinder-read rate."""
        return self.cylinder_bytes / self.revolution_seconds

    def cylinders(self, nbytes: float) -> int:
        """Cylinders ``nbytes`` fill, which is also the revolutions a
        read of them alone takes."""
        if nbytes < 0:
            raise ReproError(f"negative read size: {nbytes}")
        return math.ceil(nbytes / self.cylinder_bytes)

    def read_seconds(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` at whole-revolution granularity."""
        return self.cylinders(nbytes) * self.revolution_seconds


def disk_sweep(
    disk_free: float, release: float, seconds: Iterable[float]
) -> tuple[float, float]:
    """The ``(start, end)`` window of one disk sweep; the disk is next
    free at ``end``.

    §8 reads "an entire cylinder in one revolution", so the loads of one
    release time whose relations lie on one cylinder are one sweep: the
    disk reads them together, in the slot the first of them would have
    had alone.  ``seconds`` are the members' bills read alone.  Each
    member lies within the cylinder, so none bills more than the one
    revolution the sweep takes, and the sweep lasts as long as its
    longest member.  A load on no shared cylinder is a sweep of one and
    is billed its own read.  The sweep starts once the disk is free and
    its loads are released.
    """
    start = max(disk_free, release)
    return start, start + max(seconds, default=0.0)


#: The disk §8 describes.
PAPER_DISK = DiskModel()


def largest_intersectable_relation_bytes(
    technology: TechnologyModel,
    window_seconds: float,
    tuple_bits: int = 1500,
) -> float:
    """Largest per-relation size (bytes) intersectable within a window.

    Intersecting two n-tuple relations needs ``tuple_bits · n²`` bit
    comparisons; solving ``time(n) = window`` for ``n`` and converting
    to bytes gives the paper's "about 2 million bytes" claim when the
    window is a handful of disk revolutions.
    """
    if window_seconds <= 0:
        raise ReproError(f"window must be positive, got {window_seconds}")
    budget = technology.comparisons_per_second * window_seconds
    n = math.floor(math.sqrt(budget / tuple_bits))
    return RelationProfile(tuple_bits=tuple_bits, cardinality=n).total_bytes


def intersect_vs_read_report(
    technology: TechnologyModel,
    disk: DiskModel = PAPER_DISK,
    relation_bytes: float = 2_000_000,
    tuple_bits: int = 1500,
) -> dict[str, float]:
    """The E9 comparison: read time vs intersect time for one relation size.

    Returns a dict with the disk revolution time, the time to read one
    relation of ``relation_bytes``, and the time to intersect two such
    relations on the array.
    """
    cardinality = int(relation_bytes / (tuple_bits / 8))
    profile = RelationProfile(tuple_bits=tuple_bits, cardinality=cardinality)
    return {
        "revolution_seconds": disk.revolution_seconds,
        "read_seconds": disk.read_seconds(relation_bytes),
        "intersect_seconds": intersection_time_seconds(technology, profile),
        "relation_bytes": float(relation_bytes),
        "cardinality": float(cardinality),
    }
