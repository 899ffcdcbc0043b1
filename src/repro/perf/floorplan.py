"""Chip floorplanning: area vs pin limits (§8).

§8's feasibility argument has two halves.  Area: ~1000 bit-comparators
fit on a 6000µ×6000µ chip.  Pins: "we can assume that none of the
comparators on a chip incurs delay due to pin limitations; since the
time for a comparison is large relative to off-chip transfer time
(<30ns), we can multiplex about 10 bits on a pin during a single
comparison."

This module makes both constraints explicit.  A word-level array of
``rows × cols`` processors is partitioned row-wise across chips.  Each
chip must fit its share of bit-comparators (area) *and* stream its
per-pulse boundary traffic through the package (pins): vertical word
streams cross the top and bottom edges of every chip slice, horizontal
result bits cross left and right.  The planner reports how many chips
the array needs and which constraint binds — the trade §8 gestures at
when it multiplexes pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CapacityError, ReproError
from repro.perf.technology import TechnologyModel

__all__ = ["ChipPackage", "ArrayFloorplan", "plan_array", "plan_system"]


@dataclass(frozen=True)
class ChipPackage:
    """One chip's physical budget: comparator area and package pins."""

    technology: TechnologyModel
    pins: int = 120  # a large 1980 package
    power_ground_pins: int = 8

    def __post_init__(self) -> None:
        if self.pins <= self.power_ground_pins:
            raise ReproError(
                f"package must have signal pins: {self.pins} total, "
                f"{self.power_ground_pins} power/ground"
            )

    @property
    def signal_pins(self) -> int:
        """Pins available for data after power and ground."""
        return self.pins - self.power_ground_pins

    @property
    def comparators(self) -> int:
        """Bit-comparators fitting on one chip (§8: about 1000)."""
        return self.technology.comparators_per_chip

    @property
    def bits_per_pin(self) -> int:
        """§8's multiplexing factor (about 10)."""
        return max(1, self.technology.bits_per_pin_multiplex)

    @property
    def boundary_bits_per_pulse(self) -> int:
        """Bits the package can move per comparison window."""
        return self.signal_pins * self.bits_per_pin


@dataclass(frozen=True)
class ArrayFloorplan:
    """How one operator array maps onto chips."""

    rows: int
    cols: int
    element_bits: int
    chips: int
    rows_per_chip: int
    area_limited: bool
    pin_limited: bool

    @property
    def bit_comparators(self) -> int:
        """Total §8 area units for the array."""
        return self.rows * self.cols * self.element_bits

    def __repr__(self) -> str:
        binding = (
            "area" if self.area_limited else
            "pins" if self.pin_limited else "one chip"
        )
        return (
            f"ArrayFloorplan({self.rows}×{self.cols} @ {self.element_bits}b "
            f"-> {self.chips} chips, {binding}-limited)"
        )


def plan_array(
    rows: int,
    cols: int,
    package: ChipPackage,
    element_bits: int = 32,
) -> ArrayFloorplan:
    """Partition a ``rows × cols`` word array across chips, row-wise."""
    if rows < 1 or cols < 1 or element_bits < 1:
        raise ReproError(
            f"array geometry must be positive: {rows}×{cols} @ {element_bits}b"
        )
    # Area bound: rows per chip from the comparator budget.
    row_area_bits = cols * element_bits
    rows_by_area = package.comparators // row_area_bits
    if rows_by_area < 1:
        raise CapacityError(
            f"one array row needs {row_area_bits} bit-comparators but a "
            f"chip holds only {package.comparators}; narrow the array or "
            f"grow the chip"
        )
    # Pin bound: largest slice whose boundary traffic fits the package.
    budget = package.boundary_bits_per_pulse
    fixed = 2 * cols * element_bits
    if fixed > budget:
        raise CapacityError(
            f"the vertical streams alone need {fixed} boundary bits/pulse "
            f"but the package moves only {budget}; more multiplexing or "
            f"fewer columns per chip required"
        )
    rows_by_pins = (budget - fixed) // 2
    if rows_by_pins < 1:
        raise CapacityError(
            f"no pin budget left for result bits after the vertical "
            f"streams ({fixed} of {budget} bits/pulse)"
        )
    rows_per_chip = min(rows_by_area, rows_by_pins, rows)
    chips = math.ceil(rows / rows_per_chip)
    return ArrayFloorplan(
        rows=rows,
        cols=cols,
        element_bits=element_bits,
        chips=chips,
        rows_per_chip=rows_per_chip,
        area_limited=chips > 1 and rows_by_area <= rows_by_pins,
        pin_limited=chips > 1 and rows_by_pins < rows_by_area,
    )


def plan_system(
    arrays: list[tuple[str, int, int]],
    package: ChipPackage,
    element_bits: int = 32,
) -> dict[str, ArrayFloorplan]:
    """Floorplan several operator arrays; returns name → plan.

    The §9 machine hosts one array per operator box (intersect, join,
    divide...); this sizes the whole device complement.
    """
    plans: dict[str, ArrayFloorplan] = {}
    for name, rows, cols in arrays:
        if name in plans:
            raise ReproError(f"duplicate array name {name!r}")
        plans[name] = plan_array(rows, cols, package, element_bits)
    return plans
