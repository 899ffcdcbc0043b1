"""The paper's processor library.

One class per processor type: the comparison processor (Fig 3-2), the
accumulation processor (§4.2), the programmable θ-join comparator
(§6.3.2), the three division-array processors (§7), and the delay
latch.
"""

from repro.systolic.cells.accumulator import AccumulationCell
from repro.systolic.cells.comparator import ComparisonCell
from repro.systolic.cells.dynamic import DynamicThetaCell
from repro.systolic.cells.division import (
    DividendGateCell,
    DividendMatchCell,
    DivisorCell,
)
from repro.systolic.cells.theta import ThetaCell
from repro.systolic.cells.util import LatchCell

__all__ = [
    "AccumulationCell",
    "ComparisonCell",
    "DividendGateCell",
    "DividendMatchCell",
    "DivisorCell",
    "DynamicThetaCell",
    "LatchCell",
    "ThetaCell",
]
