"""The paper's processor library.

One class per processor type: the comparison processor (Fig 3-2), the
accumulation processor (§4.2), the programmable θ-join comparator
(§6.3.2) in its preloaded and op-streaming forms, and the three
division-array processors (§7).
"""

from repro.systolic.cells.accumulator import AccumulationCell
from repro.systolic.cells.comparator import ComparisonCell
from repro.systolic.cells.division import (
    DividendGateCell,
    DividendMatchCell,
    DivisorCell,
)
from repro.systolic.cells.theta import DynamicThetaCell, ThetaCell

__all__ = [
    "AccumulationCell",
    "ComparisonCell",
    "DividendGateCell",
    "DividendMatchCell",
    "DivisorCell",
    "DynamicThetaCell",
    "ThetaCell",
]
