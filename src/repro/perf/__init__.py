"""The §8 technology and performance model.

Turns pulse counts and comparison counts into the paper's nanosecond /
chip-count arithmetic: the NMOS parameters, area model, intersection
timing predictions (the ~50 ms / ~10 ms figures), and the disk-rate
comparison.
"""

from repro.perf.area import ArrayAreaEstimate, estimate_array_area
from repro.perf.floorplan import (
    ArrayFloorplan,
    ChipPackage,
    plan_array,
    plan_system,
)
from repro.perf.cost import (
    OpCost,
    comparison_cost,
    division_cost,
    join_cost,
)
from repro.perf.disk import (
    DiskModel,
    PAPER_DISK,
    disk_sweep,
    intersect_vs_read_report,
    largest_intersectable_relation_bytes,
)
from repro.perf.predictions import (
    PAPER_WORKLOAD,
    RelationProfile,
    intersection_bit_comparisons,
    intersection_time_seconds,
    paper_aggressive_prediction,
    paper_conservative_prediction,
)
from repro.perf.technology import (
    PAPER_AGGRESSIVE,
    PAPER_CONSERVATIVE,
    TechnologyModel,
)

__all__ = [
    "ArrayAreaEstimate",
    "ArrayFloorplan",
    "ChipPackage",
    "DiskModel",
    "OpCost",
    "PAPER_AGGRESSIVE",
    "PAPER_CONSERVATIVE",
    "PAPER_DISK",
    "PAPER_WORKLOAD",
    "RelationProfile",
    "TechnologyModel",
    "comparison_cost",
    "disk_sweep",
    "division_cost",
    "estimate_array_area",
    "join_cost",
    "intersect_vs_read_report",
    "intersection_bit_comparisons",
    "intersection_time_seconds",
    "largest_intersectable_relation_bytes",
    "paper_aggressive_prediction",
    "paper_conservative_prediction",
    "plan_array",
    "plan_system",
]
