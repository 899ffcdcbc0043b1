"""The paper's operator arrays, built on the systolic substrate.

One module per array: linear tuple comparison (Fig 3-1), the 2-D
comparison array (Fig 3-3), intersection/difference (Fig 4-1),
remove-duplicates + union + projection (§5), join in all its variants
(Fig 6-1, §6.3), division (Fig 7-2), plus the §8 machinery: feeding
schedules, the fixed-relation variant, and blocked decomposition for
problems larger than the device.

Every operator takes ``backend=`` — ``"pulse"`` (default, the
cycle-accurate register stepper), ``"lattice"`` (vectorized wavefront
evaluation) or ``"bitplane"`` (§8's bit-level design on packed planes),
all with bit-identical outputs; see :mod:`repro.systolic.engine`.
"""

from repro.arrays.base import ArrayRun, execute
from repro.arrays.comparison_array import (
    ComparisonMatrixResult,
    build_comparison_array,
    compare_all_pairs,
)
from repro.arrays.decomposition import (
    ArrayCapacity,
    BlockedReport,
    blocked_difference,
    blocked_divide,
    blocked_intersection,
    blocked_join,
    blocked_pair_matrix,
    blocked_remove_duplicates,
    blocked_union,
)
from repro.arrays.division import (
    DivisionResult,
    DivisionSchedule,
    build_division_array,
    systolic_divide,
)
from repro.arrays.hexagonal import (
    BOOLEAN_SEMIRING,
    COMPARISON_SEMIRING,
    HexComparisonResult,
    Semiring,
    hex_compare_all_pairs,
    hex_matrix_product,
)
from repro.arrays.join import systolic_dynamic_theta_join
from repro.arrays.duplicates import (
    DedupResult,
    build_remove_duplicates_array,
    systolic_projection,
    systolic_remove_duplicates,
    systolic_union,
)
from repro.arrays.intersection import (
    MembershipResult,
    build_intersection_array,
    systolic_difference,
    systolic_intersection,
    systolic_membership_vector,
)
from repro.arrays.join import (
    JoinResult,
    build_join_array,
    systolic_join,
    systolic_theta_join,
)
from repro.arrays.linear_comparison import (
    LinearComparisonResult,
    compare_tuples,
)
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    FixedRelationSchedule,
)

__all__ = [
    "ArrayCapacity",
    "ArrayRun",
    "BOOLEAN_SEMIRING",
    "BlockedReport",
    "COMPARISON_SEMIRING",
    "HexComparisonResult",
    "Semiring",
    "ComparisonMatrixResult",
    "CounterStreamSchedule",
    "DedupResult",
    "DivisionResult",
    "DivisionSchedule",
    "FixedRelationSchedule",
    "JoinResult",
    "LinearComparisonResult",
    "MembershipResult",
    "blocked_difference",
    "blocked_divide",
    "blocked_intersection",
    "blocked_join",
    "blocked_pair_matrix",
    "blocked_remove_duplicates",
    "blocked_union",
    "build_comparison_array",
    "build_division_array",
    "build_intersection_array",
    "build_join_array",
    "build_remove_duplicates_array",
    "compare_all_pairs",
    "compare_tuples",
    "execute",
    "hex_compare_all_pairs",
    "hex_matrix_product",
    "systolic_difference",
    "systolic_divide",
    "systolic_dynamic_theta_join",
    "systolic_intersection",
    "systolic_join",
    "systolic_membership_vector",
    "systolic_projection",
    "systolic_remove_duplicates",
    "systolic_theta_join",
    "systolic_union",
]
