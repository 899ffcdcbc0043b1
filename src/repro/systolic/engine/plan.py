"""Execution plans: what an array computes, separated from how.

A plan captures the *geometry and schedule* of one array run — the
operand tuples, the timing discipline, the taps to read — with no
commitment to pulse-by-pulse simulation.  An
:class:`Engine` turns a plan into an :class:`EngineRun`:

* :class:`~repro.systolic.engine.pulse.PulseEngine` steps the array
  pulse by pulse — as numpy register planes
  (:mod:`~repro.systolic.engine.registers`), or, for the hexagonal
  mesh, as the materialized cell network under the
  :class:`~repro.systolic.simulator.SystolicSimulator`;
* :class:`~repro.systolic.engine.lattice.LatticeEngine` evaluates the
  same schedule arithmetic as bulk anti-diagonal wavefronts.

Both produce bit-identical tap tables and pulse counts; the
differential harness in ``tests/systolic/test_engine_equivalence.py``
is the contract.  An engine only computes: to watch cells and latches
(a trace, busy counts), build the cell network
(:func:`~repro.systolic.engine.materialize.materialize`) and drive it
with a :class:`~repro.systolic.simulator.SystolicSimulator` observer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics
from repro.systolic.engine.hexmesh import (
    Semiring,
    hex_horizon,
    hex_positions,
    hex_tap_name,
    meeting_cell,
)
from repro.systolic.engine.schedule import (
    BlockSpanLaw,
    CounterStreamSchedule,
    DivisionSchedule,
    FixedRelationSchedule,
    block_bounds,
    block_span_law,
)
from repro.systolic.values import Token

__all__ = [
    "TInit",
    "t_init_true",
    "t_init_strict_lower",
    "t_init_at",
    "ColumnarTap",
    "tables_of",
    "GridPlan",
    "BlockedPlan",
    "REDUCTIONS",
    "DivisionPlan",
    "HexPlan",
    "ExecutionPlan",
    "run_attrs",
    "count_runs",
    "EngineRun",
    "Engine",
    "check_tuples",
    "operand_matrix",
    "cmp_name",
    "acc_name",
]

#: Chooses the initial t fed for pair (i, j): TRUE everywhere for
#: intersection, lower-triangle-only for remove-duplicates (§5).
TInit = Callable[[int, int], bool]


def _true_lattice_mask(
    n_a: int, n_b: int, a_lo: int = 0, b_lo: int = 0
) -> Optional[np.ndarray]:
    return None  # all-true: nothing to mask


def _strict_lower_lattice_mask(
    n_a: int, n_b: int, a_lo: int = 0, b_lo: int = 0
) -> Optional[np.ndarray]:
    return np.arange(b_lo, b_lo + n_b, dtype=np.int64)[None, :] < np.arange(
        a_lo, a_lo + n_a, dtype=np.int64
    )[:, None]


def t_init_true(i: int, j: int) -> bool:
    """TRUE everywhere — the intersection/membership seed (§4)."""
    return True


def t_init_strict_lower(i: int, j: int) -> bool:
    """TRUE only below the diagonal — remove-duplicates' mask (§5)."""
    return j < i


# Canonical t_init callables expose their whole-grid boolean mask so the
# lattice engine can apply them as one broadcast instead of calling the
# function n_a × n_b times.  ``lattice_mask(n_a, n_b, a_lo=0, b_lo=0)``
# returns the mask of the ``n_a × n_b`` window whose corner is pair
# ``(a_lo, b_lo)`` — a bool matrix, or ``None`` when nothing needs
# masking; the pulse engine ignores the attribute and just calls the
# function per pair.
t_init_true.lattice_mask = _true_lattice_mask  # type: ignore[attr-defined]
t_init_strict_lower.lattice_mask = _strict_lower_lattice_mask  # type: ignore[attr-defined]


def t_init_at(t_init: TInit, a_lo: int, b_lo: int) -> TInit:
    """``t_init`` as one block of a decomposed problem sees it (§8).

    The block's pair ``(i, j)`` is the whole problem's pair
    ``(a_lo + i, b_lo + j)``.  A canonical ``t_init`` keeps its
    ``lattice_mask`` (windowed to the block), so blocked runs stay on
    the lattice engine's broadcast path.
    """

    def shifted(i: int, j: int) -> bool:
        return t_init(a_lo + i, b_lo + j)

    mask = getattr(t_init, "lattice_mask", None)
    if mask is not None:
        shifted.lattice_mask = (  # type: ignore[attr-defined]
            lambda n_a, n_b, lo_a=0, lo_b=0: mask(
                n_a, n_b, a_lo + lo_a, b_lo + lo_b
            )
        )
    return shifted


def cmp_name(row: int, col: int) -> str:
    """Canonical name of the comparator at grid position (row, col)."""
    return f"cmp[{row},{col}]"


def acc_name(row: int) -> str:
    """Canonical name of the accumulation processor beside ``row``."""
    return f"acc[{row}]"


def check_tuples(
    tuples: Sequence[Sequence[int]], expected_n: int, arity: int, label: str
) -> None:
    """Validate operand shape against the schedule's expectations."""
    if isinstance(tuples, np.ndarray) and tuples.ndim == 2:
        if tuples.shape != (expected_n, arity):
            raise SimulationError(
                f"relation {label} is a {tuples.shape[0]}×{tuples.shape[1]} "
                f"array but the schedule expects {expected_n}×{arity}"
            )
        return
    if len(tuples) != expected_n:
        raise SimulationError(
            f"relation {label} has {len(tuples)} tuples but the schedule "
            f"expects {expected_n}"
        )
    for row_values in tuples:
        if len(row_values) != arity:
            raise SimulationError(
                f"relation {label} tuple {tuple(row_values)!r} has arity "
                f"{len(row_values)}, expected {arity}"
            )


def operand_matrix(
    rows, n: int, m: int, engine: str, label: str
) -> np.ndarray:
    """A plan operand as the ``(n, m)`` int64 matrix the vectorized
    engines step; only the cell network streams anything else."""
    try:
        return np.asarray(rows, dtype=np.int64).reshape(n, m)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SimulationError(
            f"the {engine} engine needs integer-encoded {label} elements "
            f"(see §2.3 domain encoding): {exc}"
        ) from None


@dataclass
class GridPlan:
    """One run of the rectangular comparison/join grid (Figs 3-3, 4-1, 6-1).

    The schedule instance selects the geometry variant:
    :class:`CounterStreamSchedule` is the figures' counter-streaming
    design, :class:`FixedRelationSchedule` the §8 preloaded-B variant.

    Exactly one of ``t_init`` (comparison grid: travelling partial
    results injected at the left edge) or ``ops`` (join grid: θ-cells
    originate their own t at column 0) must be given.  ``dynamic_ops``
    streams the op codes down the columns alongside relation A
    (§6.3.2) instead of preloading them — same answers, different
    hardware programmability story.

    Operands are rows of integer-encoded elements: sequences of tuples,
    or ``(n, arity)`` int64 arrays (what the blocked operators slice
    per block, so no run repacks tuples).
    """

    a_tuples: Sequence[Sequence[int]]
    b_tuples: Sequence[Sequence[int]]
    schedule: Union[CounterStreamSchedule, FixedRelationSchedule]
    t_init: Optional[TInit] = None
    ops: Optional[tuple[str, ...]] = None
    dynamic_ops: bool = False
    accumulate: bool = False
    row_taps: bool = False
    tagged: bool = False
    name: str = "grid-array"

    def __post_init__(self) -> None:
        check_tuples(self.a_tuples, self.schedule.n_a, self.schedule.arity, "A")
        check_tuples(self.b_tuples, self.schedule.n_b, self.schedule.arity, "B")
        if (self.t_init is None) == (self.ops is None):
            raise SimulationError(
                "a grid plan needs exactly one of t_init (comparison grid) "
                "or ops (join grid)"
            )
        if self.ops is not None and len(self.ops) != self.schedule.arity:
            raise SimulationError(
                f"need one operator per column: {len(self.ops)} ops for "
                f"arity {self.schedule.arity}"
            )
        if self.dynamic_ops:
            if self.ops is None:
                raise SimulationError("dynamic_ops requires ops")
            if self.variant != "counter":
                raise SimulationError(
                    "op streaming is defined for the counter-streaming "
                    "grid only"
                )
        if not (self.accumulate or self.row_taps):
            raise SimulationError(
                "a grid plan with no accumulator and no row taps computes "
                "nothing observable"
            )

    @property
    def variant(self) -> str:
        """``"counter"`` or ``"fixed"``, from the schedule type."""
        if isinstance(self.schedule, CounterStreamSchedule):
            return "counter"
        return "fixed"

    @property
    def rows(self) -> int:
        return self.schedule.rows

    @property
    def cols(self) -> int:
        return self.schedule.arity

    @property
    def pulses(self) -> int:
        """Run length: through the accumulator when one is attached."""
        if self.accumulate:
            return self.schedule.total_pulses
        return self.schedule.comparison_pulses

    @property
    def cells(self) -> int:
        return self.rows * self.cols + (self.rows if self.accumulate else 0)

    def tap_names(self) -> list[str]:
        """Every tap the run produces (possibly with no records)."""
        names: list[str] = []
        if self.row_taps:
            names.extend(f"t_row[{row}]" for row in range(self.rows))
        if self.accumulate:
            names.append("t_i")
        return names


#: What a blocked operator keeps of ``T``: ``"rows"`` — the vector
#: ``t_i = OR_j t_ij`` (equation 4.1); ``"pairs"`` — the TRUE ``(i, j)``
#: in lexicographic order (§6.2's retrieval list); ``"matrix"`` — all
#: of ``T``.
REDUCTIONS = ("rows", "pairs", "matrix")


@dataclass
class BlockedPlan:
    """A whole comparison or join on a device too small for it (§8).

    "One can simply partition this matrix [T] into sub-problems small
    enough to fit on the array": the operands are the *whole* column
    matrices, ``tuple_block`` / ``max_cols`` say what the device holds
    (tuples a side, element columns), and :meth:`blocks` is the
    partition — one :class:`GridPlan` per (A-block, B-block, column
    block), the partial results of the column blocks ANDed "outside the
    systolic arrays" (§9).  Everything countable about it — block
    counts, total pulses — is closed-form
    (:func:`~repro.systolic.engine.schedule.block_span_law`), and so is
    every verdict, which is what lets a vectorized engine execute the
    whole plan in one run instead of one run per block.

    Exactly one of ``ops`` (join grid: one θ-operator per column) or
    ``t_init`` (comparison grid: the seed of pair ``(i, j)``, *global*
    indices, fed on the first column block only — ANDing propagates
    it) must be given.  ``reduce`` names what the operator reads back
    (:data:`REDUCTIONS`); the run's ``verdicts`` hold exactly that, so
    only ``"matrix"`` ever materializes ``n_a × n_b`` values.
    """

    a_tuples: np.ndarray
    b_tuples: np.ndarray
    tuple_block: int
    max_cols: int
    reduce: str
    t_init: Optional[TInit] = None
    ops: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for label, matrix in (("A", self.a_tuples), ("B", self.b_tuples)):
            if not isinstance(matrix, np.ndarray) or matrix.ndim != 2:
                raise SimulationError(
                    f"a blocked plan takes relation {label} as an "
                    f"(n, arity) array"
                )
        if self.b_tuples.shape[1] != self.arity:
            raise SimulationError(
                f"relation B is a {self.n_b}×{self.b_tuples.shape[1]} "
                f"array but relation A has arity {self.arity}"
            )
        if (self.t_init is None) == (self.ops is None):
            raise SimulationError(
                "a blocked plan needs exactly one of t_init (comparison "
                "grid) or ops (join grid)"
            )
        if self.ops is not None and len(self.ops) != self.arity:
            raise SimulationError(
                f"need one operator per column: {len(self.ops)} ops for "
                f"arity {self.arity}"
            )
        if self.reduce not in REDUCTIONS:
            raise SimulationError(
                f"unknown reduction {self.reduce!r}; have {REDUCTIONS}"
            )
        self.law  # validates the sizes

    @property
    def n_a(self) -> int:
        return self.a_tuples.shape[0]

    @property
    def n_b(self) -> int:
        return self.b_tuples.shape[0]

    @property
    def arity(self) -> int:
        return self.a_tuples.shape[1]

    @cached_property
    def law(self) -> BlockSpanLaw:
        """The decomposition in closed form."""
        return block_span_law(
            self.n_a, self.n_b, self.arity, self.tuple_block, self.max_cols
        )

    @property
    def a_blocks(self) -> int:
        return self.law.a_blocks

    @property
    def b_blocks(self) -> int:
        return self.law.b_blocks

    @property
    def column_blocks(self) -> int:
        return self.law.column_blocks

    @property
    def block_runs(self) -> int:
        return self.law.block_runs

    @property
    def pulses(self) -> int:
        """Total over every block run."""
        return self.law.pulses

    @property
    def cells(self) -> int:
        """The device's busy corner: the first (largest) block's grid."""
        return self.law.first.rows * self.law.first.arity

    def tap_names(self) -> list[str]:
        """None: taps belong to the block runs, not to the whole."""
        return []

    def blocks(self) -> Iterator[tuple[int, int, int, GridPlan]]:
        """The partition: ``(a_lo, b_lo, c_lo, plan)`` per sub-problem,
        A-blocks outermost and column blocks innermost, each plan the
        whole-array operator's on a slice of the operands."""
        column_bounds = block_bounds(self.arity, self.max_cols)
        b_bounds = block_bounds(self.n_b, self.tuple_block)
        for a_lo, a_hi in block_bounds(self.n_a, self.tuple_block):
            for b_lo, b_hi in b_bounds:
                for c_lo, c_hi in column_bounds:
                    schedule = CounterStreamSchedule(
                        n_a=a_hi - a_lo, n_b=b_hi - b_lo, arity=c_hi - c_lo
                    )
                    if self.ops is not None:
                        grid = dict(
                            ops=self.ops[c_lo:c_hi], name="join-array"
                        )
                    else:
                        grid = dict(
                            t_init=t_init_at(self.t_init, a_lo, b_lo)
                            if c_lo == 0 else t_init_true,
                            name="comparison-array",
                        )
                    yield a_lo, b_lo, c_lo, GridPlan(
                        self.a_tuples[a_lo:a_hi, c_lo:c_hi],
                        self.b_tuples[b_lo:b_hi, c_lo:c_hi],
                        schedule, row_taps=True, **grid,
                    )


@dataclass
class DivisionPlan:
    """One run of the Fig 7-2 division array (§7)."""

    pairs: Sequence[tuple[int, int]]
    distinct_x: Sequence[int]
    divisor: Sequence[int]
    tagged: bool = False

    def __post_init__(self) -> None:
        self.schedule  # validates non-emptiness

    @property
    def schedule(self) -> DivisionSchedule:
        return DivisionSchedule(
            n_pairs=len(self.pairs),
            p_rows=len(self.distinct_x),
            n_divisor=len(self.divisor),
        )

    @property
    def pulses(self) -> int:
        return self.schedule.total_pulses

    @property
    def cells(self) -> int:
        return len(self.distinct_x) * (2 + len(self.divisor))

    def tap_names(self) -> list[str]:
        return [f"and_row[{row}]" for row in range(len(self.distinct_x))]


@dataclass
class HexPlan:
    """One semiring matrix product on the hexagonal mesh (§2.1, [5]),
    over a boolean semiring (its ``c`` values leave through tap tables,
    which hold bools)."""

    a_rows: Sequence[Sequence[Any]]
    b_cols: Sequence[Sequence[Any]]
    semiring: Semiring
    tagged: bool = True

    def __post_init__(self) -> None:
        if not self.a_rows or not self.b_cols:
            raise SimulationError("the hex array needs non-empty operands")
        m = len(self.a_rows[0])
        if m == 0 or any(len(r) != m for r in self.a_rows) or any(
            len(r) != m for r in self.b_cols
        ):
            raise SimulationError(
                "operands must share a positive inner dimension"
            )
        if type(self.semiring.identity) is not bool:
            raise SimulationError(
                f"semiring {self.semiring.name!r} has identity "
                f"{self.semiring.identity!r}, not a bool: a run's tap "
                f"tables hold bools, so the hex array computes over a "
                f"boolean semiring such as COMPARISON_SEMIRING or "
                f"BOOLEAN_SEMIRING"
            )

    @property
    def n_a(self) -> int:
        return len(self.a_rows)

    @property
    def n_b(self) -> int:
        return len(self.b_cols)

    @property
    def inner(self) -> int:
        return len(self.a_rows[0])

    @property
    def pulses(self) -> int:
        return hex_horizon(self.n_a, self.n_b, self.inner) + 1

    @property
    def cells(self) -> int:
        return len(hex_positions(self.n_a, self.n_b, self.inner))

    def tap_names(self) -> list[str]:
        names: list[str] = []
        seen: set[tuple[int, int]] = set()
        for i in range(self.n_a):
            for j in range(self.n_b):
                pos = meeting_cell(i, j, self.inner - 1)
                if pos not in seen:
                    seen.add(pos)
                    names.append(hex_tap_name(pos))
        return names


ExecutionPlan = Union[GridPlan, BlockedPlan, DivisionPlan, HexPlan]


def run_attrs(plan: ExecutionPlan) -> dict[str, Any]:
    """What an engine's ``engine.run`` span says about the plan; a
    blocked plan's one span stands for ``blocks`` array runs."""
    attrs = dict(
        plan=type(plan).__name__, pulses=plan.pulses, cells=plan.cells
    )
    if isinstance(plan, BlockedPlan):
        attrs["blocks"] = plan.block_runs
    return attrs


def count_runs(plan: ExecutionPlan) -> None:
    """Count an executed plan's array runs in ``engine.runs`` and
    ``engine.run.pulses`` — for a blocked plan every block run it stands
    for, computed from the block-span law rather than looped."""
    if not metrics.enabled:
        return
    if isinstance(plan, BlockedPlan):
        sizes = [
            (schedule.comparison_pulses, count)
            for schedule, count in plan.law.spans
        ]
    else:
        sizes = [(plan.pulses, 1)]
    for pulses, count in sizes:
        metrics.inc("engine.runs", count)
        metrics.observe("engine.run.pulses", pulses, count)


@dataclass
class ColumnarTap:
    """What left one tapped edge, as bulk arrays: the Token-free form of
    a run's output.

    One table per tapped edge of the array — a grid's row outputs
    (``"t_row"``), its accumulation column (``"t_i"``), the division
    array's row outputs (``"and_row"``), a hex mesh cell's ``"c@x,y"``.
    ``pulses[k]`` is the exit pulse of the ``k``-th record, ``values[k]``
    its payload and ``positions[k]`` the edge position it left at; the
    records of one position are in pulse order.  An edge of ``width``
    positions is the taps ``name[0]`` … ``name[width - 1]`` (empty ones
    included); an edge that is a single tap (``t_i``, ``c@x,y``) has
    ``width`` and ``positions`` None.  Ghost tags are kept columnar
    too: ``tag_kind`` names the tag family (``"t"``, ``"acc"``,
    ``"and"``, ``"c"``) and ``tag_indices`` holds one index array per
    tag slot, so ``("t", i, j)`` is two arrays.  There is no Token form:
    the decoders of :mod:`repro.arrays.decode` read a table whole.
    """

    name: str
    pulses: np.ndarray
    values: np.ndarray
    tag_kind: Optional[str] = None
    tag_indices: tuple[np.ndarray, ...] = ()
    positions: Optional[np.ndarray] = None
    width: Optional[int] = None

    def __len__(self) -> int:
        return int(self.pulses.size)


#: A tap that is one position of an edge: ``t_row[3]`` is ``t_row``'s 3.
_EDGE_TAP = re.compile(r"(\w+)\[(\d+)\]")


def tables_of(
    records: Mapping[str, Iterable[tuple[int, Token]]]
) -> dict[str, ColumnarTap]:
    """Token records keyed by tap name — a cell network's collectors —
    as the run's tap tables.

    The taps ``edge[0]``, ``edge[1]``, … become one table of ``width``
    positions (empty taps included); any other tap (``t_i``, a hex
    mesh's ``c@x,y``) is a table of its own.  Each tap's records go
    in pulse order.  Nothing is coerced: a payload that is not a bool,
    or a tag outside the table's one ghost-tag family (same kind, same
    length, integer indices), is refused naming the tap.
    """
    edges: dict[str, dict[Optional[int], str]] = {}
    for name in records:
        match = _EDGE_TAP.fullmatch(name)
        edge, position = (match[1], int(match[2])) if match else (name, None)
        edges.setdefault(edge, {})[position] = name
    tables = {}
    for edge, taps in edges.items():
        width = None if None in taps else max(taps) + 1
        pulses, values, positions, tags = [], [], [], []
        family = None
        for position in [None] if width is None else sorted(taps):
            name = taps[position]
            for pulse, token in sorted(records[name], key=itemgetter(0)):
                value, tag = token.value, token.tag
                if type(value) is not bool:
                    raise SimulationError(
                        f"tap {name!r} carries payload {value!r}, not a bool"
                    )
                if tag is not None and not (
                    isinstance(tag, tuple) and tag
                    and isinstance(tag[0], str)
                    and all(type(index) is int for index in tag[1:])
                ):
                    raise SimulationError(
                        f"tap {name!r} carries {tag!r}, not a ghost tag"
                    )
                shape = None if tag is None else (tag[0], len(tag))
                if not pulses:
                    family = shape
                elif shape != family:
                    raise SimulationError(
                        f"tap {name!r} carries tag {tag!r} outside its "
                        f"edge's ghost-tag family (kind, length) {family!r}"
                    )
                pulses.append(pulse)
                values.append(value)
                positions.append(position)
                tags.append(() if tag is None else tag[1:])
        tables[edge] = ColumnarTap(
            edge, np.array(pulses, dtype=np.int64),
            np.array(values, dtype=bool), family and family[0],
            tuple(np.array(tags, dtype=np.int64).T) if family else (),
            positions=None if width is None
            else np.array(positions, dtype=np.int64),
            width=width,
        )
    return tables


class EngineRun:
    """What executing a plan produced, independent of the engine used.

    The vectorized engines hand back the array's *result* — ``verdicts``:
    the ``(n_a, n_b)`` bool matrix ``T`` (after ``t_init``) of a grid
    run with row taps, the ``(n_a,)`` bool vector ``t_i = OR_j t_ij`` of
    an accumulate-only grid (only that vector leaves the accumulation
    column, eq. 4.1, so ``T`` is never built whole), the quotient-bit
    vector of a division run — and keep the taps as a **lazy view**:
    ``tap_view`` derives the run's tap tables (one pulse-stamped
    :class:`ColumnarTap` per tapped edge) from the verdicts and the
    schedule's affine forms the first time :attr:`columnar` or
    :meth:`table` is touched.  The pulse engine has no verdicts — its
    result exists only as what left the taps: the tables its register
    stepper captured, or, when the run stepped the cell network (the
    hexagonal mesh), that network's Token records turned into tables by
    :func:`tables_of`.  Tables are the only format a run holds, and
    the decoders of :mod:`repro.arrays.decode` read each one whole.

    The run of a :class:`BlockedPlan` is the exception on every engine:
    it stands for many array runs, so it has no taps of its own,
    ``pulses`` is their total, and ``verdicts`` holds what the plan's
    ``reduce`` keeps of ``T`` (read it with
    :func:`repro.arrays.decode.blocked_verdicts`).
    """

    def __init__(
        self,
        engine: str,
        pulses: int,
        cells: int,
        tap_view: Callable[[], dict[str, ColumnarTap]],
        peak_firing: Optional[int] = None,
        verdicts: Optional[np.ndarray] = None,
    ) -> None:
        self.engine = engine
        self.pulses = pulses
        self.cells = cells
        #: peak number of hex cells firing on one pulse (HexPlan runs only)
        self.peak_firing = peak_firing
        #: the run's result as the engine computed it (None on a pulse
        #: run of one array, whose result exists only as tap tables).
        self.verdicts = verdicts
        self._tap_view = tap_view
        self._columnar: Optional[dict[str, ColumnarTap]] = None

    @property
    def columnar(self) -> dict[str, ColumnarTap]:
        """The tap tables by edge name, derived on first touch."""
        if self._columnar is None:
            self._columnar = self._tap_view()
        return self._columnar

    def table(self, edge: str) -> Optional[ColumnarTap]:
        """The tap table of ``edge`` (``"t_row"``, ``"t_i"``,
        ``"and_row"``, ``"c@x,y"``), or None when the run has no such
        edge."""
        return self.columnar.get(edge)

    def __repr__(self) -> str:
        taps = (
            "taps=lazy" if self._columnar is None
            else f"tables={len(self._columnar)} columnar"
        )
        return (
            f"EngineRun(engine={self.engine!r}, pulses={self.pulses}, "
            f"cells={self.cells}, {taps})"
        )


@runtime_checkable
class Engine(Protocol):
    """An execution backend: turns plans into runs.

    Implementations must honour the schedule arithmetic exactly — the
    equivalence harness asserts tap tables (pulse stamps, values,
    ghost tags) and pulse counts match the pulse-level reference.
    """

    name: str

    def run(self, plan: ExecutionPlan) -> EngineRun:
        """Execute ``plan`` and return its observable outcome."""
        ...
