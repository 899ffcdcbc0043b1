"""The lattice engine: whole anti-diagonal wavefronts as bulk numpy ops.

The pulse simulator moves every token one cell per pulse; this engine
observes that the *schedule arithmetic is closed-form* — for any pair
``(i, j)`` the meeting row, exit pulse, and travelling-``t`` value are
known without simulating — and evaluates entire wavefronts of meetings
as vectorized numpy operations.  A grid or division run returns its
**verdicts** — the matrix ``T`` (§3.3), the quotient bits (§7) — as the
primary product; the tap observables are a lazy view over them
(:class:`~repro.systolic.engine.plan.EngineRun`), built only when a
consumer asks.  When it does, all observable outputs are reconstructed
exactly:

* **tap tables** — one per tapped edge, with the same positions, pulse
  stamps, bool payloads and ghost tags as the pulse engine's;
* **pulse counts** — the plan's schedule-derived run length.

The engine only computes: a trace or a busy count of a grid or
division run is taken on its cell network
(:func:`~repro.systolic.engine.materialize.materialize` under a
:class:`~repro.systolic.simulator.SystolicSimulator` observer).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.config import env_int
from repro.errors import SimulationError
from repro.obs import metrics
from repro.relational.relation import _packed_key
from repro.systolic.engine.hexmesh import U_C, c_start
from repro.systolic.engine.plan import (
    BlockedPlan,
    ColumnarTap,
    DivisionPlan,
    EngineRun,
    ExecutionPlan,
    GridPlan,
    HexPlan,
    TInit,
    count_runs,
    operand_matrix,
    run_attrs,
    t_init_strict_lower,
    t_init_true,
)

__all__ = ["LatticeEngine", "DEFAULT_CHUNK_BYTES"]

#: Default bound on the comparison intermediate (``chunk × n_b × m``
#: int64 elements), overridable per engine or via the
#: ``REPRO_LATTICE_CHUNK_BYTES`` environment variable.
DEFAULT_CHUNK_BYTES = 16_000_000

#: Compared elements (``n_a · n_b · m``) from which an all-equality
#: block is compared as one packed key a row.  Packing A∪B costs
#: ``(n_a + n_b) · m`` work the column sweeps do not pay: square blocks
#: break even near 2¹⁴ elements, tall thin ones (n_a ≫ n_b) nearer
#: 2¹⁵, and from 2¹⁵ up the packed kernel wins on every shape of the
#: grid in docs/PERF.md.
_PACK_MIN_ELEMENTS = 1 << 15

#: Comparison op code → numpy ufunc, matching
#: :data:`repro.relational.algebra.COMPARISON_OPS` element-wise.
_OP_UFUNCS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _op_ufunc(op: str):
    try:
        return _OP_UFUNCS[op]
    except KeyError:
        raise SimulationError(
            f"unknown comparison operator {op!r}; have {sorted(_OP_UFUNCS)}"
        ) from None


def _apply_t_init(
    V: np.ndarray, t_init: TInit, a_lo: int = 0, b_lo: int = 0
) -> None:
    """AND the initial ``t`` into ``V``, the verdicts of the window of
    pairs whose corner is ``(a_lo, b_lo)``."""
    rows, cols = V.shape
    mask_fn = getattr(t_init, "lattice_mask", None)
    if mask_fn is not None:
        # Canonical t_init: one whole-window broadcast mask.
        mask = mask_fn(rows, cols, a_lo, b_lo)
        if mask is not None:
            V &= mask
    else:
        for i in range(rows):
            V[i] &= np.fromiter(
                (bool(t_init(a_lo + i, b_lo + j)) for j in range(cols)),
                bool, cols,
            )


class LatticeEngine:
    """Bulk wavefront execution of the same plans the simulator runs.

    ``chunk_bytes`` bounds the transient comparison intermediate (the
    broadcast ``chunk × n_b × m`` element block); it defaults to
    :data:`DEFAULT_CHUNK_BYTES` and can also be set process-wide with
    the ``REPRO_LATTICE_CHUNK_BYTES`` environment variable.
    """

    name = "lattice"

    #: The membership crossover (:meth:`_ranks`): ranking stable-sorts
    #: B's keys and searches A's, which the packed-key compare beats on
    #: small operands.
    _RANK_MIN_ROWS = 128

    def __init__(self, chunk_bytes: Optional[int] = None) -> None:
        if chunk_bytes is None:
            chunk_bytes = env_int(
                "REPRO_LATTICE_CHUNK_BYTES", DEFAULT_CHUNK_BYTES, minimum=1
            )
        if chunk_bytes < 1:
            raise SimulationError(
                f"chunk_bytes must be >= 1, got {chunk_bytes}"
            )
        self.chunk_bytes = chunk_bytes

    def run(self, plan: ExecutionPlan) -> EngineRun:
        with obs.span("engine.run", engine=self.name, **run_attrs(plan)):
            if isinstance(plan, GridPlan):
                run = self._run_grid(plan)
            elif isinstance(plan, BlockedPlan):
                run = self._run_blocked(plan)
            elif isinstance(plan, DivisionPlan):
                run = self._run_division(plan)
            elif isinstance(plan, HexPlan):
                run = self._run_hex(plan)
            else:
                raise SimulationError(
                    f"unknown plan type {type(plan).__name__}"
                )
        count_runs(plan)
        return run

    def __repr__(self) -> str:
        return f"LatticeEngine(chunk_bytes={self.chunk_bytes})"

    # -- the rectangular grid (Figs 3-3, 4-1, 6-1) -------------------------

    def _run_grid(self, plan: GridPlan) -> EngineRun:
        sched = plan.schedule
        n_a, n_b, m = sched.n_a, sched.n_b, sched.arity
        A = operand_matrix(plan.a_tuples, n_a, m, self.name, "A")
        B = operand_matrix(plan.b_tuples, n_b, m, self.name, "B")

        if plan.row_taps:
            verdicts = self._verdict_matrix(A, B, plan.ops)
            if plan.t_init is not None:
                _apply_t_init(verdicts, plan.t_init)
        else:
            # Only t_i leaves an accumulate-only array (eq. 4.1).
            verdicts = self._membership(A, B, plan.t_init, plan.ops)

        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            verdicts=verdicts,
            tap_view=lambda: self._grid_taps(plan, verdicts),
        )

    def _grid_taps(
        self, plan: GridPlan, verdicts: np.ndarray
    ) -> dict[str, ColumnarTap]:
        """The run's tap tables, derived from its verdicts: ``T`` when
        the plan has row taps, else the vector ``t_i``."""
        if not plan.row_taps:
            return {"t_i": self._accumulator_tap(plan, verdicts)}
        taps = {"t_row": self._row_taps(plan, verdicts)}
        if plan.accumulate:
            taps["t_i"] = self._accumulator_tap(plan, verdicts.any(axis=1))
        return taps

    def _chunk_rows(self, n_b: int, m: int) -> int:
        """Rows of A whose comparison against all of B stays within
        ``chunk_bytes`` (counted as ``n_b × m`` int64 elements a row)."""
        return max(1, self.chunk_bytes // max(1, 8 * n_b * m))

    def _band_rows(self, n_b: int, m: int, block: int) -> int:
        """A band of A compared in one kernel call: whole multiples of
        ``block`` rows (never less than one), within ``chunk_bytes``."""
        return block * max(1, self._chunk_rows(n_b, m) // block)

    # -- the vector t_i: membership without T --------------------------------

    def _membership(
        self,
        A: np.ndarray,
        B: np.ndarray,
        t_init: Optional[TInit],
        ops: Optional[tuple[str, ...]] = None,
        block: int = 1,
    ) -> np.ndarray:
        """``t_i = OR_j t_ij`` (equation 4.1) for every row of A, as a
        bool vector; ``T`` itself is never held whole.

        Under the canonical seeds (``t_init_true``, ``t_init_strict_lower``
        — an identity check, so any other callable stays dense) with
        equality throughout, ``t_i`` is a function of row equality alone,
        and on shapes past the engine's crossover (:meth:`_ranks`) it is
        computed from row ranks in O((n_a + n_b) log n)
        (:meth:`_ranked_membership`).  Otherwise bands of
        :meth:`_band_rows` rows are compared by :meth:`_verdict_matrix`,
        seeded, and ORed into the vector as they are produced."""
        (n_a, m), n_b = A.shape, B.shape[0]
        strict = t_init is t_init_strict_lower
        if (strict or t_init is t_init_true) and self._ranks(n_a, n_b):
            return self._ranked_membership(A, B, strict=strict)
        t = np.empty(n_a, dtype=bool)
        band = self._band_rows(n_b, m, block)
        for lo in range(0, n_a, band):
            V = self._verdict_matrix(A[lo:lo + band], B, ops)
            if t_init is not None:
                _apply_t_init(V, t_init, a_lo=lo)
            V.any(axis=1, out=t[lo:lo + len(V)])
            del V  # freed before the next band is compared
        return t

    def _ranks(self, n_a: int, n_b: int) -> bool:
        """Whether an ``n_a × n_b`` membership is cheaper ranked than
        compared — the crossover fitted on the grid in docs/PERF.md
        ("The membership kernel"), from the shape alone: at least
        ``_RANK_MIN_ROWS`` rows a side."""
        return min(n_a, n_b) >= self._RANK_MIN_ROWS

    def _ranked_membership(
        self, A: np.ndarray, B: np.ndarray, strict: bool
    ) -> np.ndarray:
        """``t_i`` from row ranks: one key per row of A∪B — the packed
        key when the columns' joint span fits 63 bits, else the row's
        rank among A∪B's distinct byte strings — then B's keys
        stable-argsorted (equal keys keep ascending ``j``) and A's
        searched into them from the left.  ``t_i`` holds iff the
        leftmost equal key exists and, under ``strict`` (§5's strictly
        lower seed), its ``j`` is below ``i``."""
        n_a, n_b = len(A), len(B)
        both = np.concatenate((A, B))
        keys = _packed_key(both)
        if keys is None:
            row = np.dtype((np.void, both.itemsize * both.shape[1]))
            keys = np.unique(both.view(row).ravel(), return_inverse=True)[1]
        a_keys, b_keys = keys[:n_a], keys[n_a:]
        order = np.argsort(b_keys, kind="stable")
        ordered = b_keys[order]
        at = np.minimum(np.searchsorted(ordered, a_keys), n_b - 1)
        limit = np.arange(n_a) if strict else n_b
        return (ordered[at] == a_keys) & (order[at] < limit)

    def _verdict_matrix(
        self, A: np.ndarray, B: np.ndarray, ops: Optional[tuple[str, ...]]
    ) -> np.ndarray:
        """``V[i, j]`` = the comparison verdict pair ``(i, j)`` exits
        with (before ``t_init``) — column ``k`` compared under
        ``ops[k]``, equality throughout when ``ops`` is None —
        evaluated in bulk, row-chunked so the transient comparison
        block stays within ``chunk_bytes``.  The word-level comparator
        kernel; subclasses substitute their own.

        §3.3's tuple comparator is the AND of ``m`` element
        comparators; when all of them test equality and the block is
        large enough, that AND is one comparison of packed row keys
        (:func:`~repro.relational.relation._packed_key` over A∪B, a
        byte or two a row where the span allows)."""
        (n_a, m), n_b = A.shape, B.shape[0]
        compare = [_op_ufunc(op) for op in ops or ("==",) * m]
        keys = None
        if (all(ufunc is np.equal for ufunc in compare)
                and n_a * n_b * m >= _PACK_MIN_ELEMENTS):
            keys = _packed_key(np.concatenate((A, B)))
        V = np.empty((n_a, n_b), dtype=bool)
        chunk = self._chunk_rows(n_b, m)
        for lo in range(0, n_a, chunk):
            metrics.inc("engine.lattice.chunks")
            hi = min(n_a, lo + chunk)
            rows = V[lo:hi]
            if keys is not None:
                np.equal(keys[lo:hi, None], keys[None, n_a:], out=rows)
                continue
            # One processor column at a time, ANDed left to right as
            # the travelling t is.
            compare[0](A[lo:hi, 0, None], B[None, :, 0], out=rows)
            for k in range(1, m):
                rows &= compare[k](A[lo:hi, k, None], B[None, :, k])
        return V

    def _row_taps(self, plan: GridPlan, V: np.ndarray) -> ColumnarTap:
        """The ``t_row`` table at once: the schedule's meeting rows and
        exit pulses are affine in (i, j).  In ``(i, j)`` order a row's
        pairs leave in pulse order, so the table needs no sort."""
        sched = plan.schedule
        n_a, n_b = sched.n_a, sched.n_b
        shape = (n_a, n_b)
        I = np.arange(n_a, dtype=np.int64)[:, None]
        J = np.arange(n_b, dtype=np.int64)[None, :]
        if plan.variant == "counter":
            rows = sched.meeting_row(I, J)
            exits = sched.mid + I + J + (sched.arity - 1)
        else:
            rows = np.broadcast_to(J, shape)
            exits = I + J + (sched.arity - 1)

        def flat(column: np.ndarray) -> np.ndarray:
            return np.broadcast_to(column, shape).ravel()

        return ColumnarTap(
            name="t_row",
            pulses=flat(exits),
            values=V.ravel(),
            tag_kind="t" if plan.tagged else None,
            tag_indices=(flat(I), flat(J)) if plan.tagged else (),
            positions=flat(rows),
            width=sched.rows,
        )

    def _accumulator_tap(self, plan: GridPlan, t: np.ndarray) -> ColumnarTap:
        """The ``t_i`` table in bulk, stamping the vector ``t``: exit
        pulses are affine in i (slope 2 counter-streaming, slope 1
        fixed-relation)."""
        sched = plan.schedule
        step = 2 if plan.variant == "counter" else 1
        i = np.arange(sched.n_a, dtype=np.int64)
        return ColumnarTap(
            name="t_i",
            pulses=step * i + (sched.arity + sched.rows - 1),
            values=t,
            tag_kind="acc" if plan.tagged else None,
            tag_indices=(i,) if plan.tagged else (),
        )

    # -- the grid decomposed over a bounded device (§8) ----------------------

    def _run_blocked(self, plan: BlockedPlan) -> EngineRun:
        """Every block run of the plan at once.

        A block's verdicts are closed-form like any grid's, ANDing
        column blocks is comparing all the columns, and laying B-blocks
        side by side is comparing against all of B — so a band of whole
        A-blocks against all of B *is* those blocks' results, and the
        pulses they would take are the plan's block-span law.  Bands
        are whole multiples of the law's ``band_unit`` — A-blocks
        counter-streaming, single tuples of the one A stream on the
        fixed-relation variant — sized by ``chunk_bytes``
        (:meth:`_band_rows`) and reduced as they are produced, so what
        is held at once is one band of ``T`` plus what the plan keeps
        of it.  ``"rows"`` is
        :meth:`_membership`, which may rank instead of comparing.
        """
        # The reduction is the decode seam's (what operators read);
        # repro.arrays imports this package, hence at call time.
        from repro.arrays.decode import Reduction

        n_a, n_b, m = plan.n_a, plan.n_b, plan.arity
        A = operand_matrix(plan.a_tuples, n_a, m, self.name, "A")
        B = operand_matrix(plan.b_tuples, n_b, m, self.name, "B")
        if plan.reduce == "rows":
            verdicts = self._membership(
                A, B, plan.t_init, plan.ops, block=plan.law.band_unit
            )
        else:
            band = self._band_rows(n_b, m, plan.law.band_unit)
            reduction = Reduction(plan)
            for lo in range(0, n_a, band):
                V = self._verdict_matrix(A[lo:lo + band], B, plan.ops)
                if plan.t_init is not None:
                    _apply_t_init(V, plan.t_init, a_lo=lo)
                reduction.add(lo, V)
                del V  # freed before the next band is compared
            verdicts = reduction.verdicts()
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            verdicts=verdicts, tap_view=dict,
        )

    # -- the division array (Fig 7-2) --------------------------------------

    def _run_division(self, plan: DivisionPlan) -> EngineRun:
        pairs = operand_matrix(
            plan.pairs, len(plan.pairs), 2, self.name, "dividend"
        )
        divisor = np.asarray(plan.divisor, dtype=np.int64)
        distinct = np.asarray(plan.distinct_x, dtype=np.int64)

        bits = self._division_bits(pairs[:, 0], pairs[:, 1], divisor, distinct)
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            verdicts=bits,
            tap_view=lambda: self._division_taps(plan, bits),
        )

    def _division_taps(
        self, plan: DivisionPlan, bits: np.ndarray
    ) -> dict[str, ColumnarTap]:
        """The ``and_row`` table: one quotient bit a dividend row,
        stamped by the §7 result law."""
        sched = plan.schedule
        p_rows = sched.p_rows
        rows = np.arange(p_rows, dtype=np.int64)
        pulses = (sched.n_pairs + 2 + (p_rows - 1 - rows)
                  + sched.n_divisor - 1)
        return {"and_row": ColumnarTap(
            name="and_row",
            pulses=pulses,
            values=bits,
            tag_kind="and" if plan.tagged else None,
            tag_indices=(rows,) if plan.tagged else (),
            positions=rows,
            width=p_rows,
        )}

    def _division_bits(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        divisor: np.ndarray,
        distinct: np.ndarray,
    ) -> np.ndarray:
        """Quotient bit of every dividend row, evaluated in bulk.

        Row ``r`` sees exactly the y values gated by its stored x; its
        quotient bit is "divisor ⊆ that set" — here: count the distinct
        divisor values each distinct x co-occurs with.  Subclasses
        substitute their own gating kernel."""
        d_vals = np.unique(divisor)
        u_vals, x_codes = np.unique(xs, return_inverse=True)
        y_pos = np.searchsorted(d_vals, ys).clip(0, d_vals.size - 1)
        gated = d_vals[y_pos] == ys
        codes = np.unique(x_codes[gated] * d_vals.size + y_pos[gated])
        counts = np.bincount(codes // d_vals.size, minlength=u_vals.size)
        u_bits = counts == d_vals.size
        # Map each dividend row's stored x onto its unique-x slot; a
        # stored x that never streams past gates nothing (bit FALSE).
        row_pos = np.searchsorted(u_vals, distinct).clip(0, u_vals.size - 1)
        return (u_vals[row_pos] == distinct) & u_bits[row_pos]

    # -- the hexagonal mesh (§2.1, [5]) -------------------------------------

    def _run_hex(self, plan: HexPlan) -> EngineRun:
        n_a, n_b, m = plan.n_a, plan.n_b, plan.inner
        semiring = plan.semiring
        tap_of = {pos: tap for tap, pos in enumerate(plan.tapped)}
        records = []
        # Walk each c token down its U_C line: its value folds in one
        # (a, b) interaction per scheduled meeting (pulse i + j + k),
        # passes through every other cell unchanged, and a tap records
        # its c_out on every pulse it crosses a tapped cell — including
        # other pairs' final-meeting cells — until it leaves the mesh.
        for i in range(n_a):
            a_row = plan.a_rows[i]
            for j in range(n_b):
                b_col = plan.b_cols[j]
                value = semiring.identity
                pos = c_start(i, j)
                for p in range(plan.pulses):
                    if pos not in plan.positions:
                        break
                    k = p - (i + j)
                    if 0 <= k < m:
                        value = semiring.combine(
                            value, semiring.interact(a_row[k], b_col[k])
                        )
                    if pos in tap_of:
                        records.append((tap_of[pos], p, value, i, j))
                    pos = (pos[0] + U_C[0], pos[1] + U_C[1])
        # firing(p) = #{(i, j, k) : i + j + k = p} — a triple convolution.
        firing = np.convolve(
            np.convolve(np.ones(n_a, dtype=np.int64),
                        np.ones(n_b, dtype=np.int64)),
            np.ones(m, dtype=np.int64),
        )
        return EngineRun(
            engine=self.name, pulses=plan.pulses, cells=plan.cells,
            tap_view=lambda: plan.tables(*zip(*records)),
            peak_firing=int(firing.max()),
        )
