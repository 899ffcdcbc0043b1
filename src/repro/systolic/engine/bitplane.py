"""The bitplane engine: §8's bit-level arrays as packed-plane sweeps.

The third backend.  The pulse engine simulates the paper's cells token
by token; the lattice engine evaluates the word-level comparators as
bulk numpy wavefronts; this engine evaluates the **bit-level** design
(§8's word→bit transformation, :mod:`repro.bitlevel`) the same bulk
way: every element is its MSB-first bit expansion, every bit position
one packed ``uint64`` plane (:mod:`repro.bitlevel.planes`), and one
``np.bitwise_*`` sweep per plane replaces ``width`` columns of bit
comparators —

* equality as the XOR/OR-reduce over all ``arity × width`` planes;
* magnitude (``<``, ``<=``, ``>``, ``>=``, ``!=``) as the
  :class:`~repro.bitlevel.cells.MagnitudeChain`'s EQ/GT/LT state
  rippled MSB-first across whole planes at once;
* the division array's gating as two packed equality matrices.

All observable outputs — tap tables, pulse stamps, ghost tags — are
the word-level plan's, reconstructed through
the shared :class:`~repro.systolic.engine.lattice.LatticeEngine`
schedule arithmetic; only the comparator kernels differ, so the run is
bit-identical to the other engines (the equivalence harness enforces
it).  Signed elements are translated by the common minimum before
packing, which preserves equality and order exactly (see
:mod:`repro.bitlevel.planes`).

The hexagonal mesh (whose operands may be any values its boolean
semiring compares, not bit-encodable words) falls back to the inherited
lattice walk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bitlevel.planes import (
    PLANE_BITS,
    equal_runs,
    equality_planes,
    magnitude_planes,
    pack_planes,
    plane_equal_matrix,
    plane_op,
    plane_shift_width,
    unpack_bits,
)
from repro.obs import metrics
from repro.systolic.engine.lattice import LatticeEngine

__all__ = ["BitplaneEngine"]


#: ``chunk × n_words``-word ``uint64`` planes a chunk holds at once: the
#: ripple's eq / gt / lt and its two temporaries, a column's verdict,
#: the AND across columns, and the row-major copy the unpack reads.
_STATE_PLANES = 8


class BitplaneEngine(LatticeEngine):
    """Bit-level execution of the same plans, one packed plane a sweep.

    ``chunk_bytes`` bounds what a chunk of A-rows holds at once beside
    the verdict matrix — its unpacked verdict lanes, its state planes
    and its bits — sharing the lattice engine's default and
    ``REPRO_LATTICE_CHUNK_BYTES`` override.
    """

    name = "bitplane"

    # -- the rectangular grid: packed-plane comparator kernels ---------------

    def _verdict_matrix(
        self, A: np.ndarray, B: np.ndarray, ops: Optional[tuple[str, ...]]
    ) -> np.ndarray:
        (n_a, m), n_b = A.shape, B.shape[0]
        (A_s, B_s), width = plane_shift_width(A, B)
        b_planes = pack_planes(B_s, width)
        n_words = b_planes.shape[2]
        V = np.empty((n_a, n_b), dtype=bool)
        # A row of A holds a byte per verdict lane, its share of the
        # state planes, and its m words' bits a byte each (unpacked,
        # then reordered MSB-first).
        row_bytes = (n_words * (PLANE_BITS + 8 * _STATE_PLANES)
                     + 2 * PLANE_BITS * m)
        chunk = max(1, self.chunk_bytes // row_bytes)
        equality = all(op == "==" for op in ops or ())
        for lo in range(0, n_a, chunk):
            hi = min(n_a, lo + chunk)
            if equality:
                packed = equality_planes(A_s[lo:hi], b_planes, width)
            else:
                packed = None
                for k, op in enumerate(ops):
                    eq, gt, lt = magnitude_planes(
                        A_s[lo:hi, k], b_planes[k], width
                    )
                    col = plane_op(op)(eq, gt, lt)
                    if packed is None:
                        packed = col
                    else:
                        packed &= col
            V[lo:hi] = unpack_bits(packed, n_b)
        # Every plane is swept once against all of A, however A is
        # chunked.
        metrics.inc("engine.bitplane_planes", m * width)
        return V

    # -- the vector t_i: runs of equal rows, decided plane-wise ---------------

    #: The dense kernel packs B and sweeps every plane even for a few
    #: rows, so ranking wins from small operands.
    _RANK_MIN_ROWS = 16

    def _ranked_membership(
        self, A: np.ndarray, B: np.ndarray, strict: bool
    ) -> np.ndarray:
        """``t_i`` from runs of equal rows of A∪B: ordered by their
        packed bits, neighbours compared by the XOR/OR-reduce over
        shifted planes (:func:`~repro.bitlevel.planes.equal_runs`).  A
        row of A is a member iff its run holds a row of B — under
        ``strict``, one whose index ``j`` (the smallest in the run) is
        below ``i``."""
        n_a, n_b = len(A), len(B)
        (both,), width = plane_shift_width(np.concatenate((A, B)))
        order, starts = equal_runs(both, width)
        metrics.inc("engine.bitplane_planes", A.shape[1] * width)
        # The smallest B index of each run; n_a + n_b (above every i
        # and j) where it holds none.
        first_b = np.minimum.reduceat(
            np.where(order >= n_a, order - n_a, n_a + n_b),
            np.flatnonzero(starts),
        )
        run = np.empty(n_a + n_b, dtype=np.int64)
        run[order] = np.cumsum(starts) - 1
        limit = np.arange(n_a) if strict else n_b
        return first_b[run[:n_a]] < limit

    # -- the division array: gating as packed equality matrices --------------

    def _division_bits(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        divisor: np.ndarray,
        distinct: np.ndarray,
    ) -> np.ndarray:
        d_vals = np.unique(divisor)
        # Row r's gate fires for pair q iff xs[q] == distinct[r]; the
        # gated y covers divisor value d iff ys[q] == d — both equality
        # matrices evaluated plane-wise.
        gates, w_x = plane_equal_matrix(xs, distinct)
        covers, w_y = plane_equal_matrix(ys, d_vals)
        metrics.inc("engine.bitplane_planes", w_x + w_y)
        if d_vals.size == 0 or xs.size == 0:
            return np.zeros(distinct.shape[0], dtype=bool)
        covered = (
            gates.T.astype(np.int64) @ covers.astype(np.int64)
        ) > 0
        return covered.all(axis=1)

    def __repr__(self) -> str:
        return f"BitplaneEngine(chunk_bytes={self.chunk_bytes})"
