"""Morton clustering for the columnar relation store.

A relation's clustered columns are each cut by a **scale** — sorted
split points at quantiles of the column's values — into cells, as in
Nievergelt/Hinterberger/Sevcik's grid file (via *Using Grid Files for a
Relational Database Management System*).  :func:`cluster_order` sorts
the rows by the Morton (z-order) interleaving of their cell
coordinates before the store cuts them into chunks: each chunk then
covers a compact blob of cells, so its per-column (min, max) zone map
is narrow on *every* clustered column, not just the first sort key,
and a selection on any of them skips the chunks whose zones exclude it.
The grid itself is not stored: the zone maps are the only pruning
structure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import StoreError

__all__ = ["build_scales", "cell_coords", "cluster_order", "sorted_scales"]

#: Longest scale :func:`cell_coords` counts rather than binary-searches:
#: one comparison pass a split point beats ``np.searchsorted`` on
#: unsorted values up to about 30 points.
_COUNTED_SPLITS = 16

#: Unsigned dtypes a z-order key can take, narrowest first: numpy's
#: stable argsort is a radix sort on keys of 16 bits or fewer.
_KEY_DTYPES = tuple(np.dtype(f"u{size}") for size in (1, 2, 4, 8))


def build_scales(
    values: np.ndarray, cells: int
) -> tuple[int, ...]:
    """Split points cutting ``values`` into ≈``cells`` equal-count cells.

    Scales are strictly increasing value boundaries; a value ``v`` lands
    in cell ``bisect_right(scales, v)``, so ``k`` split points make
    ``k + 1`` cells.  Quantile placement keeps cells balanced under any
    value distribution, and duplicate boundaries collapse (a heavily
    repeated value simply owns its cell).
    """
    return sorted_scales(np.sort(values) if cells > 1 else values, cells)


def sorted_scales(ordered: np.ndarray, cells: int) -> tuple[int, ...]:
    """:func:`build_scales` of values already in ascending order: the
    store's writer sorts every column once, to count its distinct
    values, and cuts a clustered column's scales from that sort."""
    if cells < 1:
        raise StoreError(f"a grid axis needs >= 1 cells, got {cells}")
    if cells == 1 or len(ordered) == 0:
        return ()
    positions = [
        (len(ordered) * i) // cells for i in range(1, cells)
    ]
    splits = sorted({int(ordered[p]) for p in positions})
    return tuple(splits)


def cell_coords(
    columns: Sequence[np.ndarray], scales: Sequence[Sequence[int]]
) -> np.ndarray:
    """Per-row grid-cell coordinates (n × ndims) for clustered columns.

    A value's cell, ``bisect_right(scale, v)``, is the number of split
    points at or below it.  A scale of up to ``_COUNTED_SPLITS`` points
    (the store's grids have ≈ (4·chunks)^(1/ndims) cells an axis) is
    counted with one comparison pass per point; a longer one is
    binary-searched.  The matrix is Fortran-ordered: each axis's
    coordinates are one contiguous column.
    """
    coords = np.zeros((len(columns), len(columns[0])), dtype=np.int64)
    for cells, values, axis in zip(coords, columns, scales):
        if len(axis) <= _COUNTED_SPLITS:
            for split in axis:
                cells += values >= split
        else:
            cells[:] = np.searchsorted(
                np.asarray(axis, dtype=np.int64), values, side="right"
            )
    return coords.T


def cluster_order(coords: np.ndarray) -> np.ndarray:
    """A stable row order sorting by Morton-interleaved cell coordinates.

    Interleaving the coordinate bits (z-order) keeps rows from the same
    and neighbouring cells adjacent in *every* clustered dimension, so
    chunk boundaries cut the grid into compact blobs instead of slabs
    along the first axis only.  Only as many bits as the largest
    coordinate has are interleaved, into the narrowest unsigned key
    that holds them; the sort is stable, so the width does not change
    the order.
    """
    if coords.ndim != 2:
        raise StoreError("cluster_order expects an (n, ndims) array")
    n, ndims = coords.shape
    if n == 0 or ndims == 0:
        return np.arange(n)
    bits = int(coords.max()).bit_length()
    if bits * ndims > 64:
        raise StoreError(
            f"cannot interleave {ndims} coordinates of {bits} bits into "
            f"one 64-bit z-order key"
        )
    dtype = next(d for d in _KEY_DTYPES if d.itemsize * 8 >= bits * ndims)
    key = np.zeros(n, dtype=dtype)
    for d in range(ndims):
        axis = coords[:, d].astype(dtype)
        for bit in range(bits):
            key |= ((axis >> dtype.type(bit)) & dtype.type(1)) << (
                dtype.type(bit * ndims + d)
            )
    return np.argsort(key, kind="stable")
