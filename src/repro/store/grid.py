"""Grid-file indexing for the columnar relation store.

Following Nievergelt/Hinterberger/Sevcik's grid file (via *Using Grid
Files for a Relational Database Management System*), a relation's value
space is cut by per-column **scales** — sorted split points — into a
grid of cells, and a **directory** maps each occupied cell to the set
of chunks holding tuples that fall in it.  A single-column comparison
predicate then resolves to a cell interval along that column's axis,
and the union of the interval's directory entries is a *superset* of
the chunks that can contain matches — every other chunk is pruned
without being read.

Pruning only bites when tuples near each other in grid space share
chunks, so :func:`cluster_order` sorts rows by the Morton (z-order)
interleaving of their cell coordinates before chunking: each chunk then
covers a compact blob of cells and *every* indexed column prunes, not
just the first sort key.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

from repro.errors import StoreError

__all__ = [
    "GridIndex", "build_scales", "cell_coords", "cluster_order",
    "sorted_scales",
]

#: Comparison operators the index can answer (a superset check; the
#: store re-applies the exact predicate on the surviving chunks).
_PRUNABLE_OPS = ("==", "<", "<=", ">", ">=")

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
    values, and cuts an indexed column's scales from that sort."""
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
    """Per-row grid-cell coordinates (n × ndims) for indexed columns.

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
    and neighbouring cells adjacent in *every* indexed dimension, so
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


class GridIndex:
    """Per-relation grid directory: cell coordinates → chunk ids."""

    def __init__(
        self,
        columns: Sequence[int],
        scales: Sequence[Sequence[int]],
        directory: dict[tuple[int, ...], tuple[int, ...]],
    ) -> None:
        if len(columns) != len(scales):
            raise StoreError(
                f"grid index needs one scale per column: "
                f"{len(columns)} columns, {len(scales)} scales"
            )
        self.columns = tuple(int(c) for c in columns)
        self.scales = tuple(tuple(int(s) for s in axis) for axis in scales)
        self.directory = {
            tuple(int(c) for c in cell): tuple(sorted(int(i) for i in ids))
            for cell, ids in directory.items()
        }

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        columns: Sequence[int],
        coords: np.ndarray,
        scales: Sequence[Sequence[int]],
        chunk_of_row: np.ndarray,
    ) -> "GridIndex":
        """Directory from per-row cell coordinates and chunk assignment.

        Each (cell, chunk) pair is read off the row where a run of rows
        sharing it starts.  The rows are expected in cluster order, as
        the store lays them out: a cell's rows are adjacent and chunk
        ids only grow, so every distinct pair starts exactly one run and
        the directory costs one comparison pass, no sort.  Rows in any
        other order give the same directory; a pair may then start
        several runs.
        """
        directory: dict[tuple[int, ...], set[int]] = {}
        n = len(coords)
        if n:
            # The bound the directory has always been held to: its cells
            # and chunks, as mixed-radix digits, number within 63 bits.
            radices = [int(axis.max()) + 1 for axis in coords.T]
            radices.append(int(chunk_of_row.max()) + 1)
            if math.prod(radices) > np.iinfo(np.int64).max:
                raise StoreError(
                    f"grid of {radices[:-1]} cells over {radices[-1]} "
                    f"chunks does not fit a 64-bit directory key"
                )
            starts = np.empty(n, dtype=bool)
            starts[0] = True
            np.not_equal(chunk_of_row[1:], chunk_of_row[:-1], out=starts[1:])
            for axis in coords.T:
                starts[1:] |= axis[1:] != axis[:-1]
            rows = np.flatnonzero(starts)
            for cell, chunk in zip(
                coords[rows].tolist(), chunk_of_row[rows].tolist()
            ):
                directory.setdefault(tuple(cell), set()).add(chunk)
        return cls(columns, scales, directory)

    # -- probing ------------------------------------------------------------

    def axis_of(self, position: int) -> Optional[int]:
        """The grid dimension indexing column ``position``, if any."""
        try:
            return self.columns.index(position)
        except ValueError:
            return None

    def candidate_chunks(
        self, position: int, op: str, value: int
    ) -> Optional[frozenset[int]]:
        """Chunk ids that *may* hold rows satisfying the predicate.

        ``None`` means the index cannot help (unindexed column or a
        non-prunable operator such as ``!=``) and the caller should fall
        back to per-chunk zone maps.  ``cell(x) = bisect_right(scale,
        x)`` is monotone in ``x``, so a comparison against ``value``
        bounds the matching cells to one side of ``cell(value)`` —
        the returned set is always a superset of the true answer.
        """
        axis = self.axis_of(position)
        if axis is None or op not in _PRUNABLE_OPS:
            return None
        cell = bisect_right(self.scales[axis], value)
        if op == "==":
            keep = lambda c: c == cell  # noqa: E731
        elif op in ("<", "<="):
            keep = lambda c: c <= cell  # noqa: E731
        else:
            keep = lambda c: c >= cell  # noqa: E731
        hits: set[int] = set()
        for coords, ids in self.directory.items():
            if keep(coords[axis]):
                hits.update(ids)
        return frozenset(hits)

    # -- (de)serialisation --------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-encodable form, deterministic for fingerprinting."""
        return {
            "columns": list(self.columns),
            "scales": [list(axis) for axis in self.scales],
            "directory": [
                [list(cell), list(ids)]
                for cell, ids in sorted(self.directory.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GridIndex":
        try:
            return cls(
                data["columns"],
                data["scales"],
                {tuple(cell): tuple(ids) for cell, ids in data["directory"]},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed grid index: {exc}") from exc

    def __repr__(self) -> str:
        cells = len(self.directory)
        return (
            f"GridIndex(columns={list(self.columns)}, "
            f"{cells} occupied cells)"
        )
