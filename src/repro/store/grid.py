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

__all__ = ["GridIndex", "build_scales", "cell_coords", "cluster_order"]

#: Comparison operators the index can answer (a superset check; the
#: store re-applies the exact predicate on the surviving chunks).
_PRUNABLE_OPS = ("==", "<", "<=", ">", ">=")


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
    if cells < 1:
        raise StoreError(f"a grid axis needs >= 1 cells, got {cells}")
    if cells == 1 or len(values) == 0:
        return ()
    ordered = np.sort(values)
    positions = [
        (len(ordered) * i) // cells for i in range(1, cells)
    ]
    splits = sorted({int(ordered[p]) for p in positions})
    return tuple(splits)


def cell_coords(
    columns: Sequence[np.ndarray], scales: Sequence[Sequence[int]]
) -> np.ndarray:
    """Per-row grid-cell coordinates (n × ndims) for indexed columns."""
    coords = np.empty((len(columns[0]), len(columns)), dtype=np.int64)
    for d, (values, axis) in enumerate(zip(columns, scales)):
        coords[:, d] = np.searchsorted(
            np.asarray(axis, dtype=np.int64), values, side="right"
        ) if len(axis) else 0
    return coords


def cluster_order(coords: np.ndarray) -> np.ndarray:
    """A stable row order sorting by Morton-interleaved cell coordinates.

    Interleaving the coordinate bits (z-order) keeps rows from the same
    and neighbouring cells adjacent in *every* indexed dimension, so
    chunk boundaries cut the grid into compact blobs instead of slabs
    along the first axis only.  Only as many bits as the largest
    coordinate has are interleaved.
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
    key = np.zeros(n, dtype=np.uint64)
    unsigned = coords.astype(np.uint64)
    for bit in range(bits):
        for d in range(ndims):
            key |= ((unsigned[:, d] >> np.uint64(bit)) & np.uint64(1)) << (
                np.uint64(bit * ndims + d)
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
        """Directory from per-row cell coordinates and chunk assignment."""
        directory: dict[tuple[int, ...], list[int]] = {}
        if len(coords):
            # The distinct (cell, chunk) pairs, found on one int64 key a
            # row — the coordinates and the chunk id as mixed-radix
            # digits — because a 1-D sort is several times cheaper than
            # np.unique(axis=0)'s sort of structured rows.
            digits = [*coords.T, chunk_of_row]
            radices = [int(column.max()) + 1 for column in digits]
            if math.prod(radices) > np.iinfo(np.int64).max:
                raise StoreError(
                    f"grid of {radices[:-1]} cells over {radices[-1]} "
                    f"chunks does not fit a 64-bit directory key"
                )
            key = np.zeros(len(coords), dtype=np.int64)
            for column, radix in zip(digits, radices):
                key = key * radix + column
            key = np.unique(key)
            decoded = []
            for radix in reversed(radices):
                key, digit = np.divmod(key, radix)
                decoded.append(digit.tolist())
            for *cell, chunk in zip(*reversed(decoded)):
                directory.setdefault(tuple(cell), []).append(chunk)
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
