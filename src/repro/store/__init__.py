"""Out-of-core columnar relation storage with zone-map pruning.

``repro.store`` is the persistence layer under the Fig 9-1 machine's
disk: relations live on the host filesystem as chunked column-major
binary files plus a JSON manifest.  The writer clusters the rows in
Morton order (:func:`~repro.store.grid.cluster_order`) before chunking,
and the manifest's per-chunk (min, max) zone maps let equality/range
selections resolve to a chunk subset before a single byte is read —
§8's block decomposition applied to storage, with pruning happening
*ahead* of the arrays.  :class:`~repro.machine.disk.MachineDisk` attaches a
:class:`RelationStore` to make stored relations queryable; the physical
planner costs pruned reads and ``explain()`` shows the pruning.

See ``docs/STORAGE.md`` for the on-disk layout and the clustering.
"""

from repro.store.columnar import (
    CHUNK_POOL_BYTES,
    DEFAULT_CHUNK_ROWS,
    MANIFEST_VERSION,
    STORE_DIR_ENV,
    RelationStore,
    StoredRelation,
    StoreScan,
    pool_info,
)
from repro.store.grid import build_scales, cell_coords, cluster_order

__all__ = [
    "CHUNK_POOL_BYTES",
    "DEFAULT_CHUNK_ROWS",
    "MANIFEST_VERSION",
    "STORE_DIR_ENV",
    "RelationStore",
    "StoredRelation",
    "StoreScan",
    "pool_info",
    "build_scales",
    "cell_coords",
    "cluster_order",
]
