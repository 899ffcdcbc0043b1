"""Shard-aware execution: relations partitioned across machines.

§8 scales one operation past one array by decomposition; this package
scales the whole machine past one *machine* by partitioning relations
across a cluster of simulated systolic machines and lowering plans into
shard-local fragments plus explicit, costed exchanges.  See
``docs/SHARDING.md`` for the layer's design.
"""

from repro.shard.catalog import (
    PARTITIONED,
    REPLICATED,
    Distribution,
    ShardedCatalog,
    ShardedSnapshot,
)
from repro.shard.executor import (
    INTERCONNECT,
    ShardedCompilation,
    ShardedExecutionReport,
    ShardedExecutor,
)
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    STRATEGIES,
)
from repro.shard.planner import (
    BROADCAST,
    ExchangeStep,
    REPARTITION,
    SCATTERED,
    ShardedPlan,
    ShardPlanner,
    co_partitioned,
)

__all__ = [
    "BROADCAST",
    "Distribution",
    "ExchangeStep",
    "HashPartitioner",
    "INTERCONNECT",
    "PARTITIONED",
    "Partitioner",
    "RangePartitioner",
    "REPARTITION",
    "REPLICATED",
    "SCATTERED",
    "STRATEGIES",
    "ShardPlanner",
    "ShardedCatalog",
    "ShardedCompilation",
    "ShardedExecutionReport",
    "ShardedExecutor",
    "ShardedPlan",
    "ShardedSnapshot",
    "co_partitioned",
]
