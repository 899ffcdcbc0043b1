"""The four workloads, by their BENCHMARK.json names."""

from benchmarks.e2e.workloads.bulk_join import BulkJoin
from benchmarks.e2e.workloads.oracle_equiv import OracleEquiv
from benchmarks.e2e.workloads.serve_mix import ServeMix
from benchmarks.e2e.workloads.store_scan import StoreScan

__all__ = ["WORKLOADS"]

WORKLOADS = {
    cls.name: cls for cls in (ServeMix, BulkJoin, StoreScan, OracleEquiv)
}
