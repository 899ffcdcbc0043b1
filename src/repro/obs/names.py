"""The stable metric-name registry.

Every metric the instrumented code records is declared here, once, with
its kind and a one-line meaning.  The table is a *contract*:

* :mod:`repro.obs.metrics` refuses to record a name that is not
  declared (so an instrumentation typo fails loudly, not silently);
* ``tests/obs/test_metrics_names.py`` exercises a workload that must
  touch **every** declared name, so a declared-but-dead name fails CI;
* ``tools/check_docs.py`` cross-checks this table against the metric
  table in ``docs/OBSERVABILITY.md`` — renaming a metric without
  updating the docs (or vice versa) fails CI.

Naming convention: ``layer.subject.event`` with layers ``lang``,
``machine``, ``device``, ``engine``, ``serve``, ``service``, ``shard``,
``store``, and ``faults`` (lowest to highest frequency; ``serve`` is
the TCP front end, ``service`` the multi-tenant engine-pool layer
behind it, ``shard`` the cross-machine partitioned-execution layer,
``store`` the out-of-core columnar relation store, ``faults`` the
fault-injection/recovery layer that cuts across all of them).
"""

from __future__ import annotations

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: name -> (kind, description).  Keep sorted by name.
METRICS: dict[str, tuple[str, str]] = {
    "device.block_runs": (
        COUNTER, "§8 sub-problems executed across all devices"),
    "device.busy_pulses": (
        COUNTER, "total simulated pulses run on systolic devices"),
    "device.executions": (
        COUNTER, "operations executed on machine devices (incl. the CPU)"),
    "engine.bitplane_planes": (
        COUNTER, "packed uint64 bitplanes swept by the bitplane engine"),
    "engine.lattice.chunks": (
        COUNTER, "row chunks compared by the lattice engine's word kernel "
                 "(whole-array grids and every band of a blocked run; a "
                 "ranked membership counts none)"),
    "engine.run.pulses": (
        HISTOGRAM, "pulses per array run (every engine alike)"),
    "engine.runs": (
        COUNTER, "array runs executed by any engine (block runs counted)"),
    "faults.backoff_seconds": (
        HISTOGRAM, "host seconds slept backing off before each retry"),
    "faults.deadline_cancels": (
        COUNTER, "queries cancelled at their deadline by the engine pool"),
    "faults.exchange_resends": (
        COUNTER, "dropped interconnect exchanges re-sent by the shard layer"),
    "faults.injected": (
        COUNTER, "faults injected by the active FaultPlan (all kinds)"),
    "faults.quarantines": (
        COUNTER, "devices quarantined after exhausting their retry budget"),
    "faults.redispatches": (
        COUNTER, "ops whose device assignment changed in a recovery replan"),
    "faults.replans": (
        COUNTER, "queries re-planned against a reduced healthy roster"),
    "faults.retries": (
        COUNTER, "recovery retries across device, disk, shard, and service "
                 "layers"),
    "lang.optimize.calls": (
        COUNTER, "logical-plan optimizer invocations"),
    "lang.parse.calls": (
        COUNTER, "expression-language parses"),
    "machine.chains.executed": (
        COUNTER, "§9 pipelined chains executed fused (not fallen back)"),
    "machine.compile.calls": (
        COUNTER, "SystolicDatabaseMachine.compile invocations"),
    "machine.disk.reads": (
        COUNTER, "base-relation reads off the machine disk"),
    "machine.disk.sweeps": (
        COUNTER, "disk sweeps executed: loads read off one cylinder in one "
                 "revolution (§8)"),
    "machine.op.sim_seconds": (
        HISTOGRAM, "simulated duration of each timeline step"),
    "machine.ops.executed": (
        COUNTER, "physical ops placed on the timeline"),
    "machine.plan_cache.hits": (
        COUNTER, "compile calls answered from the LRU plan cache"),
    "machine.plan_cache.misses": (
        COUNTER, "compile calls that ran the physical planner"),
    "machine.plan_cache.size": (
        GAUGE, "physical plans currently held by the LRU cache"),
    "serve.statement_cache.hits": (
        COUNTER, "queries whose text was found in the server's statement "
                 "cache (no parse, no optimize)"),
    "serve.statement_cache.misses": (
        COUNTER, "queries whose text the server parsed and optimized"),
    "service.admissions": (
        COUNTER, "queries admitted past the engine pool's concurrency gate"),
    "service.queries": (
        COUNTER, "queries executed by the engine pool (all tenants)"),
    "service.query.seconds": (
        HISTOGRAM, "host wall-clock seconds per pooled query"),
    "service.queue.depth": (
        GAUGE, "queries currently waiting at the admission gate"),
    "service.rejections": (
        COUNTER, "queries refused with AdmissionError under backpressure"),
    "service.tenant.queries": (
        COUNTER, "pooled queries summed over tenants (per-tenant split in "
                 "EnginePool.tenant_stats)"),
    "shard.broadcasts": (
        COUNTER, "relations replicated onto every shard by an exchange step"),
    "shard.local_joins": (
        COUNTER, "equi-joins run shard-local on co-partitioned inputs "
                 "(zero cross-shard traffic)"),
    "shard.merge_seconds": (
        HISTOGRAM, "host wall-clock seconds merging per-shard results into "
                   "the final relation"),
    "shard.repartition_tuples": (
        COUNTER, "tuples that changed shard during re-partition exchanges"),
    "store.bytes_read": (
        COUNTER, "bytes of the chunks a store scan covers, 8 per element: "
                 "the unit the disk bills, not the bytes copied"),
    "store.chunks_pruned": (
        COUNTER, "chunks skipped by the zone maps on a read"),
    "store.chunks_read": (
        COUNTER, "chunks a store read covers, billed whole, whether read "
                 "from disk or served by the chunk pool"),
    "store.index_probes": (
        COUNTER, "zone-map probes answering selection predicates"),
}

#: The layers a query's host time is attributed to, in the order a
#: request meets them.
LAYERS = (
    "wire", "parse/optimize", "compile", "store scan", "device blocking",
    "engine kernel", "tap decode", "replay", "exchange/merge",
)

#: span name -> the layer its self time belongs to, one entry per name of
#: the span catalog in ``docs/OBSERVABILITY.md`` (``tools/check_docs.py``
#: holds the two equal).
SPAN_LAYERS: dict[str, str] = {
    "cli.<stage>": "wire",
    "serve.request": "wire",
    "serve.statement": "parse/optimize",
    "lang.parse": "parse/optimize",
    "lang.optimize": "parse/optimize",
    "service.query": "replay",
    "shard.partition": "exchange/merge",
    "shard.stage": "exchange/merge",
    "shard.exchange": "exchange/merge",
    "shard.run": "replay",
    "shard.merge": "exchange/merge",
    "machine.compile": "compile",
    "planner.compile": "compile",
    "planner.assign": "compile",
    "planner.fuse": "compile",
    "planner.predict": "compile",
    "machine.run": "replay",
    "machine.op": "replay",
    "machine.chain": "replay",
    "store.read": "store scan",
    "device.execute": "device blocking",
    "engine.run": "engine kernel",
    "arrays.decode": "tap decode",
}

__all__ = [
    "COUNTER", "GAUGE", "HISTOGRAM", "LAYERS", "METRICS", "SPAN_LAYERS",
]
