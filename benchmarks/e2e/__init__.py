"""The repo's end-to-end benchmark with per-layer attribution.

Four workloads drive the §9 machine stack (serve → lang → machine →
store → arrays → engine) through public entry points only; every host
timing is paired with a count that repeats exactly (pulses, chunks,
simulated milliseconds).  ``BENCHMARK.json`` at the repo root declares
the command, the workloads and every metric; ``README.md`` beside this
file explains how to read the numbers.

    python3 -m benchmarks.e2e run --list
    python3 -m benchmarks.e2e run --workload bulk_join --seed 1 --seconds 12 --trace 0
    python3 -m benchmarks.e2e run --out A.json        # every workload, both passes
    python3 -m benchmarks.e2e compare A.json B.json
"""
