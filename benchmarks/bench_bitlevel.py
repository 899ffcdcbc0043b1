#!/usr/bin/env python3
"""E12/E21 — the word→bit-level design transformation (§8, ref [3]).

Claims reproduced: partitioning word processors into bit processors
changes the implementation, not the answer — the bit-level arrays
compute identical results, and their size is expressible directly in
§8's bit-comparator unit, feeding the E8 area arithmetic.

E21 measures what the packed-bitplane engine buys on *wide* tuples:
the same bit-level intersection, stepped pulse by pulse (every bit
comparator's registers, every pulse) vs evaluated as uint64 bitplane
kernels, with identical results and pulse counts.  Run standalone to
(re)generate ``BENCH_bitlevel.json`` at the repo root — CI's benchmark
smoke job does exactly this::

    python benchmarks/bench_bitlevel.py [--out BENCH_bitlevel.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: the repository root, for benchmarks.*
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.probed import Probed
from repro.arrays import ArrayCapacity, compare_all_pairs
from repro.bitlevel import (
    bit_array_stats,
    bit_level_compare_all_pairs,
    bit_level_intersection,
    bit_level_three_way_compare,
)
from repro.machine.device import SystolicDevice
from repro.machine.plan import DEVICE_COMPARISON, Base, Intersect
from repro.perf import PAPER_CONSERVATIVE, estimate_array_area
from repro.perf.cost import bit_comparison_cost
from repro.workloads import overlapping_pair


def test_bit_level_equivalence(benchmark, experiment_report):
    """E12: identical T matrices from word- and bit-level arrays."""
    width = 6
    a, b = overlapping_pair(6, 6, 3, arity=2, universe=60, seed=120)
    word = compare_all_pairs(a.tuples, b.tuples)
    bit = benchmark(
        lambda: bit_level_compare_all_pairs(a.tuples, b.tuples, width=width)
    )
    assert bit.t_matrix == word.t_matrix
    stats = bit_array_stats(word.run.rows, word.run.cols, width)
    experiment_report("E12 word→bit transformation (§8, ref [3])", [
        ("T matrices identical", "yes",
         "yes" if bit.t_matrix == word.t_matrix else "NO"),
        ("word array", f"{word.run.rows}×{word.run.cols}",
         f"{word.run.rows}×{word.run.cols}"),
        ("bit array", f"{word.run.rows}×{word.run.cols * width}",
         f"{bit.run.rows}×{bit.run.cols}"),
        ("bit comparators", str(stats.bit_cells),
         str(bit.run.cells)),
        ("extra pulses (additive, (w-1)·m)",
         f"+{(width - 1) * word.run.cols}",
         f"+{bit.run.pulses - word.run.pulses}"),
    ])


def test_bit_comparator_area_feeds_section8(benchmark, experiment_report):
    """E12b: bit-cell counts → chips, closing the loop with E8."""
    width = 32
    rows, cols = 63, 8  # the default machine device
    estimate = benchmark(
        lambda: estimate_array_area(rows, cols, PAPER_CONSERVATIVE, width)
    )
    experiment_report("E12b device area on §8 technology", [
        ("word processors", f"{rows}×{cols}", f"{rows * cols}"),
        ("bit comparators", f"{rows * cols * width:,}",
         f"{estimate.bit_comparators:,}"),
        ("chips (1000 comparators/chip)",
         f"{-(-rows * cols * width // 1000)}", str(estimate.chips)),
        ("silicon", "-", f"{estimate.silicon_mm2:.0f} mm²"),
    ])


def test_magnitude_comparator_chain(benchmark, experiment_report):
    """E12c: MSB-first bit-serial magnitude comparison (for θ-joins)."""
    correct = 0
    total = 0
    for x in range(0, 64, 7):
        for y in range(0, 64, 5):
            total += 1
            if bit_level_three_way_compare(x, y, width=6) == (x > y) - (x < y):
                correct += 1
    benchmark(lambda: bit_level_three_way_compare(45, 23, width=6))
    experiment_report("E12c bit-serial magnitude comparator", [
        ("three-way results correct", f"{total}/{total}",
         f"{correct}/{total}"),
        ("pulses per comparison", "width = 6", "6"),
    ])
    assert correct == total


# -- E21: packed bitplanes vs the pulse-simulated bit-level array --------------

#: Element width for the wide-tuple workloads: two 32-bit columns make
#: a 64-bit tuple — §8's "1000-bit" regime scaled to one plane set.
_WIDTH = 32


def _time(thunk, repeats: int = 3):
    """Best-of-``repeats`` wall-clock (same discipline as bench_engines)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
    return best, result


def _wide_pair(n: int, seed: int):
    return overlapping_pair(n, n, n // 2, arity=2, seed=seed)


def run_wide_matrix():
    """E21: time the bit-level intersection both ways.

    The pulse engine advances every bit comparator's registers on every
    pulse, so it is only run at calibration size; the measured
    cell-pulse rate projects its wall-clock at scale (reported, never
    gated).
    """
    entries = []

    # Calibration: still sub-second on the pulse engine's register
    # planes, large enough that the packed planes' bulk advantage shows
    # (it is ~15x at n=48, where both are fixed costs).  Both backends
    # run the *same* expanded bit-level array, so pulse counts must
    # agree exactly.
    a, b = _wide_pair(256, seed=21)
    with Probed() as probed:
        pulse_seconds, pulse_result = _time(
            lambda: bit_level_intersection(
                a, b, width=_WIDTH, backend="pulse"
            )
        )
        plane_seconds, plane_result = _time(
            lambda: bit_level_intersection(
                a, b, width=_WIDTH, backend="bitplane"
            ),
            repeats=5,
        )
    assert plane_result.relation == pulse_result.relation
    assert plane_result.run.pulses == pulse_result.run.pulses
    speedup = pulse_seconds / plane_seconds
    entries.append({
        "experiment": "E21",
        "operation": "wide-intersection",
        "n": len(a),
        "tuple_bits": a.arity * _WIDTH,
        "pulses": pulse_result.run.pulses,
        "result_tuples": len(pulse_result.relation),
        "pulse_seconds": round(pulse_seconds, 6),
        "bitplane_seconds": round(plane_seconds, 6),
        "speedup": round(speedup, 1),
        "probe_seconds": probed.seconds,
    })
    calibration = (pulse_seconds, pulse_result.run)

    # At scale the pulse engine is out of reach; the bitplane engine
    # sweeps the same arrays in bulk.
    for n in (4096,):
        a, b = _wide_pair(n, seed=n)
        with Probed() as probed:
            seconds, result = _time(
                lambda: bit_level_intersection(
                    a, b, width=_WIDTH, backend="bitplane"
                ),
                repeats=3,
            )
        entries.append({
            "experiment": "E21",
            "operation": "wide-intersection",
            "n": n,
            "tuple_bits": a.arity * _WIDTH,
            "pulses": result.run.pulses,
            "result_tuples": len(result.relation),
            "bitplane_seconds": round(seconds, 6),
            "probe_seconds": probed.seconds,
        })
        scale_run = result.run

    return entries, calibration, scale_run


def _projection(calibration, scale_run):
    """Projected pulse-engine wall-clock at scale (informational)."""
    pulse_seconds, run = calibration
    work = run.pulses * run.rows * run.cols
    scale_work = scale_run.pulses * scale_run.rows * scale_run.cols
    projected = pulse_seconds * scale_work / work
    return {
        "cell_pulses_calibration": work,
        "cell_pulses_at_scale": scale_work,
        "pulse_engine_projected_hours": round(projected / 3600.0, 2),
    }


def _device_prediction():
    """The planner's bit-comparator cost terms vs an executed device."""
    a, b = _wide_pair(200, seed=7)
    capacity = ArrayCapacity(max_rows=63, max_cols=128)
    device = SystolicDevice(
        "bit0", DEVICE_COMPARISON, capacity, element_bits=_WIDTH,
        backend="bitplane",
    )
    predicted = bit_comparison_cost(
        len(a), len(b), a.arity, _WIDTH,
        capacity.max_rows, capacity.max_cols,
    )
    run = device.execute(Intersect(Base("A"), Base("B")), [a, b])
    assert predicted.total_pulses == run.pulses, (
        f"bit cost model predicted {predicted.total_pulses} pulses, "
        f"device executed {run.pulses}"
    )
    return {
        "n": len(a),
        "tuple_bits": a.arity * _WIDTH,
        "device_cols": capacity.max_cols,
        "predicted_pulses": predicted.total_pulses,
        "simulated_pulses": run.pulses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_bitlevel.json"
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    entries, calibration, scale_run = run_wide_matrix()
    prediction = _device_prediction()
    report = {
        "description": "E21 packed-bitplane engine vs pulse-stepped "
                       "bit-level arrays, identical results and pulse "
                       "counts (see docs/ENGINES.md and "
                       'docs/PERF.md, "engine kernel")',
        "entries": entries,
        "pulse_projection": _projection(calibration, scale_run),
        "cost_model": prediction,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for e in entries:
        pulse = (f"pulse {e['pulse_seconds']:>9.4f}s  "
                 if "pulse_seconds" in e else " " * 22)
        tail = f"{e['speedup']:>8.1f}x" if "speedup" in e else ""
        print(f"{e['experiment']} {e['operation']:<18} n={e['n']:>5}  "
              f"{pulse}bitplane {e['bitplane_seconds']:>9.6f}s  {tail}")
    print(f"cost model: predicted {prediction['predicted_pulses']} == "
          f"simulated {prediction['simulated_pulses']} pulses")
    print(f"wrote {args.out}")
    # The tentpole claim: two orders of magnitude on wide tuples.
    calib = entries[0]
    assert calib["speedup"] >= 100, (
        f"bitplane only {calib['speedup']}x faster than the pulse "
        f"bit-level array on n={calib['n']}"
    )
    return 0


def test_bitplane_matches_pulse_on_wide_tuples(benchmark, experiment_report):
    """E21: packed bitplanes — identical answer, bulk speed."""
    a, b = _wide_pair(256, seed=5)
    pulse = bit_level_intersection(a, b, width=_WIDTH, backend="pulse")
    result = benchmark(
        lambda: bit_level_intersection(a, b, width=_WIDTH, backend="bitplane")
    )
    assert result.relation == pulse.relation
    assert result.run.pulses == pulse.run.pulses
    pulse_seconds, _ = _time(
        lambda: bit_level_intersection(a, b, width=_WIDTH, backend="pulse")
    )
    plane_seconds, _ = _time(
        lambda: bit_level_intersection(a, b, width=_WIDTH, backend="bitplane"),
        repeats=3,
    )
    experiment_report("E21 packed bitplanes vs pulse bit-level (n=256)", [
        ("identical relation + pulses", "yes", "yes"),
        ("tuple width", "64 bits", f"{a.arity * _WIDTH} bits"),
        ("pulse bit-level array", "O(pulses) steps",
         f"{pulse_seconds:.4f}s"),
        ("bitplane kernels", "uint64 planes", f"{plane_seconds:.6f}s"),
        ("speedup", ">100x", f"{pulse_seconds / plane_seconds:.0f}x"),
    ])
    assert pulse_seconds > plane_seconds


if __name__ == "__main__":
    raise SystemExit(main())
