"""Host-timed ``BENCH_*.json`` fields on the probed clock.

A shared host's speed moves by half from one minute to the next, so a
raw millisecond field says as much about the host's phase as about the
code.  Every ``bench_*.py`` that writes a ``BENCH_*.json`` therefore
records, beside the host-timed fields of each entry (and of each
informational section), the ``probe_seconds`` that the end-to-end
benchmark's fixed two-millisecond :func:`~benchmarks.e2e.harness.probe`
took around them.  ``tools/check_bench_regression.py`` compares
``value / probe_seconds`` on the two sides, so a host that ran
everything slower reads the same.

Run as a script (``python benchmarks/bench_x.py``) a bench has only
``benchmarks/`` on its path; it puts the repository root there before
importing this module.
"""

from __future__ import annotations

from benchmarks.e2e.harness import probe

__all__ = ["Probed"]

#: Probes a reading takes; it keeps the fastest, the host's quiet floor
#: right now, as the benches' best-of timings are.
PROBES = 5


def _quiet_probe() -> float:
    return min(probe() for _ in range(PROBES))


class Probed:
    """Probes before and after a block of host-timed work.

    ``seconds`` (after the block) is the quieter of the two readings,
    each the fastest of :data:`PROBES` probes, rounded as the BENCH
    files round their fields::

        with Probed() as probed:
            seconds = time_the_work()
        entry["probe_seconds"] = probed.seconds
    """

    def __enter__(self) -> "Probed":
        self._before = _quiet_probe()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = round(min(self._before, _quiet_probe()), 6)
