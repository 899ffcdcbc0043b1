"""Single-flight compiles: concurrent misses of one plan-cache key run
the planner once, and a failed build neither strands its waiters nor
leaves an entry behind."""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.machine.pool as pool_module
from repro.errors import PlanError
from repro.machine import Base, EnginePool, Join, PlanCache
from repro.machine.physical import PhysicalPlanner
from repro.workloads import join_pair

THREADS = 8


def _count_waits(monkeypatch) -> threading.Semaphore:
    """A semaphore released each time a thread starts waiting on a
    build in flight: the plan cache's events count their waiters."""
    arrived = threading.Semaphore(0)

    class Counted(threading.Event):
        def wait(self, timeout=None):
            arrived.release()
            return super().wait(timeout)

    class Threading:
        Event = Counted

        def __getattr__(self, name):
            return getattr(threading, name)

    monkeypatch.setattr(pool_module, "threading", Threading())
    return arrived


def _all_others_waiting(arrived: threading.Semaphore) -> None:
    """Block the build in flight until every other thread waits on it,
    so each test sees the single-flight path, not a late hit."""
    for _ in range(THREADS - 1):
        assert arrived.acquire(timeout=10), "a thread never waited"


def _hammer(work) -> list:
    """Run ``work(i)`` on THREADS threads released together; returns
    each thread's value or the exception it raised, in thread order."""
    barrier = threading.Barrier(THREADS)
    outcomes: list = [None] * THREADS

    def body(i: int) -> None:
        barrier.wait(timeout=10)
        try:
            outcomes[i] = work(i)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcomes[i] = exc

    threads = [
        threading.Thread(target=body, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a waiter is stuck"
    return outcomes


def test_concurrent_compiles_of_one_key_run_the_planner_once(monkeypatch):
    pool = EnginePool()
    catalog = pool.catalog("acme")
    a, b = join_pair(30, 24, 8, seed=13)
    catalog.store("A", a)
    catalog.store("B", b)
    plan = Join(Base("A"), Base("B"), on=((0, 0),))

    runs = []
    planner_compile = PhysicalPlanner.compile
    arrived = _count_waits(monkeypatch)

    def slow_compile(self, *args, **kwargs):
        runs.append(threading.get_ident())
        _all_others_waiting(arrived)
        return planner_compile(self, *args, **kwargs)

    monkeypatch.setattr(PhysicalPlanner, "compile", slow_compile)
    plans = _hammer(lambda _: pool.compile(catalog, plan))

    assert len(runs) == 1
    assert all(p is plans[0] for p in plans)
    info = pool.plan_cache_info()
    assert (info["misses"], info["hits"], info["size"]) == (1, THREADS - 1, 1)


def test_a_raising_build_wakes_its_waiters_and_stores_nothing(monkeypatch):
    arrived = _count_waits(monkeypatch)
    cache = PlanCache(4)
    built = []
    lock = threading.Lock()

    def build():
        with lock:
            built.append(None)
            first = len(built) == 1
        if first:
            _all_others_waiting(arrived)
            raise PlanError("the first build fails")
        return "plan"

    outcomes = _hammer(lambda _: cache.get_or_build(("k",), build))

    failures = [o for o in outcomes if isinstance(o, PlanError)]
    assert len(failures) == 1
    # One waiter rebuilt for itself, the others hit its entry.
    assert sorted(o for o in outcomes if not isinstance(o, PlanError)) == (
        [("plan", False)] + [("plan", True)] * (THREADS - 2)
    )
    assert len(built) == 2
    assert cache._in_flight == {}


def test_builds_that_all_fail_leave_no_entry_behind():
    cache = PlanCache(4)

    def build():
        # Only lets waiters pile up on the build in flight: every
        # interleaving ends with each thread's own failure and no
        # entry, so the length of the pause is loose.
        time.sleep(0.005)
        raise PlanError("never compiles")

    outcomes = _hammer(lambda _: cache.get_or_build(("k",), build))

    assert all(isinstance(o, PlanError) for o in outcomes)
    assert cache.info()["size"] == 0
    assert cache._in_flight == {}
    assert cache.get_or_build(("k",), lambda: "plan") == ("plan", False)


def test_build_path_goes_through_get():
    # The end-to-end tracer wraps ``PlanCache.get`` to note hits.
    seen = []

    class Noting(PlanCache):
        def get(self, key):
            seen.append(key)
            return super().get(key)

    cache = Noting(4)
    cache.get_or_build(("k",), lambda: "plan")
    cache.get_or_build(("k",), lambda: pytest.fail("a hit must not build"))
    assert seen == [("k",), ("k",)]
