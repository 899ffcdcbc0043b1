"""The serving front-end: protocol, server loop, blocking client."""

from __future__ import annotations

import asyncio
import os
import random
import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigError,
    ParseError,
    ReproError,
    ServiceRetryableError,
)
from repro.faults import parse_faults
from repro.machine import EnginePool
from repro.machine.physical import plan_fingerprint
from repro.relational import Domain, Relation, Schema, algebra
from repro.serve import (
    ReproServer,
    ServiceClient,
    decode_line,
    encode_line,
    relation_from_wire,
    relation_to_wire,
)
from repro.serve.server import _STATEMENT_MAX_CHARS, _StatementCache
from repro.store import CHUNK_POOL_BYTES
from repro.workloads import join_pair, overlapping_pair


class TestProtocol:
    def test_line_round_trip(self):
        payload = {"op": "query", "expr": "intersect(A, B)", "priority": 2}
        assert decode_line(encode_line(payload)) == payload

    def test_malformed_line_raises(self):
        with pytest.raises(ReproError, match="malformed"):
            decode_line(b"not json\n")
        with pytest.raises(ReproError, match="JSON objects"):
            decode_line(b"[1, 2]\n")

    def test_relation_round_trip_preserves_rows_and_domains(self):
        a, _ = join_pair(10, 8, 4, seed=31)
        registry = {}
        back = relation_from_wire(relation_to_wire(a), registry)
        assert sorted(back.decoded()) == sorted(a.decoded())
        assert back.schema.names == a.schema.names
        assert [d.name for d in back.schema.domains] == [
            d.name for d in a.schema.domains
        ]

    def test_shared_registry_keeps_relations_compatible(self):
        """Two relations wired separately but naming the same domains
        stay join/intersect-compatible — the CSV-registry behaviour."""
        a, b = overlapping_pair(8, 6, 4, arity=2, seed=7)
        registry = {}
        wired_a = relation_from_wire(relation_to_wire(a), registry)
        wired_b = relation_from_wire(relation_to_wire(b), registry)
        expected = sorted(algebra.intersection(a, b).decoded())
        assert sorted(
            algebra.intersection(wired_a, wired_b).decoded()
        ) == expected

    def test_wire_relation_needs_columns_and_rows(self):
        with pytest.raises(ReproError, match="columns"):
            relation_from_wire({"rows": []}, {})


class _ServerHarness:
    """Runs a ReproServer on a private event-loop thread."""

    def __init__(self, **pool_kwargs):
        self.pool_kwargs = pool_kwargs
        self.address = None
        self._loop = None
        self._server = None
        self._thread = None
        self._ready = threading.Event()

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10.0), "server never started"
        return self

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main():
            self._server = ReproServer(**self.pool_kwargs)
            self.address = await self._server.start()
            self._ready.set()
            self._stop = asyncio.Event()
            await self._stop.wait()
            await self._server.stop()

        self._loop.run_until_complete(main())
        self._loop.close()

    def __exit__(self, exc_type, exc, tb):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10.0)
        assert not self._thread.is_alive(), "server thread leaked"


class TestServer:
    def test_store_query_stats_over_the_wire(self):
        ja, jb = join_pair(10, 8, 4, seed=31)
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="acme") as db:
                assert db.ping()
                db.store("R", ja)
                db.store("S", jb)
                reply = db.query("project(join(R, S, #0 == #0), #0, #1)")
                assert reply["rows"] == len(reply["relation"]["rows"])
                assert reply["makespan_ms"] > 0
                stats = db.stats()
                assert stats["tenants"] == ["acme"]
                assert stats["tenant_queries"] == {"acme": 1}

    def test_query_matches_in_process_execution(self):
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        expected = sorted(algebra.intersection(a, b).decoded())
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                db.store("A", a)
                db.store("B", b)
                reply = db.query("intersect(A, B)")
                got = sorted(tuple(r) for r in reply["relation"]["rows"])
                assert got == expected

    def test_a_30_digit_value_is_a_small_code_in_a_dictionary_domain(self):
        """Only an IntegerDomain's members are their codes; the server's
        per-tenant domains are dictionaries, so any JSON integer stores."""
        huge = 123456789012345678901234567890
        schema = Schema.of(("id", Domain("ids")), ("who", Domain("names")))
        sent = Relation.from_values(schema, [(huge, "ada"), (-huge, "alan")])
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                assert db.store("R", sent)["rows"] == 2
                reply = db.query("dedup(R)")
                assert sorted(map(tuple, reply["relation"]["rows"])) == [
                    (-huge, "alan"), (huge, "ada"),
                ]

    def test_tenants_are_isolated(self):
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="one") as one:
                one.store("A", a)
                one.store("B", b)
                with ServiceClient(host, port, tenant="two") as two:
                    # Tenant two never stored anything.
                    with pytest.raises(ReproError):
                        two.query("intersect(A, B)")
                    # Tenant one is unaffected.
                    assert one.query("intersect(A, B)")["ok"]

    def test_concurrent_clients_get_identical_answers(self):
        a, b = overlapping_pair(12, 10, 5, arity=2, seed=11)
        expected = sorted(algebra.intersection(a, b).decoded())
        with _ServerHarness(max_concurrent=2) as harness:
            host, port = harness.address
            results = {}

            def client(tag: str):
                with ServiceClient(host, port, tenant=tag) as db:
                    db.store("A", a)
                    db.store("B", b)
                    reply = db.query("intersect(A, B)")
                    results[tag] = sorted(
                        tuple(r) for r in reply["relation"]["rows"]
                    )

            threads = [
                threading.Thread(target=client, args=(f"t{i}",))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 3
            for rows in results.values():
                assert rows == expected

    def test_unknown_op_and_bad_query_report_errors(self):
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                with pytest.raises(ReproError, match="unknown op"):
                    db._request({"op": "explode"})
                with pytest.raises(ReproError):
                    db.query("this is not algebra")
                # The connection survives both errors.
                assert db.ping()


class TestReplyOffTheLoop:
    """A query's reply is built and serialized on its connection's own
    thread, so a big reply does not stall other connections."""

    def test_slow_encode_does_not_block_a_ping(self, monkeypatch):
        import repro.serve.server as server_module

        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        encoding, release = threading.Event(), threading.Event()
        encoders: list[threading.Thread] = []
        encode = server_module.encode_line

        def slow_encode(payload):
            if isinstance(payload.get("relation"), Relation):  # the reply
                encoders.append(threading.current_thread())
                encoding.set()
                assert release.wait(10.0), "nobody released the encoder"
            return encode(payload)

        monkeypatch.setattr(server_module, "encode_line", slow_encode)
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db, ServiceClient(
                host, port, timeout=5.0, retries=0
            ) as other:
                db.store("A", a)
                db.store("B", b)
                reply: dict = {}
                asker = threading.Thread(
                    target=lambda: reply.update(db.query("intersect(A, B)"))
                )
                asker.start()
                try:
                    assert encoding.wait(10.0), "the query never encoded"
                    assert other.ping()  # while the encode is in progress
                    assert not reply
                finally:
                    release.set()
                    asker.join(10.0)
                assert not asker.is_alive()
                assert reply["rows"] == len(reply["relation"]["rows"]) > 0
            assert encoders and harness._thread not in encoders


def _wait_for(condition, seconds: float = 10.0):
    """Poll ``condition()`` until it is truthy or ``seconds`` pass;
    returns its last value.

    For what the server shows only through its ``health`` verb: the
    admission gate signals a freed slot, never an arrival, so there is
    no event to wait on for "N queries wait at the gate".  The bound is
    loose on purpose: the loop returns as soon as the condition holds
    (milliseconds on an idle host), and ten seconds only caps a host too
    loaded to schedule the waiting threads; the caller asserts the
    exact state afterwards, so a late arrival cannot pass unseen."""
    deadline = time.monotonic() + seconds
    while not (value := condition()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return value


class TestConnectionThreads:
    """One thread per connection: what ``stop`` waits for, the admission
    gate as the one queue, and the state connections share."""

    def test_stop_returns_with_an_idle_client_connected(self):
        harness = _ServerHarness().__enter__()
        idle = ServiceClient(*harness.address, retries=0).connect()
        try:
            started = time.monotonic()
            harness.__exit__(None, None, None)
            assert time.monotonic() - started < 2.0
            with pytest.raises(ServiceRetryableError):
                idle.ping()  # the server hung up on it
        finally:
            idle._teardown()

    def test_stop_answers_the_query_in_flight(self):
        ja, jb = join_pair(10, 8, 4, seed=31)
        pool = EnginePool(faults=parse_faults("slow:join0:0.3", seed=0))
        running = threading.Event()
        run_fresh = pool._run_fresh

        def noted_run_fresh(*args, **kwargs):
            running.set()  # admitted: the gate's slot is held
            return run_fresh(*args, **kwargs)

        pool._run_fresh = noted_run_fresh
        harness = _ServerHarness(pool=pool).__enter__()
        stopped = False
        db = ServiceClient(*harness.address, retries=0).connect()
        try:
            db.store("R", ja)
            db.store("S", jb)
            reply: dict = {}
            asker = threading.Thread(
                target=lambda: reply.update(db.query("join(R, S, #0 == #0)"))
            )
            asker.start()
            assert running.wait(10.0), "the query never started"
            harness.__exit__(None, None, None)
            stopped = True
            asker.join(10.0)
            assert not asker.is_alive()
            assert reply["ok"]
            assert reply["rows"] == len(reply["relation"]["rows"])
        finally:
            db._teardown()
            if not stopped:
                harness.__exit__(None, None, None)

    def test_every_waiting_query_waits_at_the_gate(self):
        """One slot and more connections than a default thread-pool
        executor has workers: every query but the running one waits at
        the admission gate, where priority and the admission timeout
        see it."""
        connections = (os.cpu_count() or 1) + 6
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        pool = EnginePool(max_concurrent=1)
        release = threading.Event()
        run_fresh = pool._run_fresh

        def slow_run_fresh(*args, **kwargs):
            release.wait(30.0)
            return run_fresh(*args, **kwargs)

        pool._run_fresh = slow_run_fresh
        with _ServerHarness(pool=pool) as harness:
            with ServiceClient(*harness.address, tenant="acme") as db:
                db.store("A", a)
                db.store("B", b)
            replies = []

            def ask():
                with ServiceClient(
                    *harness.address, tenant="acme", retries=0
                ) as db:
                    replies.append(db.query("intersect(A, B)"))

            askers = [threading.Thread(target=ask) for _ in range(connections)]
            for asker in askers:
                asker.start()
            try:
                with ServiceClient(*harness.address) as probe:
                    waiting = connections - 1
                    _wait_for(
                        lambda: probe.health()["admission"]["waiting"]
                        == waiting
                    )
                    admission = probe.health()["admission"]
                assert admission == {
                    "limit": 1, "active": 1, "waiting": waiting,
                }
            finally:
                release.set()
                for asker in askers:
                    asker.join(30.0)
            assert not any(asker.is_alive() for asker in askers)
            assert len(replies) == connections
            assert all(reply["ok"] for reply in replies)

    def test_one_tenants_concurrent_stores_keep_its_codes_dense(self):
        """Two connections of one tenant store, at once, relations whose
        new string values are the same words in the same order: each
        domain still gives every value one code, densely, and both
        relations read back exactly."""
        schema = Schema.of(("word", Domain("word")), ("tag", Domain("tag")))

        def relation(round_: int, tag: str) -> Relation:
            return Relation.from_values(schema, [
                (f"r{round_}w{i}", f"{tag}{i % 7}") for i in range(3000)
            ])

        sent = {
            "R1": [relation(r, "a") for r in range(5)],
            "R2": [relation(r, "b") for r in range(5)],
        }
        errors: list[BaseException] = []
        together = threading.Barrier(len(sent), timeout=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _ServerHarness(backend="lattice") as harness:

                def store(name: str) -> None:
                    try:
                        with ServiceClient(
                            *harness.address, tenant="acme"
                        ) as db:
                            for each in sent[name]:
                                together.wait()
                                db.store(name, each)
                    except Exception as exc:
                        errors.append(exc)

                writers = [
                    threading.Thread(target=store, args=(name,))
                    for name in sent
                ]
                for writer in writers:
                    writer.start()
                for writer in writers:
                    writer.join(60.0)
                assert not any(writer.is_alive() for writer in writers)
                assert errors == []
                registry, _ = harness._server._registry("acme")
                assert set(registry) == {"word", "tag"}
                for domain in registry.values():
                    members = list(domain)
                    assert len(set(members)) == len(members)
                    assert domain.lookup_many(members) == list(
                        range(len(members))
                    )
                with ServiceClient(*harness.address, tenant="acme") as db:
                    for name, relations in sent.items():
                        rows = db.query(f"dedup({name})")["relation"]["rows"]
                        assert sorted(map(tuple, rows)) == sorted(
                            relations[-1].decoded()
                        )
        finally:
            sys.setswitchinterval(interval)


class TestStatementCache:
    """Query text → optimized plan, server-wide and bounded."""

    TEXT = "project(join(R, S, #0 == #0), #0, #1)"

    def test_same_text_same_plan(self):
        cache = _StatementCache()
        assert cache.plan(self.TEXT) is cache.plan(self.TEXT)
        assert cache.info() == {
            "hits": 1, "misses": 1, "size": 1,
            "maxsize": cache.info()["maxsize"],
        }

    def test_one_entry_serves_every_tenant(self):
        ja, jb = join_pair(10, 8, 4, seed=31)
        with _ServerHarness() as harness:
            host, port = harness.address
            for tenant in ("one", "two"):
                with ServiceClient(host, port, tenant=tenant) as db:
                    db.store("R", ja)
                    db.store("S", jb)
                    assert db.query(self.TEXT)["rows"] > 0
                    stats = db.stats()
            cache = stats["statement_cache"]
            assert cache["hits"] == 1 and cache["misses"] == 1

    def test_malformed_text_raises_every_time(self):
        with _ServerHarness() as harness:
            with ServiceClient(*harness.address) as db:
                for _ in range(3):
                    with pytest.raises(ParseError):
                        db.query("join(R, S")
                stats = db.stats()["statement_cache"]
            assert stats == {**stats, "hits": 0, "misses": 3, "size": 0}

    def test_never_exceeds_its_bound(self):
        cache = _StatementCache()
        bound = cache.info()["maxsize"]
        first = cache.plan("select(R, #0 == 0)")
        for value in range(1, bound + 20):
            cache.plan(f"select(R, #0 == {value})")
            assert cache.info()["size"] <= bound
        assert cache.info()["size"] == bound
        # The oldest text was evicted: planned afresh, a new object.
        assert cache.plan("select(R, #0 == 0)") is not first

    def test_long_text_is_served_uncached(self):
        cache = _StatementCache()
        text = "select(R, #0 == 1)"
        padded = text + " " * (_STATEMENT_MAX_CHARS + 1 - len(text))
        assert len(padded) > _STATEMENT_MAX_CHARS
        first = cache.plan(padded)
        assert cache.plan(padded) is not first
        assert plan_fingerprint([first]) == plan_fingerprint(
            [cache.plan(text)]
        )
        assert cache.info()["size"] == 1  # only the short text

    def test_connection_threads_share_it(self):
        """8 threads × 200 plans over more texts than the bound: every
        lookup is counted once and the bound holds throughout."""
        cache = _StatementCache()
        bound = cache.info()["maxsize"]
        texts = [f"select(R, #0 == {i})" for i in range(bound + bound // 4)]
        sizes: list[int] = []
        errors: list[BaseException] = []

        def plan_some(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    cache.plan(rng.choice(texts))
                    sizes.append(cache.info()["size"])
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=plan_some, args=(seed,))
            for seed in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = cache.info()
        assert info["hits"] + info["misses"] == 8 * 200
        assert max(sizes) <= bound and info["size"] <= bound


class TestPersistence:
    """``--store-dir``: persisted relations survive a server restart."""

    def test_persisted_relations_survive_restart(self, tmp_path):
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        expected = sorted(algebra.intersection(a, b).decoded())
        root = tmp_path / "srv"

        with _ServerHarness(store_dir=root) as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="acme") as db:
                reply = db.store("A", a, persist=True)
                assert reply["persisted"]
                db.store("B", b, persist=True)

        # A brand-new server process (fresh pool, same store_dir):
        # nothing survives but the columnar files on disk.
        with _ServerHarness(store_dir=root) as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="acme") as db:
                reply = db.query("intersect(A, B)")
                got = sorted(tuple(r) for r in reply["relation"]["rows"])
                assert got == expected
        assert (root / "acme" / "A" / "manifest.json").is_file()

    def test_stats_report_the_chunk_pool(self, tmp_path):
        """A query read again takes its persisted chunks from the pool,
        which keeps a chunk at its second miss."""
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        root = tmp_path / "srv"
        with _ServerHarness(store_dir=root) as harness:
            with ServiceClient(*harness.address, tenant="acme") as db:
                db.store("A", a, persist=True)
                db.store("B", b, persist=True)
        with _ServerHarness(store_dir=root) as harness:
            with ServiceClient(*harness.address, tenant="acme") as db:
                seen = [db.stats()["chunk_pool"]]
                for _ in range(3):
                    db.query("intersect(A, B)")
                    seen.append(db.stats()["chunk_pool"])
        before, cold, kept, warm = seen
        assert before["budget_bytes"] == CHUNK_POOL_BYTES
        assert cold["misses"] == before["misses"] + 2
        assert kept["misses"] == cold["misses"] + 2
        assert warm["misses"] == kept["misses"]
        assert warm["hits"] == kept["hits"] + 2

    def test_tenants_get_separate_store_directories(self, tmp_path):
        a, b = overlapping_pair(8, 6, 4, arity=2, seed=7)
        with _ServerHarness(store_dir=tmp_path / "srv") as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="one") as db:
                db.store("A", a, persist=True)
            with ServiceClient(host, port, tenant="two") as db:
                db.store("A", b, persist=True)
        assert (tmp_path / "srv" / "one" / "A").is_dir()
        assert (tmp_path / "srv" / "two" / "A").is_dir()

    def test_persist_without_store_dir_is_refused(self):
        a, _ = overlapping_pair(6, 4, 3, arity=2, seed=3)
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                with pytest.raises(ReproError, match="persistence root"):
                    db.store("A", a, persist=True)
                # Plain (memory-only) stores still work.
                assert db.store("A", a)["ok"]

    def test_persist_on_sharded_server_is_refused(self):
        a, _ = overlapping_pair(6, 4, 3, arity=2, seed=3)
        with _ServerHarness(shards=2) as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                with pytest.raises(ReproError, match="sharded"):
                    db.store("A", a, persist=True)

    def test_a_sharded_server_refuses_a_store_dir(self, tmp_path, capsys):
        """A sharded session never reads the catalog a store attaches
        to, so relations persisted by an unsharded run would silently
        be missing: refused up front, by the library and by the CLI."""
        from repro.__main__ import main

        with pytest.raises(ConfigError, match="single-machine feature"):
            ReproServer(shards=2, store_dir=tmp_path)
        assert ReproServer(shards=1, store_dir=tmp_path).store_dir == tmp_path
        code = main(["serve", "--shards", "2", "--store-dir", str(tmp_path)])
        assert code == 1
        assert "single-machine feature" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unsafe_tenant_name_is_refused_when_persistent(self, tmp_path):
        with _ServerHarness(store_dir=tmp_path / "srv") as harness:
            host, port = harness.address
            client = ServiceClient(host, port, retries=0)
            with pytest.raises(ReproError, match="filesystem-safe"):
                with client as db:
                    db.hello("../escape")
