"""Serving-layer robustness: protocol fuzzing, desync-safe timeouts,
mid-query disconnects, deadlines, and the health heartbeat."""

from __future__ import annotations

import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AdmissionError,
    DeadlineError,
    ParseError,
    PlanError,
    ReproError,
    ServiceRetryableError,
    error_class,
)
from repro.faults import parse_faults
from repro.serve import ServiceClient, decode_line, encode_line
from repro.serve.protocol import MAX_LINE_BYTES
from repro.workloads import join_pair, overlapping_pair

from .test_serve import _ServerHarness

FUZZ = settings(max_examples=50, deadline=None)


class TestDecodeLineFuzz:
    @FUZZ
    @given(line=st.binary(max_size=256))
    def test_arbitrary_bytes_never_escape_repro_error(self, line):
        """decode_line either parses a dict or raises ReproError —
        never UnicodeDecodeError, JSONDecodeError, or anything else."""
        try:
            payload = decode_line(line)
        except ReproError:
            return
        assert isinstance(payload, dict)

    @FUZZ
    @given(text=st.text(max_size=256))
    def test_arbitrary_text_never_escapes_repro_error(self, text):
        try:
            payload = decode_line(text)
        except ReproError:
            return
        assert isinstance(payload, dict)

    @FUZZ
    @given(
        payload=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=16), st.booleans()),
            max_size=4,
        ),
        cut=st.integers(min_value=1, max_value=64),
    )
    def test_truncated_lines_raise_not_crash(self, payload, cut):
        line = encode_line(payload)
        truncated = line[:max(0, len(line) - cut)]
        try:
            decoded = decode_line(truncated)
        except ReproError:
            return
        assert isinstance(decoded, dict)

    def test_oversized_line_is_refused_before_parsing(self):
        huge = b"x" * (MAX_LINE_BYTES + 1)
        with pytest.raises(ReproError, match="exceeds"):
            decode_line(huge)
        with pytest.raises(ReproError, match="exceeds"):
            decode_line("y" * (MAX_LINE_BYTES + 1))

    def test_largest_allowed_line_still_parses(self):
        padding = "z" * (MAX_LINE_BYTES - 100)
        line = encode_line({"op": "ping", "pad": padding})
        assert len(line) <= MAX_LINE_BYTES
        assert decode_line(line)["op"] == "ping"


class TestOversizedLineOnALiveServer:
    def test_it_is_answered_and_the_connection_closed(self):
        """The rest of an oversized line is never read, so the server
        answers with an error naming the limit and hangs up; other
        connections are unaffected."""
        with _ServerHarness() as harness:
            sock = socket.create_connection(harness.address, timeout=30.0)
            reader = sock.makefile("rb")

            def send() -> None:
                try:
                    sock.sendall(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
                except OSError:
                    pass  # the server hung up before reading it all

            sender = threading.Thread(target=send)
            sender.start()
            try:
                reply = decode_line(reader.readline())
                try:
                    rest = reader.readline()
                except ConnectionResetError:
                    rest = b""
            finally:
                sender.join(30.0)
                reader.close()
                sock.close()
            assert not sender.is_alive()
            assert reply["ok"] is False and reply["kind"] == "ReproError"
            assert f"{MAX_LINE_BYTES}-byte limit" in reply["error"]
            assert rest == b""  # the connection was closed
            with ServiceClient(*harness.address, retries=0) as other:
                assert other.ping()


#: Anything JSON can put where a relation's ``rows`` belong.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=4),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestStoreRowsFuzz:
    """A ``store`` whose ``rows`` are not a list of flat rows — nested
    wrong, ``null``, a string — is answered (stored, or refused with an
    error reply) and the connection stays usable."""

    @staticmethod
    def _store(db, rows):
        try:
            reply = db._request({
                "op": "store", "name": "R",
                "relation": {
                    "columns": [["a", "d"], ["b", "d"]], "rows": rows,
                },
            })
        except ServiceRetryableError:
            raise  # the server dropped the connection: a real failure
        except ReproError:
            return None
        return reply["rows"]

    def test_arbitrary_rows_get_a_reply_and_keep_the_connection(self):
        with _ServerHarness() as harness:
            with ServiceClient(*harness.address, retries=0) as db:

                @FUZZ
                @given(rows=JSON_VALUES)
                def check(rows):
                    stored = self._store(db, rows)
                    assert stored is None or isinstance(stored, int)
                    assert db.ping()

                check()

    def test_malformed_rows_are_refused_not_fatal(self):
        malformed = [
            None, "ab", 7, {"a": 1}, [None], [7], ["ab", None],
            [[1, 2], [3]], [[1, 2], None], [[1, [2]]], [[{"k": 1}, 2]],
            [[[1, 2]]], [[1, 2], "ab", [3, 4]],
        ]
        with _ServerHarness() as harness:
            with ServiceClient(*harness.address, retries=0) as db:
                for rows in malformed:
                    self._store(db, rows)
                    # Well-formed rows still store afterwards.
                    assert self._store(db, [["x", "y"], ["y", "z"]]) == 2
                assert db.ping()


class TestErrorMapping:
    def test_error_class_maps_kinds_to_repro_errors(self):
        assert error_class("PlanError") is PlanError
        assert error_class("ParseError") is ParseError
        assert error_class("AdmissionError") is AdmissionError
        assert error_class("DeadlineError") is DeadlineError
        # Unknown or non-error kinds degrade to the base class.
        assert error_class("NoSuchError") is ReproError
        assert error_class("Relation") is ReproError
        assert error_class("") is ReproError

    def test_server_errors_keep_their_class_across_the_wire(self):
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                with pytest.raises(ParseError):
                    db.query("this is not algebra")
                with pytest.raises(PlanError):
                    db.query("intersect(NO_SUCH, RELATION)")
                # The connection survives both mapped errors.
                assert db.ping()


class TestClientTimeoutDesync:
    def test_timeout_tears_down_and_reconnect_recovers(self):
        """A socket timeout mid-request poisons the stream (the late
        reply would answer the *next* request); the client must tear
        the connection down, raise retryable, and recover by
        reconnecting — never read the stale reply."""
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        ja, jb = join_pair(10, 8, 4, seed=31)
        faults = parse_faults("slow:join0:1.5", seed=0)
        with _ServerHarness(faults=faults) as harness:
            host, port = harness.address
            db = ServiceClient(host, port, timeout=30.0, retries=0)
            db.connect()
            try:
                db.store("A", a)
                db.store("B", b)
                db.store("R", ja)
                db.store("S", jb)
                # Only the slowed query runs under the short bound: on a
                # slow host the setup above may take longer than 0.4s.
                db.timeout = 0.4
                db._sock.settimeout(db.timeout)
                with pytest.raises(ServiceRetryableError, match="torn down"):
                    db.query("join(R, S, #0 == #0)")   # slowed past 0.4s
                assert db._sock is None                # connection dropped
                # The next request reconnects (fresh hello) and gets
                # *its own* answer, not the slow query's late reply.
                db.timeout = 30.0
                reply = db.query("intersect(A, B)")
                assert reply["ok"]
                assert db.ping()
            finally:
                db.close()

    def test_retry_policy_survives_a_server_restart(self):
        """ServiceRetryableError retries on a fresh connection: kill
        the socket out from under the client and the next request
        reconnects transparently."""
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port, retries=2) as db:
                db.store("A", a)
                db.store("B", b)
                db._sock.close()                  # simulate a dead peer
                reply = db.query("intersect(A, B)")
                assert reply["rows"] >= 0


class TestMidQueryDisconnect:
    def test_disconnect_mid_query_does_not_wedge_the_pool(self):
        """A client that sends a query and vanishes must not leak its
        admission slot: the next client's query still runs."""
        ja, jb = join_pair(10, 8, 4, seed=31)
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        faults = parse_faults("slow:join0:0.3", seed=0)
        with _ServerHarness(max_concurrent=1, faults=faults) as harness:
            host, port = harness.address
            rude = ServiceClient(host, port, tenant="acme")
            rude.connect()
            rude.store("R", ja)
            rude.store("S", jb)
            # Fire the slow query and slam the connection shut without
            # ever reading the reply.
            rude._sock.sendall(
                encode_line({"op": "query", "expr": "join(R, S, #0 == #0)"})
            )
            rude._teardown()
            # The abandoned query finishes server-side and releases its
            # slot; a polite client then gets the only slot and answers.
            with ServiceClient(host, port, tenant="acme") as db:
                db.store("A", a)
                db.store("B", b)
                reply = db.query("intersect(A, B)", timeout=10.0)
                assert reply["ok"]


class TestDeadlineOverTheWire:
    def test_hung_query_raises_deadline_error_and_server_survives(self):
        ja, jb = join_pair(10, 8, 4, seed=31)
        a, b = overlapping_pair(10, 8, 5, arity=2, seed=9)
        faults = parse_faults("slow:join0:30", seed=0)
        with _ServerHarness(
            max_concurrent=1, faults=faults, query_deadline=0.3,
        ) as harness:
            host, port = harness.address
            with ServiceClient(host, port, tenant="acme") as db:
                db.store("R", ja)
                db.store("S", jb)
                db.store("A", a)
                db.store("B", b)
                with pytest.raises(DeadlineError, match="deadline"):
                    db.query("join(R, S, #0 == #0)")
                # The slot came back; an unslowed query still runs.
                reply = db.query("intersect(A, B)")
                assert reply["ok"]


class TestHealthVerb:
    def test_health_reports_gate_deadline_and_fault_ledger(self):
        faults = parse_faults("device:join0:1", seed=0)
        with _ServerHarness(
            faults=faults, query_deadline=5.0,
        ) as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                health = db.health()
                assert health["status"] == "ok"
                assert health["query_deadline"] == 5.0
                assert health["shards"] == 1
                assert health["admission"]["active"] == 0
                assert health["faults"]["rules"] == ["device:join0"]

    def test_health_without_faults_reports_none(self):
        with _ServerHarness() as harness:
            host, port = harness.address
            with ServiceClient(host, port) as db:
                assert db.health()["faults"] is None
