"""Loopback HTTP smoke tests: the asyncio frontend, the load
generator, and the trace/stats counter-consistency contract."""

from __future__ import annotations

import errno
import http.client
import json
import math
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checks.sanitize import ReportSink
from repro.core.clock import SimClock
from repro.live import server as server_module
from repro.live.loadgen import fetch_stats, run_loadgen
from repro.live.server import (
    _MAX_BODY_BYTES,
    _MAX_HEADER_BYTES,
    _MEMO_HEAD_BYTES,
    _MEMO_HEADS,
    _REASONS,
    _WRITE_CHUNK_BYTES,
    LiveHTTPServer,
    ServerThread,
    _BadBody,
    _Connection,
    _SocketWriter,
    _encode_response,
    _json_object,
)
from repro.live.service import AdmitDecision, LivePoolService
from repro.obs.tracer import Tracer
from repro.sim.scheduler import simulate
from repro.traces.synth import skewed_frequency_trace

MEMORY_MB = 2048.0


@pytest.fixture()
def live_server():
    """A sim-clock service with a ReportSink tracer behind the asyncio
    frontend on an ephemeral loopback port."""
    trace = skewed_frequency_trace(seed=21)
    sink = ReportSink()
    service = LivePoolService(
        trace, "GD", MEMORY_MB, clock=SimClock(), tracer=Tracer(sink)
    )
    thread = ServerThread(service).start()
    try:
        yield trace, service, sink, thread
    finally:
        thread.stop()


def _request(thread, method, path, body=None):
    conn = http.client.HTTPConnection(thread.host, thread.port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, live_server):
        __, __, __, thread = live_server
        status, payload = _request(thread, "GET", "/healthz")
        assert (status, payload) == (200, {"ok": True})

    def test_admit_and_stats(self, live_server):
        trace, __, __, thread = live_server
        name = next(iter(trace.functions))
        status, payload = _request(
            thread, "POST", "/admit", {"function": name, "now_s": 1.0}
        )
        assert status == 200
        assert payload["outcome"] == "cold"
        assert payload["now_s"] == 1.0
        assert payload["decision_us"] > 0.0
        status, stats = _request(thread, "GET", "/stats")
        assert status == 200
        assert stats["decisions"] == {"cold": 1}
        assert stats["counters"]["cold_starts"] == 1
        assert stats["http"]["errors_5xx"] == 0

    def test_release_endpoint(self, live_server):
        trace, __, __, thread = live_server
        name = next(iter(trace.functions))
        _request(thread, "POST", "/admit", {"function": name, "now_s": 1.0})
        status, payload = _request(
            thread, "POST", "/release", {"now_s": 10_000.0}
        )
        assert (status, payload) == (200, {"released": 1})

    def test_unknown_function_is_404(self, live_server):
        __, __, __, thread = live_server
        status, payload = _request(
            thread, "POST", "/admit", {"function": "nope"}
        )
        assert status == 404
        assert "unknown function" in payload["error"]

    def test_bad_json_is_400(self, live_server):
        __, __, __, thread = live_server
        conn = http.client.HTTPConnection(
            thread.host, thread.port, timeout=10
        )
        try:
            conn.request("POST", "/admit", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize("path", ["/admit", "/release"])
    @pytest.mark.parametrize("body", [b"[1,2]", b'"x"', b"7", b"null"])
    def test_non_object_json_is_400(self, live_server, path, body):
        __, __, __, thread = live_server
        conn = http.client.HTTPConnection(
            thread.host, thread.port, timeout=10
        )
        try:
            conn.request("POST", path, body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read()) == {
                "error": "body must be a JSON object"
            }
        finally:
            conn.close()
        assert thread.server.http_counts()["errors_5xx"] == 0

    @pytest.mark.parametrize("path", ["/admit", "/release"])
    @pytest.mark.parametrize(
        "now_s",
        [
            "Infinity", "-Infinity", "NaN", "true", "1e999",
            pytest.param("1" + "0" * 400, id="int-beyond-float"),
        ],
    )
    def test_non_finite_now_s_is_400_and_leaves_the_clock(
        self, live_server, path, now_s
    ):
        trace, service, __, thread = live_server
        name = next(iter(trace.functions))
        body = b'{"function": "%b", "now_s": %b}' % (
            name.encode(), now_s.encode()
        )
        conn = http.client.HTTPConnection(
            thread.host, thread.port, timeout=10
        )
        try:
            conn.request("POST", path, body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert "now_s" in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert service.clock.now() == 0.0
        status, payload = _request(
            thread, "POST", "/admit", {"function": name, "now_s": 2.0}
        )
        assert (status, payload["now_s"]) == (200, 2.0)
        assert thread.server.http_counts()["errors_5xx"] == 0

    def test_missing_function_field_is_400(self, live_server):
        __, __, __, thread = live_server
        status, __ = _request(thread, "POST", "/admit", {"now_s": 1.0})
        assert status == 400

    def test_unknown_route_is_404_and_wrong_method_405(self, live_server):
        __, __, __, thread = live_server
        assert _request(thread, "GET", "/nope")[0] == 404
        assert _request(thread, "GET", "/admit")[0] == 405
        assert _request(thread, "POST", "/stats")[0] == 405


class TestLoopbackSmoke:
    """serve + loadgen in-process: the sim/live/tracer triangle."""

    def test_pipeline_replay_matches_sim_and_tracer(self, live_server):
        trace, service, sink, thread = live_server
        report = run_loadgen(
            trace, thread.host, thread.port, mode="pipeline", limit=4000
        )
        # Zero 5xx, every request answered.
        assert report.errors_5xx == 0
        assert report.completed == report.sent == 4000
        assert report.statuses == {200: 4000}
        assert report.achieved_qps > 0.0
        assert report.decision_latency.count == 4000

        # /stats counters == the service's own == the tracer's rebuilt
        # counters (the repro.obs consistency contract, live).
        stats = fetch_stats(thread.host, thread.port)
        assert stats["decisions"] == report.outcomes
        assert stats["counters"] == service.counters()
        assert sink.report.check_counters(stats["counters"]) == []

    def test_live_http_equals_offline_replay(self):
        trace = skewed_frequency_trace(seed=23)
        service = LivePoolService(trace, "GD", MEMORY_MB, clock=SimClock())
        thread = ServerThread(service).start()
        try:
            report = run_loadgen(trace, thread.host, thread.port)
        finally:
            thread.stop()
        assert report.errors_5xx == 0
        assert report.completed == len(trace)
        offline = simulate(trace, "GD", MEMORY_MB)
        assert service.counters() == offline.metrics.counters()

    @staticmethod
    def _ticking_server_with_one_idle_container_due():
        """One fast function so the invocation completes in real
        milliseconds; then the background tick alone must expire the
        idle container (no further arrivals to piggyback on)."""
        from repro.core.policies.base import create_policy
        from repro.traces.model import Trace, TraceFunction

        trace = Trace(
            [
                TraceFunction(
                    name="quick",
                    memory_mb=64.0,
                    warm_time_s=0.001,
                    cold_time_s=0.005,
                )
            ],
            [],
            name="timer-test",
        )
        service = LivePoolService(
            trace, create_policy("TTL", ttl_s=0.05), MEMORY_MB
        )
        return service, ServerThread(service, tick_interval_s=0.02)

    @staticmethod
    def _stats_once_expired(thread):
        status, __ = _request(thread, "POST", "/admit", {"function": "quick"})
        assert status == 200
        stats = None
        for __ in range(250):  # up to ~5 s on a loaded machine
            stats = fetch_stats(thread.host, thread.port)
            if stats["counters"]["expirations"] >= 1:
                break
            time.sleep(0.02)
        assert stats is not None
        assert stats["counters"]["expirations"] >= 1
        assert stats["pool"]["containers"] == 0
        return stats

    def test_expiry_timer_drains_idle_pool(self):
        __, thread = self._ticking_server_with_one_idle_container_due()
        thread.start()
        try:
            stats = self._stats_once_expired(thread)
            assert stats["http"]["tick_errors"] == 0
        finally:
            thread.stop()

    def test_expiry_timer_survives_a_failing_tick(self, monkeypatch):
        service, thread = self._ticking_server_with_one_idle_container_due()
        expire_tick = service.expire_tick
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return expire_tick(*args)

        monkeypatch.setattr(service, "expire_tick", fails_once)
        thread.start()
        try:
            # The failed tick is counted and the next one still drains.
            stats = self._stats_once_expired(thread)
            assert stats["http"]["tick_errors"] == 1
            assert stats["http"]["errors_5xx"] == 0
        finally:
            thread.stop()  # and stop() has nothing to re-raise
        assert len(calls) >= 2

    @pytest.mark.parametrize(
        "interval", [-0.25, math.nan, math.inf, -math.inf],
        ids=["negative", "nan", "inf", "-inf"],
    )
    def test_tick_interval_must_be_finite_and_non_negative(self, interval):
        # nan fails every comparison: it once passed a "< 0" check and
        # ran no expiry timer at all; inf started one that never fired.
        __, service = _sim_service()
        with pytest.raises(ValueError, match="must be a finite number >= 0"):
            LiveHTTPServer(service, tick_interval_s=interval)
        with pytest.raises(ValueError, match="must be a finite number >= 0"):
            ServerThread(service, tick_interval_s=interval)


# ----------------------------------------------------------------------
# The connection protocol, driven directly (no socket, no event loop)
# ----------------------------------------------------------------------


class FakeTransport:
    """Records what a connection hands its transport."""

    def __init__(self):
        self.written = bytearray()
        self.writes = 0
        self.closed = False

    def write(self, data):
        assert not self.closed, "write after close"
        self.written += data
        self.writes += 1

    def close(self):
        self.closed = True


class GatedTransport(FakeTransport):
    """A client that reads only when let: each write blocks, as a
    ``sendall`` to a full socket does, until :meth:`let_through`."""

    def __init__(self):
        super().__init__()
        self.sizes = []
        self.entered = threading.Semaphore(0)  # released by each write begun
        self._gate = threading.Semaphore(0)

    def write(self, data):
        super().write(data)
        self.sizes.append(len(data))
        self.entered.release()
        assert self._gate.acquire(timeout=10), "the write was never let through"

    def let_through(self):
        self._gate.release()


def _sim_service(seed=21):
    trace = skewed_frequency_trace(seed=seed)
    return trace, LivePoolService(trace, "GD", MEMORY_MB, clock=SimClock())


def _connect(server, transport=None):
    connection = _Connection(server)
    transport = FakeTransport() if transport is None else transport
    connection.connection_made(transport)
    return connection, transport


def _gated(server, stream, total):
    """Feed ``stream`` to a connection on a thread of its own, each of
    its writes blocked until this side has checked that nothing past
    the replies already written was answered; the parsed answers and
    the size of each write."""
    connection, transport = _connect(server, GatedTransport())
    reader = threading.Thread(target=connection.data_received, args=(stream,))
    reader.start()
    answered = 0
    try:
        while answered < total:
            assert transport.entered.acquire(timeout=10), "no write came"
            answered = len(_split_responses(transport.written))
            assert server.http_counts()["requests"] == answered
            transport.let_through()
    finally:
        transport.let_through()  # a failed check leaves no thread behind
        reader.join(10)
    assert not reader.is_alive()
    return _split_responses(transport.written), transport.sizes


def _raw(method, path, body=b"", headers=(), version="HTTP/1.1"):
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def _admit(name, now_s, headers=()):
    body = json.dumps({"function": name, "now_s": now_s}).encode()
    return _raw("POST", "/admit", body, headers)


def _split_responses(data):
    """``[(status, Connection header, payload)]`` with everything that
    reads a wall clock, or counts transport writes or admit batches,
    taken out."""
    responses = []
    data = bytes(data)
    at = 0
    while at < len(data):
        head_end = data.index(b"\r\n\r\n", at)
        lines = data[at:head_end].decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        at = head_end + 4 + int(headers["Content-Length"])
        assert at <= len(data), "truncated response"
        payload = json.loads(data[head_end + 4:at])
        payload.pop("decision_us", None)
        payload.pop("decision_latency", None)
        payload.pop("uptime_s", None)
        payload.get("http", {}).pop("writes", None)
        payload.get("http", {}).pop("admit_batches", None)
        responses.append(
            (int(lines[0].split(" ")[1]), headers["Connection"], payload)
        )
    return responses


def _answers(stream, cuts, server=None):
    """Feed ``stream`` to a fresh connection of a fresh service (or of
    ``server``), split at ``cuts``; the parsed responses and the
    transport."""
    if server is None:
        server = LiveHTTPServer(_sim_service()[1])
    connection, transport = _connect(server)
    for start, end in zip([0, *cuts], [*cuts, len(stream)]):
        if transport.closed:  # a closed transport delivers no more
            break
        connection.data_received(stream[start:end])
    return _split_responses(transport.written), transport


class TestProtocolFraming:
    def _mixed_stream(self):
        trace, __ = _sim_service()
        names = list(trace.functions)[:6]
        requests = [
            _admit(name, float(i)) for i, name in enumerate(names * 3)
        ]
        requests[4:4] = [
            _raw("GET", "/stats"),
            _raw("POST", "/admit", b"{not json"),
            _raw("GET", "/nope"),
            _raw("GET", "/admit"),
            _admit("no-such-function", 5.0),
            _raw("POST", "/release", b'{"now_s":7.5}'),
            b"POST /admit HTTP/1.1\r\ncontent-length:  2 \r\n\r\n{}",
            b"BROKEN\r\n\r\n",
            _raw("GET", "/healthz", headers=["Connection: Keep-Alive"]),
        ]
        requests.append(_raw("GET", "/stats"))
        return b"".join(requests), len(requests)

    def test_feeding_does_not_change_the_answers(self):
        stream, count = self._mixed_stream()
        whole, transport = _answers(stream, [])
        assert len(whole) == count
        assert transport.writes == 1  # one read, one write
        assert not transport.closed
        statuses = [status for status, __, __ in whole]
        assert set(statuses) == {200, 400, 404, 405}
        assert whole[-1][2]["http"]["requests"] == count - 1
        by_byte, __ = _answers(stream, range(1, len(stream)))
        assert by_byte == whole
        for seed in range(5):
            rng = random.Random(seed)
            cuts = sorted(rng.sample(range(1, len(stream)), 25))
            assert _answers(stream, cuts)[0] == whole, f"seed {seed}"

    def test_a_warm_head_memo_does_not_change_the_answers(self):
        stream, __ = self._mixed_stream()
        cold, __ = _answers(stream, [])
        seen = LiveHTTPServer(_sim_service()[1])
        _answers(stream, [], seen)
        # One miss per distinct head, and the stream repeats its heads.
        assert len(seen._heads) == cold[-1][2]["http"]["head_misses"]
        assert 0 < len(seen._heads) < len(cold)

        def warm_answers(cuts):
            """A fresh service behind a memo that has seen it all."""
            server = LiveHTTPServer(_sim_service()[1])
            server._heads.update(seen._heads)
            answers, __ = _answers(stream, cuts, server)
            # Every head of the stream can be framed, so none misses.
            assert server.http_counts()["head_misses"] == 0
            return answers

        for __, __, payload in cold:
            payload.get("http", {})["head_misses"] = 0
        assert warm_answers([]) == cold
        assert warm_answers(range(1, len(stream))) == cold
        for seed in range(5):
            rng = random.Random(seed)
            cuts = sorted(rng.sample(range(1, len(stream)), 25))
            assert warm_answers(cuts) == cold, f"seed {seed}"

    def test_head_at_the_limit_is_served_however_it_arrives(self):
        padding = "X-Pad: " + "x" * (_MAX_HEADER_BYTES - 42)
        request = _raw("GET", "/healthz", headers=[padding])
        assert request.index(b"\r\n\r\n") == _MAX_HEADER_BYTES
        expected = [(200, "keep-alive", {"ok": True})]
        assert _answers(request, [])[0] == expected
        assert _answers(request, range(1, len(request)))[0] == expected

    def test_oversized_head_is_400_and_close(self):
        padding = "X-Pad: " + "x" * _MAX_HEADER_BYTES
        for request in (
            _raw("GET", "/healthz", headers=[padding]),
            b"x" * (_MAX_HEADER_BYTES + 4),  # no terminator in sight
        ):
            stream = _raw("GET", "/healthz") + request
            for cuts in ([], range(1, len(stream))):
                responses, transport = _answers(stream, cuts)
                assert responses == [
                    (200, "keep-alive", {"ok": True}),
                    (400, "close", {"error": "headers too large"}),
                ]
                assert transport.closed

    @pytest.mark.parametrize(
        "header, status, error",
        [
            (f"Content-Length: {_MAX_BODY_BYTES + 1}", 413, "body too large"),
            ("Content-Length: " + "9" * 5000, 413, "body too large"),
            ("Content-Length: -5", 400, "malformed request"),
            ("Content-Length: five", 400, "malformed request"),
            ("Content-Length: 2\r\nContent-Length: 3", 400, "malformed request"),
            (
                "Transfer-Encoding: chunked",
                400,
                "transfer-encoding is not supported",
            ),
        ],
        ids=[
            "over-limit", "beyond-int", "negative", "not-a-number",
            "duplicated", "transfer-encoding",
        ],
    )
    def test_unframed_request_is_refused_and_closes(
        self, header, status, error
    ):
        # The bytes behind the refused head would parse as requests if
        # the server read on: exactly one reply, then nothing.
        stream = (
            _raw("GET", "/healthz")
            + _raw("POST", "/admit", headers=[header])
            + b'2\r\n{}\r\n0\r\n\r\n'
            + _raw("GET", "/healthz")
        )
        # On one server: a refusal is refused again, never remembered.
        server = LiveHTTPServer(_sim_service()[1])
        for cuts in ([], range(1, len(stream)), []):
            responses, transport = _answers(stream, cuts, server)
            assert responses == [
                (200, "keep-alive", {"ok": True}),
                (status, "close", {"error": error}),
            ]
            assert transport.closed
        assert list(server._heads) == [_raw("GET", "/healthz")[:-2]]
        assert server.http_counts()["head_misses"] == 1 + 3

    def test_a_remembered_head_does_not_outlive_the_body_limit(
        self, monkeypatch
    ):
        server = LiveHTTPServer(_sim_service()[1])
        stream = _raw("POST", "/release", b" " * 98 + b"{}")
        served = [(200, "keep-alive", {"released": 0})]
        assert _answers(stream, [], server)[0] == served
        assert _answers(stream, [], server)[0] == served
        # The second came from the memo.
        assert server.http_counts()["head_misses"] == 1
        monkeypatch.setattr(server_module, "_MAX_BODY_BYTES", 99)
        responses, transport = _answers(stream, [], server)
        assert responses == [(413, "close", {"error": "body too large"})]
        assert transport.closed
        monkeypatch.undo()
        assert _answers(stream, [], server)[0] == served

    def test_distinct_heads_leave_the_memo_within_its_bound(
        self, monkeypatch
    ):
        trace, __ = _sim_service()
        names = list(trace.functions)
        rng = random.Random(18)

        def distinct(i):
            """Some request under a head no other request has."""
            headers = [f"traceparent: 00-{i:032x}-{rng.getrandbits(64):016x}-01"]
            if rng.random() < 0.1:  # too long to be remembered
                headers.append("X-Pad: " + "x" * _MEMO_HEAD_BYTES)
            kind = rng.randrange(4)
            if kind == 0:
                return _admit(rng.choice(names), float(i), headers)
            if kind == 1:
                return _raw("POST", "/release", b'{"now_s":%d}' % i, headers)
            if kind == 2:
                return _raw("GET", rng.choice(["/healthz", "/nope"]), headers=headers)
            return b"BROKEN %d\r\n" % i + _raw("GET", "/stats", headers=headers)

        requests = [distinct(i) for i in range(10_000)]
        assert len({r.partition(b"\r\n\r\n")[0] for r in requests}) == 10_000

        def served():
            server = LiveHTTPServer(_sim_service()[1])
            connection, transport = _connect(server)
            for request in requests:
                connection.data_received(request)
                assert len(server._heads) <= _MEMO_HEADS
            assert server.http_counts()["head_misses"] == len(requests)
            assert all(len(head) <= _MEMO_HEAD_BYTES for head in server._heads)
            return _split_responses(transport.written), server

        memoised, server = served()
        assert server._heads
        assert len(memoised) == len(requests)
        # No head is ever remembered: every answer is _frame's own.
        monkeypatch.setattr(server_module, "_MEMO_HEAD_BYTES", 0)
        unremembered, server = served()
        assert not server._heads
        assert memoised == unremembered

    def test_body_at_the_limit_is_read_not_refused(self):
        body = b" " * (_MAX_BODY_BYTES - 2) + b"{}"
        stream = _raw("POST", "/release", body) + _raw("GET", "/healthz")
        responses, transport = _answers(stream, [100, 70_000, 900_000])
        assert responses == [
            (200, "keep-alive", {"released": 0}),
            (200, "keep-alive", {"ok": True}),
        ]
        assert not transport.closed

    @pytest.mark.parametrize(
        "version, headers, closes",
        [
            ("HTTP/1.1", [], False),
            ("HTTP/1.1", ["Connection: close"], True),
            ("HTTP/1.1", ["connection: Close"], True),
            ("HTTP/1.0", [], True),
            ("HTTP/1.0", ["Connection: keep-alive"], False),
        ],
    )
    def test_connection_close_is_honoured(self, version, headers, closes):
        stream = _raw("GET", "/healthz", headers=headers, version=version)
        stream += _raw("GET", "/stats")  # pipelined behind it
        responses, transport = _answers(stream, [])
        assert transport.closed == closes
        assert responses[0] == (
            200, "close" if closes else "keep-alive", {"ok": True}
        )
        assert len(responses) == (1 if closes else 2)

    @pytest.mark.parametrize("space", [b" ", b"\t"], ids=["space", "tab"])
    def test_whitespace_before_a_header_colon_is_refused(self, space):
        # Passed over, the header left the body unread, and the body
        # was framed as the next request's line.
        body = b'{"FUNCTION":"F","NOW_S":1.0}'
        stream = (
            b"POST /admit HTTP/1.1\r\nHost: test\r\nContent-Length%b: %d"
            b"\r\n\r\n%b" % (space, len(body), body)
        ) + _raw("GET", "/healthz")
        responses, transport = _answers(stream, [])
        assert responses == [
            (400, "close", {"error": "whitespace before a header's colon"})
        ]
        assert transport.closed

    def test_a_blocked_write_holds_the_rest_back(self):
        server = LiveHTTPServer(_sim_service()[1])
        total = 400  # ~1 KB of /stats each: several write chunks
        answers, __ = _gated(server, _raw("GET", "/stats") * total, total)
        assert [r[2]["http"]["requests"] for r in answers] == list(range(total))

    def test_a_blocked_write_stops_consuming(self):
        server = LiveHTTPServer(_sim_service()[1])
        connection, transport = _connect(server, GatedTransport())
        total = 400
        reader = threading.Thread(
            target=connection.data_received, args=(_raw("GET", "/stats") * total,)
        )
        reader.start()
        try:
            assert transport.entered.acquire(timeout=10)
            served = server.http_counts()["requests"]
            assert 0 < served < total
            assert len(transport.written) < 2 * _WRITE_CHUNK_BYTES
            time.sleep(0.05)  # blocked means blocked: nothing moves
            assert server.http_counts()["requests"] == served
            assert len(_split_responses(transport.written)) == served
        finally:
            for __ in range(total):
                transport.let_through()
            reader.join(10)
        assert server.http_counts()["requests"] == total

    def test_http_counters(self):
        __, service = _sim_service()
        server = LiveHTTPServer(service)
        first, __ = _connect(server)
        second, transport = _connect(server)
        second.data_received(_raw("GET", "/healthz") * 9)
        second.data_received(_raw("GET", "/stats"))
        http = json.loads(transport.written.rpartition(b"\r\n\r\n")[2])["http"]
        assert http == {
            "requests": 9, "errors_5xx": 0, "connections": 2, "writes": 1,
            # /healthz once (eight answered from the memo), then /stats.
            "head_misses": 2, "admit_batches": 0, "tick_errors": 0,
            "accept_errors": 0,
        }
        first.connection_lost(None)
        assert list(server.connections) == [second]

    def test_dispatcher_failure_is_a_counted_500(self, monkeypatch):
        __, service = _sim_service()
        server = LiveHTTPServer(service)

        def boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "stats", boom)
        connection, transport = _connect(server)
        connection.data_received(_raw("GET", "/stats") + _raw("GET", "/healthz"))
        assert _split_responses(transport.written) == [
            (500, "keep-alive", {"error": "RuntimeError: boom"}),
            (200, "keep-alive", {"ok": True}),
        ]
        assert server.http_counts()["errors_5xx"] == 1 and not transport.closed


class TestAdmitRuns:
    """A read's pipelined ``/admit`` requests are decided in runs, one
    ``admit_many`` call each; every other route waits for the run
    before it, so no cut of the stream into reads changes an answer."""

    @staticmethod
    def _mixed_requests(seed):
        """Admits (mostly valid, some refused each way) with every other
        route between them, a close, and a request after the close."""
        trace, __ = _sim_service()
        names = list(trace.functions)  # four
        rng = random.Random(seed)
        others = [
            _admit("no-such-function", 1.0),
            _raw("POST", "/admit", b"{not json"),
            _raw("POST", "/admit", b'{"function": "%b", "now_s": 1e999}'
                 % names[0].encode()),
            _raw("POST", "/admit", b'{"now_s": 2.0}'),  # no function
            # Plain enough for a human, not for the scanner alone:
            # leading whitespace, an int time, a UTF-16 body.
            _raw("POST", "/admit", b' {"function": "%b"}' % names[1].encode()),
            _raw("POST", "/admit", b'{"function": "%b", "now_s": 3}'
                 % names[2].encode()),
            _raw("POST", "/admit", json.dumps({"function": names[3]})
                 .encode("utf-16")),
            _raw("POST", "/release", b'{"now_s": 4.0}'),
            _raw("GET", "/stats"),
            _raw("GET", "/healthz"),
            _raw("GET", "/admit"),  # 405
            b"BROKEN\r\n\r\n",  # a malformed request line
        ]
        requests = others * 3 + [None] * 120  # None: a valid admit
        rng.shuffle(requests)
        now_s = 0.0
        for at, request in enumerate(requests):
            if request is None:
                now_s += rng.choice([0.0, 0.5, 2.0])
                requests[at] = _admit(rng.choice(names), now_s)
        requests += [
            _raw("GET", "/stats"),
            _admit(names[0], now_s, headers=["Connection: close"]),
            _admit(names[1], now_s),  # after the close: never answered
        ]
        return requests

    @staticmethod
    def _answers_and_batches(requests, cuts):
        server = LiveHTTPServer(_sim_service()[1])
        answers, transport = _answers(b"".join(requests), cuts, server)
        assert transport.closed
        return answers, server.http_counts()["admit_batches"]

    @pytest.mark.parametrize("seed", range(4))
    def test_every_cut_of_a_mixed_stream_gets_the_same_answers(self, seed):
        requests = self._mixed_requests(seed)
        stream = b"".join(requests)
        whole, batches = self._answers_and_batches(requests, [])
        assert len(whole) == len(requests) - 1
        assert whole[-1][1] == "close"
        assert {status for status, __, __ in whole} == {200, 400, 404, 405}
        by_byte, __ = self._answers_and_batches(requests, range(1, len(stream)))
        assert by_byte == whole
        ends = [len(b"".join(requests[:i])) for i in range(1, len(requests))]
        by_request, one_each = self._answers_and_batches(requests, ends)
        assert by_request == whole
        cuts = sorted(random.Random(seed).sample(range(1, len(stream)), 40))
        assert self._answers_and_batches(requests, cuts)[0] == whole
        # In one read a run ends at another route or a refusal (these
        # runs stay far below the chunk bound); one request per read
        # makes every admit a run of its own.
        routed = sum(1 for __, __, p in whole if "outcome" not in p)
        assert batches <= routed + 1 < one_each
        # Every /stats sees exactly the requests and decisions before it.
        for at, (status, __, payload) in enumerate(whole):
            if "http" in payload:
                before = whole[:at]
                decided = sum(1 for __, __, p in before if "outcome" in p)
                assert payload["http"]["requests"] == at
                assert sum(payload["decisions"].values()) == decided

    def test_an_engine_exception_fails_its_own_admit_alone(self, monkeypatch):
        trace, service = _sim_service()
        names = list(trace.functions)[:4] * 2
        stream = b"".join(_admit(name, float(i)) for i, name in enumerate(names))
        process = service._sim.process_invocation
        arrivals = []

        def fails_third(function, now_s):
            arrivals.append(function.name)
            if len(arrivals) == 3:
                raise RuntimeError("boom")
            return process(function, now_s)

        monkeypatch.setattr(service._sim, "process_invocation", fails_third)
        server = LiveHTTPServer(service)
        answers, transport = _answers(stream, [], server)
        counts = server.http_counts()
        assert counts["admit_batches"] == 1 and counts["errors_5xx"] == 1
        assert [status for status, __, __ in answers] == [200] * 2 + [500] + [200] * 5
        assert answers[2][2] == {"error": "RuntimeError: boom"}
        assert not transport.closed
        # The rest are what a service never sent the failed arrival says.
        kept = [(name, float(i)) for i, name in enumerate(names) if i != 2]
        reference = LivePoolService(trace, "GD", MEMORY_MB, clock=SimClock())
        expected = [reference.admit(name, now_s).outcome for name, now_s in kept]
        assert [p["outcome"] for __, __, p in answers if "outcome" in p] == expected
        assert sum(service.stats()["decisions"].values()) == 7

    def test_a_blocked_write_holds_one_chunk_past_a_run(self):
        trace, service = _sim_service()
        names = list(trace.functions)
        server = LiveHTTPServer(service)
        # Admits of every reply size: a long unknown name's 404 is ~16 KB,
        # and a raw DEL, one body byte, is five in the 404 (six in a 200).
        unknown = ["x" * 16_000, "\x7f" * 8_000]
        named = [
            unknown[i % 2] if i % 97 == 0 else names[i % len(names)]
            for i in range(2_000)
        ]
        requests = [
            _raw("POST", "/admit", json.dumps(
                {"function": name, "now_s": float(i)}, ensure_ascii=False
            ).encode())
            for i, name in enumerate(named)
        ]
        answers, sizes = _gated(server, b"".join(requests), len(requests))
        assert len(sizes) > 1 and max(sizes) < 2 * _WRITE_CHUNK_BYTES
        assert [p.get("function") or p["error"] for __, __, p in answers] == [
            name if name in names else f"unknown function {name!r}"
            for name in named
        ]


class TestEncodeResponse:
    """Kept-alive replies are byte-identical to the framing the streams
    server produced with ``json.dumps(..., separators=(",", ":"))``."""

    PAYLOADS = [
        {"ok": True},
        {"error": "unknown function 'café \"x\"'"},
        {"outcome": "warm", "function": "f", "now_s": 3, "decision_us": 1e-07},
        {"now_s": 1e22, "x": 0.1 + 0.2, "y": -0.0, "z": 12345678901234567890},
        {"nested": {"a": [1, 2.5, None, False]}, "empty": {}},
    ]

    @staticmethod
    def _streams_framing(status, payload):
        body = json.dumps(payload, separators=(",", ":")).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode()
        return head + body

    @pytest.mark.parametrize("status", sorted(_REASONS))
    def test_bytes_equal_the_streams_framing(self, status):
        for payload in self.PAYLOADS:
            expected = self._streams_framing(status, payload)
            assert _encode_response(status, payload) == expected
            assert _encode_response(status, payload, close=True) == (
                expected.replace(b"keep-alive", b"close")
            )


OUTCOMES = ["warm", "cold", "dropped", "retried", "shed"]
AWKWARD_NAMES = [
    'say "hi"', "back\\slash", "tab\tnewline\n\x00\x1f\x7f", "café-λ-日本",
    "astral-\U0001f680", "lone-\ud800", "</script>\u2028", "",
]


class TestAdmitReplyBytes:
    """The formatted ``/admit`` body is, byte for byte, what the generic
    encoder makes of the same decision."""

    @staticmethod
    def _reply(decision):
        """The server's ``/admit`` payload for that decision, and
        the dict the parent handed the encoder for that decision."""
        status, payload = LiveHTTPServer(SimpleNamespace())._admit_reply(
            decision
        )
        assert status == 200
        return payload, {
            "outcome": decision.outcome,
            "function": decision.function,
            "now_s": decision.now_s,
            "decision_us": decision.decision_latency_s * 1e6,
        }

    @settings(max_examples=300, deadline=None)
    @given(
        outcome=st.sampled_from(OUTCOMES) | st.text(max_size=8),
        name=st.sampled_from(AWKWARD_NAMES) | st.text(max_size=24),
        now_s=st.floats(allow_nan=False, allow_infinity=False),
        latency_s=st.floats(min_value=0.0, allow_nan=False),
    )
    @example("warm", "f", -0.0, 5e-324)
    @example("cold", "f", 5e-324, 1e-7)
    @example("shed", "f", 1e22, 1e-13)
    @example("warm", "f", 1e-7, 0.1 + 0.2)
    @example("warm", "f", 0.30000000000000004, 1.2345678901234567e-05)
    @example("warm", "f", 1.7976931348623157e308, 1.7976931348623157e302)
    @example("warm", "f", 1.0, 1e308)  # decision_us overflows to inf
    @example("warm", "f", 1.0, math.inf)
    def test_formatted_body_equals_the_encoders(
        self, outcome, name, now_s, latency_s
    ):
        payload, parents = self._reply(
            AdmitDecision(outcome, name, now_s, latency_s)
        )
        # Formatted exactly when both numbers are finite floats.
        assert (type(payload) is bytes) == math.isfinite(latency_s * 1e6)
        for close in (False, True):
            assert _encode_response(200, payload, close) == (
                _encode_response(200, parents, close)
            )

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("name", AWKWARD_NAMES)
    def test_every_outcome_and_awkward_name(self, outcome, name):
        payload, parents = self._reply(AdmitDecision(outcome, name, 2.5, 3e-6))
        assert payload == json.dumps(parents, separators=(",", ":")).encode()

    @pytest.mark.parametrize(
        "now_s, latency_s",
        [
            (3, 1e-6), (True, 1e-6), (math.inf, 1e-6), (-math.inf, 1e-6),
            (math.nan, 1e-6), (10 ** 400, 1e-6), (2.5, math.nan),
        ],
    )
    def test_anything_but_two_finite_floats_is_the_encoders(
        self, now_s, latency_s
    ):
        payload, parents = self._reply(
            AdmitDecision("warm", "f", now_s, latency_s)
        )
        assert type(payload) is dict
        assert repr(payload) == repr(parents)  # repr: nan != nan

    def test_int_time_of_a_custom_clock_is_written_as_an_int(self):
        class MinuteClock:
            def now(self):
                return 60

        trace = skewed_frequency_trace(seed=21)
        service = LivePoolService(trace, "GD", MEMORY_MB, clock=MinuteClock())
        name = next(iter(trace.functions))
        responses, __ = _answers(
            _admit(name, 1.5), [], LiveHTTPServer(service)
        )
        assert responses == [
            (200, "keep-alive",
             {"outcome": "cold", "function": name, "now_s": 60}),
        ]
        assert type(responses[0][2]["now_s"]) is int

    def test_clock_pinned_at_infinity_reads_infinity_as_before(self):
        trace, service = _sim_service()
        name = next(iter(trace.functions))
        # Not reachable over HTTP (a non-finite now_s is a 400); a
        # direct caller can still pin the clock there.
        assert service.admit(name, math.inf).now_s == math.inf
        connection, transport = _connect(LiveHTTPServer(service))
        connection.data_received(_admit(name, 7.0))
        body = bytes(transport.written).partition(b"\r\n\r\n")[2]
        assert body.startswith(
            b'{"outcome":"warm","function":"%b","now_s":Infinity,'
            b'"decision_us":' % name.encode()
        )


def _verdict(body):
    """What ``_json_object`` makes of ``body``, comparably (``repr``
    tells 1 from 1.0 from True, and equates nan with nan)."""
    try:
        return repr(_json_object(body))
    except _BadBody as refusal:
        return refusal.args


_OBJECT = '{"function": "f-\u00e9-\U0001f680", "now_s": 12.5}'
BODY_CORPUS = [
    b"", b"{}", b" \r\n\t{ } \n", _OBJECT.encode(),
    b"\xef\xbb\xbf" + _OBJECT.encode(),  # UTF-8 BOM
    *(
        _OBJECT.encode(codec)
        for codec in (
            "utf-16", "utf-16-le", "utf-16-be",
            "utf-32", "utf-32-le", "utf-32-be",
        )
    ),
    b"\xff\xfe" + _OBJECT.encode("utf-16-be"),  # a BOM that lies
    b'{"function": "\xed\xa0\x80"}',  # a surrogate, UTF-8-encoded
    b'{"function": "\\ud800"}',
    b'{"function": "\xff"}', b'{"function": "\xc3"}',
    b'{"function": "a\x00b"}', b'{"function": "f"}\x00', b"\x00{}",
    b"{\x00}", b'{"function": "f"} trailing', b'{"function": "f"}{}',
    b'{"function": "f",}', b"{'function': 'f'}", b"{not json", b"{",
    b'{"now_s": 1, "now_s": 2.0, "function": "a", "function": "b"}',
    b'{"now_s": true}', b'{"now_s": 1e999}', b'{"now_s": -1e999}',
    b'{"now_s": NaN}', b'{"now_s": Infinity}', b'{"now_s": -Infinity}',
    b'{"now_s": %s}' % (b"1" + b"0" * 400), b'{"now_s": "1"}',
    b'{"now_s": null}', b'{"now_s": -0.0}', b'{"now_s": 1E+2}',
    b"[1,2]", b'"x"', b"7", b"null", b"true", b"1e999", b"NaN",
    b"[" * 50 + b"]" * 50, b"\xfe\xff", b"\xef\xbb\xbf", b"\x00", b" ",
]


class TestJsonObject:
    """The decoder without the sniff gives ``json.loads``' verdicts."""

    @staticmethod
    def _loads_only(monkeypatch):
        """``_json_object`` as the parent had it: ``json.loads`` alone
        (the strict decoder made to refuse everything)."""

        def refuse(text):
            raise ValueError(text)

        monkeypatch.setattr(server_module, "_decode_json", refuse)

    def test_corpus_has_every_verdict(self):
        verdicts = {_verdict(body) for body in BODY_CORPUS}
        assert {
            ("body is not valid JSON",),
            ("body must be a JSON object",),
            ("'now_s' must be a finite number",),
            "{}",
            repr(json.loads(_OBJECT)),
        } <= verdicts

    def test_corpus_agrees_with_json_loads_alone(self, monkeypatch):
        ours = [_verdict(body) for body in BODY_CORPUS]
        self._loads_only(monkeypatch)
        assert ours == [_verdict(body) for body in BODY_CORPUS]

    @settings(max_examples=400, deadline=None)
    @given(
        body=st.binary(max_size=48)
        | st.builds(
            lambda value, codec, pad: pad + json.dumps(value).encode(codec),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(
                    st.sampled_from(["function", "now_s", "x"]), inner,
                    max_size=3,
                ),
                max_leaves=6,
            ),
            st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-32-le"]),
            st.sampled_from([b"", b" ", b"\n"]),
        )
    )
    def test_any_body_agrees_with_json_loads_alone(self, body):
        ours = _verdict(body)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._loads_only(monkeypatch)
            assert _verdict(body) == ours


# ----------------------------------------------------------------------
# Over real sockets: what only a transport can show
# ----------------------------------------------------------------------


def _read_to_eof(sock):
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _one_at_a_time(thread, requests):
    """``requests`` on one connection, each sent once the reply to the
    one before it is in (the last must close); the parsed answers."""
    received = bytearray()
    with socket.create_connection((thread.host, thread.port), 10) as sock:
        for request in requests:
            sock.sendall(request)
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += sock.recv(65536)
            head, __, body = reply.partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            while len(body) < length:
                body += sock.recv(65536)
            received += reply[:len(head) + 4] + body
        assert sock.recv(1) == b""
    return _split_responses(received)


def _unmoved(answers):
    """Answers less what other clients of the one engine move: an
    admit's outcome and clock, what /release frees, every /stats."""
    return [
        (status, connection, sorted(payload) if "http" in payload else {
            key: None if key in ("outcome", "now_s", "released") else value
            for key, value in payload.items()
        })
        for status, connection, payload in answers
    ]


def _send_until_blocked(sock, unsent, served):
    """Feed ``unsent`` to the non-blocking client ``sock`` until the
    server is blocked on it, as seen from outside: for 0.2 s the
    client's sends are refused and ``served()`` (the server's request
    count) does not move. Returns that count."""
    deadline = time.monotonic() + 20
    still_since, last = time.monotonic(), None
    while True:
        try:
            sent = sock.send(unsent)
        except BlockingIOError:
            sent = 0
        del unsent[:sent]
        now, count = time.monotonic(), served()
        if sent or count != last:
            still_since, last = now, count
        elif now - still_since > 0.2:
            return count
        assert now < deadline, "the server never blocked"
        time.sleep(0.001)


def _stalled_neighbour(thread):
    """A connection pipelining /stats that never reads, fed until the
    server's thread for it blocks in a write (it must be the only open
    connection); the client socket and the server's connection."""
    sock = socket.socket()
    # A small, fixed receive window, set before the handshake.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((thread.host, thread.port))
    sock.setblocking(False)
    unsent = bytearray(_raw("GET", "/stats") * 12000)
    _send_until_blocked(sock, unsent, lambda: thread.server.http_counts()["requests"])
    (connection,) = thread.server.connections
    return sock, connection


class TestSockets:
    def test_half_closed_client_still_gets_every_reply(self, live_server):
        trace, __, __, thread = live_server
        names = list(trace.functions) * 3
        with socket.create_connection((thread.host, thread.port), 10) as sock:
            sock.sendall(
                b"".join(_admit(n, float(i)) for i, n in enumerate(names))
                + _raw("GET", "/stats")
            )
            sock.shutdown(socket.SHUT_WR)
            responses = _split_responses(_read_to_eof(sock))
        assert [status for status, __, __ in responses] == (
            [200] * (len(names) + 1)
        )
        assert responses[-1][2]["http"]["requests"] == len(names)

    def test_connection_close_closes_the_socket(self, live_server):
        __, __, __, thread = live_server
        with socket.create_connection((thread.host, thread.port), 10) as sock:
            sock.sendall(
                _raw("GET", "/healthz")
                + _raw("GET", "/healthz", headers=["Connection: close"])
                + _raw("GET", "/healthz")
            )
            # EOF without this side closing first: the server hung up.
            responses = _split_responses(_read_to_eof(sock))
        assert responses == [
            (200, "keep-alive", {"ok": True}),
            (200, "close", {"ok": True}),
        ]

    def test_stop_hangs_up_on_idle_keep_alive_clients(self):
        __, service = _sim_service()
        thread = ServerThread(service).start()
        with socket.create_connection((thread.host, thread.port), 10) as sock:
            sock.sendall(_raw("GET", "/healthz"))
            reply = _encode_response(200, {"ok": True})
            assert sock.recv(65536) == reply  # connected, now idle
            started = time.perf_counter()
            thread.stop()
            assert time.perf_counter() - started < 1.0
            assert _read_to_eof(sock) == b""
        assert not thread.server.connections

    def test_accept_survives_running_out_of_resources(self, monkeypatch):
        """EMFILE from accept(), then a thread that cannot start: each
        costs one client at most, the next is served, stop() returns."""
        __, service = _sim_service()
        faults = [OSError(errno.EMFILE, "Too many open files")]
        accept = socket.socket.accept

        def failing_accept(self):
            if faults:
                raise faults.pop()
            return accept(self)

        refusals = []

        class Thread(threading.Thread):
            def start(self):
                if refusals:
                    raise refusals.pop()
                super().start()

        monkeypatch.setattr(socket.socket, "accept", failing_accept)
        monkeypatch.setattr(server_module.threading, "Thread", Thread)
        thread = ServerThread(service).start()
        try:
            refusals.append(RuntimeError("can't start new thread"))
            with socket.create_connection((thread.host, thread.port), 10) as sock:
                assert _read_to_eof(sock) == b""  # hung up on, unserved
            assert _request(thread, "GET", "/healthz") == (200, {"ok": True})
            http = fetch_stats(thread.host, thread.port)["http"]
            assert http["accept_errors"] == 2 and http["connections"] == 1
        finally:
            started = time.perf_counter()
            thread.stop()
        assert time.perf_counter() - started < 1.0
        assert not thread.server.connections

    def test_an_empty_host_listens_on_every_interface(self):
        __, service = _sim_service()
        thread = ServerThread(service, host="").start()
        try:
            for host in ["127.0.0.1"] + (["::1"] if socket.has_ipv6 else []):
                with socket.create_connection((host, thread.port), 10) as sock:
                    sock.sendall(_raw("GET", "/healthz", headers=["Connection: close"]))
                    assert _split_responses(_read_to_eof(sock)) == [
                        (200, "close", {"ok": True})
                    ]
        finally:
            thread.stop()

    def test_oversized_body_does_not_desync_the_connection(self, live_server):
        __, __, __, thread = live_server
        oversized = _raw(
            "POST", "/admit", headers=[f"Content-Length: {2 * _MAX_BODY_BYTES}"]
        )
        with socket.create_connection((thread.host, thread.port), 10) as sock:
            # Some of the body is already on the wire behind the head.
            sock.sendall(_raw("GET", "/healthz") + oversized + b"x" * 4096)
            responses = _split_responses(_read_to_eof(sock))
        assert responses == [
            (200, "keep-alive", {"ok": True}),
            (413, "close", {"error": "body too large"}),
        ]
        # One connection's refusal is no one else's problem. This one
        # closes too: at its EOF the server has let it go, so the count
        # below cannot race its teardown.
        with socket.create_connection((thread.host, thread.port), 10) as sock:
            sock.sendall(_raw("GET", "/healthz", headers=["Connection: close"]))
            assert _split_responses(_read_to_eof(sock)) == [(200, "close", {"ok": True})]
        http = fetch_stats(thread.host, thread.port)["http"]
        assert http["errors_5xx"] == 0
        assert http["connections"] == 1  # the one asking

    def test_a_refused_client_still_sending_gets_every_reply(self, live_server):
        """A socket closed with unread bytes resets, and the reset drops
        the replies still queued to a client that has not read them: the
        server half-closes and drains first (RFC 7230 section 6.6)."""
        __, __, __, thread = live_server
        oversized = _raw(
            "POST", "/admit", headers=[f"Content-Length: {2 * _MAX_BODY_BYTES}"]
        )
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before the handshake
        sock.connect((thread.host, thread.port))
        with sock:
            sock.sendall(_raw("GET", "/healthz") * 200 + oversized + b"x" * 400_000)
            time.sleep(0.2)  # the server answers and closes; the client reads only now
            statuses = [status for status, __, __ in _split_responses(_read_to_eof(sock))]
        assert statuses == [200] * 200 + [413]

    def test_concurrent_connections_answer_as_a_lone_one_does(self):
        """Clients replay one mixed stream each, all at once, beside a
        neighbour that pipelines and never reads. One request in flight
        per client makes every read one request, so each lone count is
        exact, and the totals must be these counts summed."""
        clients = 4  # more threads than cores, switching every few µs
        __, service = _sim_service()
        thread = ServerThread(service).start()
        requests = TestAdmitRuns._mixed_requests(seed=5)[:-1]  # not the one after the close
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            lone = _one_at_a_time(thread, requests)
            alone = thread.server.http_counts()
            # One request per read: a write per request, a batch per admit.
            assert alone["requests"] == alone["writes"] == len(requests)
            assert alone["admit_batches"] == sum(
                1 for __, __, p in lone
                if "outcome" in p or p.get("error", "").startswith("unknown function")
            )
            neighbour, stalled = _stalled_neighbour(thread)
            answers = [None] * clients

            def replay(i):
                answers[i] = _one_at_a_time(thread, requests)

            replayers = [
                threading.Thread(target=replay, args=(i,)) for i in range(clients)
            ]
            for replayer in replayers:
                replayer.start()
            for replayer in replayers:
                replayer.join(60)
            assert all(got is not None for got in answers), "a client stalled"
            for got in answers:
                assert _unmoved(got) == _unmoved(lone)
            decided = sum(1 for __, __, p in lone if "outcome" in p)
            assert sum(service.stats()["decisions"].values()) == (
                (clients + 1) * decided
            )
            counts = {key: getattr(stalled, key) for key in alone}
            expected = {
                key: (clients + 1) * alone[key] + counts[key] for key in alone
            }
            # Every later head is in the memo by then.
            expected["head_misses"] = alone["head_misses"] + counts["head_misses"]
            with socket.create_connection((thread.host, thread.port), 10) as sock:
                sock.sendall(_raw("GET", "/stats"))
                sock.shutdown(socket.SHUT_WR)
                reply = _read_to_eof(sock)
            http = json.loads(reply.partition(b"\r\n\r\n")[2])["http"]
            assert {key: http[key] for key in expected} == expected
            assert expected["errors_5xx"] == 0 and http["connections"] == 2
        finally:
            sys.setswitchinterval(switch_interval)
            started = time.perf_counter()
            thread.stop()  # the neighbour's thread is still in its write
            stopped_s = time.perf_counter() - started
        neighbour.close()
        assert stopped_s < 1.0
        assert not thread.server.connections

    def test_client_that_never_reads_pauses_the_server(
        self, live_server, monkeypatch
    ):
        __, __, __, thread = live_server
        largest = [0]
        init = _SocketWriter.__init__

        def spy(self, sock):
            init(self, sock)
            sendall = self.write

            def measured(data):
                largest[0] = max(largest[0], len(data))
                sendall(data)

            self.write = measured

        monkeypatch.setattr(_SocketWriter, "__init__", spy)
        total = 12000  # x ~0.7 KB of /stats: beyond any loopback buffering
        unsent = bytearray(
            _raw("GET", "/stats") * (total - 1)
            + _raw("GET", "/stats", headers=["Connection: close"])
        )

        def send_some():
            try:
                del unsent[:sock.send(unsent)]
            except BlockingIOError:
                pass

        def served():
            return thread.server.http_counts()["requests"]

        sock = socket.socket()
        # A small, fixed receive window, set before the handshake.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        with sock:
            sock.connect((thread.host, thread.port))
            sock.setblocking(False)
            blocked_at = _send_until_blocked(sock, unsent, served)
            assert blocked_at < total
            # No write is larger than one chunk plus one /stats reply.
            assert 0 < largest[0] < 2 * _WRITE_CHUNK_BYTES
            time.sleep(0.05)
            assert served() == blocked_at
            # Now read: every request is answered, in order, and the
            # last one's close ends the stream.
            received = bytearray()
            while True:
                send_some()
                readable, __, __ = select.select([sock], [], [], 10)
                assert readable, "server went quiet before its last reply"
                data = sock.recv(1 << 20)
                if not data:
                    break
                received += data
        answered = _split_responses(received)
        assert [r[2]["http"]["requests"] for r in answered] == list(
            range(total)
        )
        assert answered[-1][1] == "close"


class TestServeChild:
    """``repro-faascache serve`` as a process: what only signals show."""

    def test_sigterm_shuts_down_cleanly_and_writes_the_metrics(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        src = Path(__file__).resolve().parent.parent / "src"
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--trace", "skewed-frequency", "--policy", "GD",
                "--memory-gb", "2", "--port", "0", "--clock", "sim",
                "--metrics-out", str(metrics),
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stderr=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(60.0, child.kill)  # no read below hangs
        watchdog.start()
        try:
            announced = re.search(
                r"at http://([\d.]+):(\d+)", child.stderr.readline()
            )
            assert announced, "serve never announced its port"
            host, port = announced.group(1), int(announced.group(2))
            at = SimpleNamespace(host=host, port=port)
            replied = Counter()
            names = list(skewed_frequency_trace().functions)
            for i, name in enumerate(names * 3):
                status, payload = _request(
                    at, "POST", "/admit", {"function": name, "now_s": i * 0.5}
                )
                assert status == 200
                replied[payload["outcome"]] += 1
            with socket.create_connection((host, port), 10) as held:
                held.sendall(_raw("GET", "/healthz"))
                assert held.recv(65536) == _encode_response(200, {"ok": True})
                child.send_signal(signal.SIGTERM)  # what `kill <pid>` sends
                assert _read_to_eof(held) == b""  # hung up on, not left open
            __, stderr = child.communicate(timeout=30)
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, stderr
        assert "shutting down" in stderr
        # The tracer was closed on the way out: the textfile holds a
        # decision for every reply given.
        written = re.findall(
            r'faascache_invocations_total\{outcome="(\w+)"\} (\d+)',
            metrics.read_text(),
        )
        assert {k: int(v) for k, v in written} == replied
        assert sum(replied.values()) == 3 * len(names) and len(replied) > 1


# ----------------------------------------------------------------------
# The load generator's own timing
# ----------------------------------------------------------------------


def _stalling_stub_server(stall_s):
    """A one-connection HTTP stub on a thread that neither reads nor
    answers for ``stall_s`` after accepting, then answers everything.
    Returns ``(port, thread)``; the thread ends with the connection."""
    listener = socket.socket()
    # Inherited by the accepted socket: little fits in flight.
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        with listener:
            conn, __ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            time.sleep(stall_s)
            while stream.readline():
                length = 0
                for line in iter(stream.readline, b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                stream.read(length)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


class TestLoadgenTiming:
    def test_open_loop_charges_a_stall_to_the_requests_it_delayed(self):
        from repro.traces.model import Invocation, Trace, TraceFunction

        # 200 requests of 64 KB due inside 20 ms: far more than the
        # stalled server's socket takes, so most sends block until the
        # 50 ms stall ends. Timed from when each was due, none can read
        # under 30 ms; timed from the actual send, the late ones would
        # read near zero.
        name = "f" * 65536
        trace = Trace(
            [TraceFunction(name, 64.0, 0.001, 0.005)],
            [Invocation(i * 1e-4, name) for i in range(200)],
            name="stall",
        )
        port, stub = _stalling_stub_server(0.05)
        report = run_loadgen(trace, "127.0.0.1", port, mode="openloop")
        stub.join(timeout=10)
        assert not stub.is_alive()
        assert report.completed == report.sent == 200
        assert report.client_latency.percentile(0.0) >= 0.025
