"""Asyncio HTTP frontend for the live keep-alive service.

A deliberately small HTTP/1.1 server on one stdlib
:class:`asyncio.Protocol` — no web framework, no thread, coroutine or
future per request — exposing the
:class:`~repro.live.service.LivePoolService` API as JSON endpoints:

* ``POST /admit``   ``{"function": NAME, "now_s": optional}`` →
  admission decision (``now_s`` only honoured under a sim clock);
* ``POST /release`` → completed invocations returned to the pool;
* ``GET /stats``    → counters, decision-latency percentiles, pool
  occupancy, HTTP counters;
* ``GET /healthz``  → liveness.

Connections are keep-alive and fully pipelined. Each socket read lands
in the connection's buffer; every complete request already buffered is
framed from its head bytes, answered in order, and the replies leave in
one transport write — which is what lets one client replay a trace at
high QPS over a single socket in the simulator's arrival order. A
client that stops reading pauses the connection (``pause_writing`` →
``pause_reading``) until the transport drains. A request the server
cannot frame (oversized head or body, bad ``Content-Length``, any
``Transfer-Encoding``) is answered ``Connection: close`` and the
connection dropped, as is one that asks for ``Connection: close``.
Decision work happens inline on the event loop — a decision is
microseconds of lock-protected computation, so handing it to a thread
pool would cost more than it frees. A periodic timer drains expirations
during idle stretches.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.live.service import LivePoolService, UnknownFunctionError

__all__ = ["LiveHTTPServer", "ServerThread"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024
# Replies accumulated past this are written before the batch goes on,
# so a paused connection holds at most this much beyond the transport's
# own high-water mark.
_WRITE_CHUNK_BYTES = 64 * 1024
# The head memo (a client repeats its head byte for byte): at most this
# many heads of at most this many bytes, cleared when full -- no LRU.
_MEMO_HEADS = 256
_MEMO_HEAD_BYTES = 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

_HEADS = {
    status: (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: "
    ).encode()
    for status, reason in _REASONS.items()
}
_KEEP_ALIVE = b"\r\nConnection: keep-alive\r\n\r\n"
_CLOSE = b"\r\nConnection: close\r\n\r\n"
# json.dumps(..., separators=...) builds a fresh encoder per call, and
# json.loads(bytes) sniffs every body's encoding.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decode_json = json.JSONDecoder().decode
_INF = math.inf
_Route = Optional[Tuple[str, str]]  # (METHOD, path); None: malformed line
_Payload = Union[dict, bytes]  # a reply to encode, or its JSON already


class _Quoted(Dict[str, str]):
    """``text -> its JSON string literal``, encoded once per text."""

    def __missing__(self, text: str) -> str:
        return self.setdefault(text, _encode_json(text))


def _encode_response(status: int, payload: _Payload, close=False) -> bytes:
    body = payload if type(payload) is bytes else _encode_json(payload).encode()
    return b"%b%d%b%b" % (
        _HEADS[status], len(body), _CLOSE if close else _KEEP_ALIVE, body
    )


class _Unframed(Exception):
    """``(status, error)`` for a request whose end cannot be found."""


class _BadBody(Exception):
    """``(error,)`` for a framed request whose body is answered 400."""


def _json_object(body: bytes) -> dict:
    """The JSON object a request body holds (none for an empty body),
    its optional ``now_s`` checked to be a finite number: anything else
    would pin a sim clock at ``inf`` / ``nan`` for every later arrival
    and put a non-JSON token in the replies."""
    try:
        try:
            request = _decode_json(body.decode()) if body else {}
        except ValueError:
            # UTF-16/32, a BOM, a lone surrogate, bad JSON: loads' verdict.
            request = json.loads(body)
    except ValueError:
        raise _BadBody("body is not valid JSON") from None
    if not isinstance(request, dict):
        raise _BadBody("body must be a JSON object")
    now_s = request.get("now_s")
    if now_s is not None:
        try:
            # The exact types: json.loads yields no others, and bool
            # (an int subclass) is not a time.
            finite = type(now_s) in (int, float) and math.isfinite(now_s)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise _BadBody("'now_s' must be a finite number")
    return request


def _header_value(lower: bytes, key: bytes) -> Optional[bytes]:
    """The value of the first header line starting with ``key``
    (``b"\\r\\nname:"``) in a lowercased head, or ``None``."""
    at = lower.find(key)
    if at < 0:
        return None
    at += len(key)
    return lower[at:lower.index(b"\r\n", at)].strip()


def _frame(head: bytes) -> Tuple[int, bool, _Route]:
    """``(body length, close after the reply, route)`` off a request's
    head bytes alone: the request line and header lines, CRLF-terminated."""
    lower = head.lower()
    if b"\r\ntransfer-encoding:" in lower:
        raise _Unframed(400, "transfer-encoding is not supported")
    length = 0
    value = _header_value(lower, b"\r\ncontent-length:")
    if value is not None:
        if not value.isdigit() or lower.count(b"\r\ncontent-length:") > 1:
            raise _Unframed(400, "malformed request")
        # int() itself refuses digit strings in the thousands.
        length = int(value) if len(value) < 20 else _MAX_BODY_BYTES + 1
        if length > _MAX_BODY_BYTES:
            raise _Unframed(413, "body too large")
    asked = _header_value(lower, b"\r\nconnection:") or b""
    parts = head[:head.index(b"\r\n")].decode("latin-1").split(" ")
    route = (parts[0].upper(), parts[1]) if len(parts) == 3 else None
    if lower[:lower.index(b"\r\n")].endswith(b" http/1.0"):
        return length, b"keep-alive" not in asked, route
    return length, b"close" in asked, route


class _Connection(asyncio.Protocol):
    """One client connection: buffer, frame, answer, write."""

    __slots__ = ("_server", "_transport", "_buffer", "_paused")
    _transport: asyncio.Transport  # from connection_made on

    def __init__(self, server: "LiveHTTPServer") -> None:
        self._server = server
        self._buffer = bytearray()
        self._paused = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server.connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server.connections.discard(self)

    def close(self) -> None:
        self._transport.close()  # once the write buffer is flushed

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if not self._paused:
            self._answer_buffered()

    # eof_received is the base class's: the transport closes itself
    # once its write buffer is flushed, so a half-closed client still
    # reads every reply (reading is paused while replies are held back,
    # so EOF never overtakes a buffered request).

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._transport.resume_reading()
        self._answer_buffered()

    def _answer_buffered(self) -> None:
        """Answer every complete request in the buffer, in order, with
        one transport write (one more per ``_WRITE_CHUNK_BYTES`` of
        replies); stop consuming while the transport has writing
        paused."""
        buffer = self._buffer
        server = self._server
        heads = server._heads
        payload: _Payload
        replies: List[bytes] = []
        unwritten = 0
        start = 0
        close = False
        while not close:
            head_end = buffer.find(b"\r\n\r\n", start)
            # Not found: up to three bytes may be a terminator's start.
            head_bytes = (head_end if head_end >= 0 else len(buffer) - 3) - start
            try:
                if head_bytes > _MAX_HEADER_BYTES:
                    raise _Unframed(400, "headers too large")
                if head_end < 0:
                    break
                # Through the first CRLF of the terminator, so every
                # header line ends in one.
                head = bytes(buffer[start:head_end + 2])
                framed = heads.get(head)
                # A verdict outlives no limit it was reached under.
                if framed is None or framed[0] > _MAX_BODY_BYTES:
                    server.head_misses += 1
                    framed = _frame(head)  # a refusal is not remembered
                    if len(head) <= _MEMO_HEAD_BYTES:
                        if len(heads) >= _MEMO_HEADS:
                            heads.clear()
                        heads[head] = framed
                length, close_asked, route = framed
            except _Unframed as refusal:
                # Where the next request starts is unknown: answer,
                # then drop the connection and whatever it pipelined.
                status, error = refusal.args
                payload, close = {"error": error}, True
            else:
                body_end = head_end + 4 + length
                if len(buffer) < body_end:
                    break
                body = bytes(buffer[head_end + 4:body_end])
                status, payload = server._answer(route, body)
                start, close = body_end, close_asked
            server.requests_served += 1
            reply = _encode_response(status, payload, close)
            replies.append(reply)
            unwritten += len(reply)
            if unwritten >= _WRITE_CHUNK_BYTES:
                self._write(replies)
                replies, unwritten = [], 0
                if self._paused:
                    break
        del buffer[:len(buffer) if close else start]
        if replies:
            self._write(replies)
        if close:
            self.close()

    def _write(self, replies: List[bytes]) -> None:
        self._server.writes += 1
        self._transport.write(b"".join(replies))


class LiveHTTPServer:
    """Serves one :class:`LivePoolService` over HTTP."""

    def __init__(
        self,
        service: LivePoolService,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = 0.25,
    ) -> None:
        if tick_interval_s < 0.0:
            raise ValueError(
                f"tick_interval_s must be >= 0, got {tick_interval_s}"
            )
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.tick_interval_s = tick_interval_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional["asyncio.Task"] = None
        self.requests_served = 0
        self.errors_5xx = 0
        self.connections: Set[_Connection] = set()  # currently open
        self.writes = 0  # transport writes; requests / writes = coalescing
        self.head_misses = 0  # heads framed, not answered from the memo
        self.tick_errors = 0  # expire_tick() failures the timer survived
        self._heads: Dict[bytes, Tuple[int, bool, _Route]] = {}
        self._quoted = _Quoted()  # outcomes and admitted function names

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _answer(self, route: _Route, body: bytes) -> Tuple[int, _Payload]:
        """One framed request → ``(status, payload)``."""
        if route is None:
            return 400, {"error": "malformed request line"}
        try:
            return self._dispatch(route[0], route[1], body)
        except _BadBody as refusal:
            return 400, {"error": refusal.args[0]}
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.errors_5xx += 1
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, _Payload]:
        if path == "/admit" and method == "POST":
            request = _json_object(body)
            name = request.get("function")
            if not isinstance(name, str):
                return 400, {"error": "missing string field 'function'"}
            try:
                decision = self.service.admit(name, request.get("now_s"))
            except UnknownFunctionError:
                return 404, {"error": f"unknown function {name!r}"}
            now_s = decision.now_s
            decision_us = decision.decision_latency_s * 1e6
            if type(now_s) is float is type(decision_us) and (
                -_INF < now_s < _INF and -_INF < decision_us < _INF
            ):
                # The encoder's bytes for the dict below (it, too, writes
                # a finite float with float.__repr__), without the dict.
                return 200, (
                    f'{{"outcome":{self._quoted[decision.outcome]},"function":'
                    f'{self._quoted[decision.function]},"now_s":{now_s!r},'
                    f'"decision_us":{decision_us!r}}}'
                ).encode()
            return 200, {
                "outcome": decision.outcome,
                "function": decision.function,
                "now_s": now_s,
                "decision_us": decision_us,
            }
        if path == "/release" and method == "POST":
            now_s = _json_object(body).get("now_s")
            return 200, {"released": self.service.release(now_s)}
        if path == "/stats" and method == "GET":
            stats = self.service.stats()
            stats["http"] = {
                "requests": self.requests_served,
                "errors_5xx": self.errors_5xx,
                "connections": len(self.connections),
                "writes": self.writes,
                "head_misses": self.head_misses,
                "tick_errors": self.tick_errors,
            }
            return 200, stats
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path in ("/admit", "/release", "/stats", "/healthz"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route for {path}"}

    async def _tick_loop(self) -> None:
        """Drain completions/expirations on a timer so idle periods
        (no arrivals to piggyback housekeeping on) still free memory."""
        while True:
            await asyncio.sleep(self.tick_interval_s)
            try:
                self.service.expire_tick()
            except Exception:  # noqa: BLE001 - counted; the timer lives
                self.tick_errors += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.tick_interval_s > 0.0:
            self._tick_task = loop.create_task(self._tick_loop())

    async def stop(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            # Connections a client holds open would otherwise outlive
            # the listener (and, from Python 3.12 on, keep
            # wait_closed() waiting for the client to hang up).
            for connection in list(self.connections):
                connection.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self, on_ready=None) -> None:
        """Start and serve until cancelled. ``on_ready`` (called with
        the server once the socket is bound) lets the CLI announce the
        resolved ephemeral port."""
        await self.start()
        assert self._server is not None
        if on_ready is not None:
            on_ready(self)
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()


class ServerThread:
    """Runs a :class:`LiveHTTPServer` on its own event-loop thread.

    The in-process embedding tests, the ``live_smoke`` bench scenario,
    and ``make live-smoke`` use this: start() blocks until the socket
    is bound (so the caller can read the ephemeral port), stop() joins
    the loop thread cleanly.
    """

    def __init__(
        self,
        service: LivePoolService,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = 0.0,
    ) -> None:
        self.server = LiveHTTPServer(
            service, host=host, port=port, tick_interval_s=tick_interval_s
        )
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-live-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self.error is not None:
            raise RuntimeError("live server failed to start") from self.error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self.error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
