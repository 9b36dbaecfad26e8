"""Blocking-socket HTTP frontend for the live keep-alive service.

A deliberately small HTTP/1.1 server on stdlib sockets, one thread per
connection -- no web framework, no event loop, no coroutine or future
per request -- exposing the
:class:`~repro.live.service.LivePoolService` API as JSON endpoints:

* ``POST /admit``   ``{"function": NAME, "now_s": optional}`` →
  admission decision (``now_s`` only honoured under a sim clock);
* ``POST /release`` → completed invocations returned to the pool;
* ``GET /stats``    → counters, decision-latency percentiles, pool
  occupancy, HTTP counters;
* ``GET /healthz``  → liveness.

Connections are keep-alive and fully pipelined. A connection's thread
answers every complete request it has read, in order (each run of
``/admit`` requests decided in one
:meth:`~repro.live.service.LivePoolService.admit_many` pass, under one
lock), and the replies leave in one ``sendall``. A client that stops
reading blocks its own thread in that ``sendall``, and no other: no
write happens under the service lock. A request the server cannot
frame (oversized head or body, bad ``Content-Length``, any
``Transfer-Encoding``) is answered ``Connection: close`` and the
connection dropped, as is one that asks for ``Connection: close``. A
timer thread drains expirations during idle stretches.
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from repro.core.clock import wall_clock_s
from repro.domains import nonneg
from repro.live.service import (
    AdmitDecision,
    LivePoolService,
    UnknownFunctionError,
)

__all__ = ["LiveHTTPServer", "ServerThread"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024
# Replies accumulated past this are written before the batch goes on,
# so a write blocked on a client that does not read holds at most this
# much plus one run's replies.
_WRITE_CHUNK_BYTES = 64 * 1024
# One recv: room for a pipelining client's whole window of requests.
_READ_BYTES = 256 * 1024
# The head memo (a client repeats its head byte for byte): at most this
# many heads of at most this many bytes, cleared when full -- no LRU.
_MEMO_HEADS = 256
_MEMO_HEAD_BYTES = 1024
# A connection the server closes is half-closed and drained first, for
# at most this long and this many bytes (RFC 7230 section 6.6): a socket
# closed with unread bytes sends a reset, which can discard the last
# reply before the client reads it.
_LINGER_S = 1.0
_LINGER_BYTES = _MAX_BODY_BYTES

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
# An admit's reply is at most this many times its request's bytes: the
# function name is its one variable part, and no character of it takes
# more than six bytes per body byte to escape (a raw DEL is \u007f).
_REPLY_PER_REQUEST_BYTE = 6
# json.dumps(..., separators=...) builds a fresh encoder per call, and
# json.loads(bytes) sniffs every body's encoding.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decoder = json.JSONDecoder()
_decode_json = _decoder.decode
# One JSON value at an index, in C (typeshed's JSONDecoder omits it).
_scan_json: Callable[[str, int], Tuple[Any, int]] = getattr(_decoder, "scan_once")
_INF = math.inf
# A header line with a blank before its colon: a 400 (RFC 7230 3.2.4),
# or "Content-Length : 28" leaves its body to frame as the next request.
_SPACED_NAME = re.compile(rb"\r\n[^:\r\n \t]*[ \t][^:\r\n]*:").search
_Route = Optional[Tuple[str, str]]  # (METHOD, path); None: malformed line
_ADMIT: _Route = ("POST", "/admit")
_Arrival = Tuple[str, Optional[float]]  # what an /admit asks for
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


def _admit_args(body: bytes) -> _Arrival:
    """``(function, now_s)`` off an ``/admit`` body, or ``_BadBody``.
    A plain body -- one JSON object the decoder's C scanner consumes
    whole, with a string ``function`` and a ``now_s`` that is absent,
    null or a finite float -- is read by the scanner alone; any other
    body gets the full decode's verdict from :func:`_json_object`."""
    try:
        text = body.decode()
        request, end = _scan_json(text, 0)
        whole = end == len(text)
    except (ValueError, StopIteration, RecursionError):
        whole = False
    if whole and type(request) is dict:
        name = request.get("function")
        now_s = request.get("now_s")
        if type(name) is str and (
            now_s is None or (type(now_s) is float and -_INF < now_s < _INF)
        ):
            return name, now_s
    request = _json_object(body)
    name = request.get("function")
    if not isinstance(name, str):
        raise _BadBody("missing string field 'function'")
    return name, request.get("now_s")


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
    if _SPACED_NAME(lower):
        raise _Unframed(400, "whitespace before a header's colon")
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


class _SocketWriter:
    """A connection's socket as its :class:`_Connection` writes to it. A
    client that does not read blocks ``write``: that is the backpressure."""

    __slots__ = ("_sock", "write", "closed")

    def __init__(self, sock: socket.socket) -> None:
        self._sock, self.write, self.closed = sock, sock.sendall, False

    def close(self) -> None:
        self.closed = True  # the connection's thread closes the socket


#: The HTTP counters each connection keeps; ``/stats`` reports their sums.
_HTTP_COUNTS = ("requests", "errors_5xx", "writes", "head_misses", "admit_batches")


class _Connection:
    """One client connection: buffer, frame, answer, write. It keeps
    its own share of the ``/stats`` HTTP counters, which only its
    thread writes, so their sums are exact."""

    __slots__ = ("_server", "_transport", "_buffer", *_HTTP_COUNTS)
    _transport: _SocketWriter  # from connection_made on

    def __init__(self, server: "LiveHTTPServer") -> None:
        self._server = server
        self._buffer = bytearray()
        self.requests = self.errors_5xx = self.writes = self.head_misses = 0
        self.admit_batches = 0

    def connection_made(self, transport) -> None:
        self._transport = transport
        with self._server._lock:
            self._server.connections[self] = None  # its thread, once started

    def connection_lost(self, exc: Optional[Exception]) -> None:
        server = self._server
        with server._lock:
            del server.connections[self]
            for key in _HTTP_COUNTS:
                server._retired[key] += getattr(self, key)

    def data_received(self, data: bytes) -> None:
        """Answer every complete request in the buffer, in order, with
        one write (one more per ``_WRITE_CHUNK_BYTES`` of replies). A
        run of ``/admit`` requests is decided in one :meth:`_decide`
        call; any other request (or a refusal) is answered only once
        the run before it is decided."""
        buffer = self._buffer
        buffer += data
        server = self._server
        heads = server._heads
        payload: Optional[_Payload]
        replies: List[bytes] = []
        admits: List[_Arrival] = []  # the run not yet decided
        unwritten = 0
        held = 0  # bound on the bytes of the run's replies
        start = 0
        close = False
        while not close:
            arrival = None
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
                    self.head_misses += 1
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
                payload = None  # answered once the run before it is
                if route == _ADMIT:
                    try:
                        arrival = _admit_args(body)
                    except Exception as exc:  # noqa: BLE001 - its 400 or 500
                        status, payload = server._failure(exc)
                if arrival is not None:
                    admits.append(arrival)
                    held += _REPLY_PER_REQUEST_BYTE * (body_end - start)
                start, close = body_end, close_asked
                if arrival is not None and not close and (
                    unwritten + held < _WRITE_CHUNK_BYTES
                ):
                    continue
            if admits:
                unwritten += self._decide(
                    admits, replies, close and arrival is not None
                )
                admits, held = [], 0
            if arrival is None:
                if payload is None:
                    status, payload = server._answer(route, body)
                self.requests += 1
                if status == 500:
                    self.errors_5xx += 1
                reply = _encode_response(status, payload, close)
                replies.append(reply)
                unwritten += len(reply)
            if unwritten >= _WRITE_CHUNK_BYTES:
                self.writes += 1
                self._transport.write(b"".join(replies))
                replies, unwritten = [], 0
        if admits:  # the buffer ends in the run's last request, or part of the next
            self._decide(admits, replies, False)
        del buffer[:len(buffer) if close else start]
        if replies:
            self.writes += 1
            self._transport.write(b"".join(replies))
        if close:
            self._transport.close()

    def _decide(
        self, admits: List[_Arrival], replies: List[bytes], close: bool
    ) -> int:
        """Decide a run of ``/admit`` requests in one
        :meth:`LivePoolService.admit_many` call and append their
        replies in order, the last one closing if ``close``; returns
        the bytes appended."""
        server = self._server
        results = server.service.admit_many(admits)
        self.admit_batches += 1
        self.requests += len(results)
        admit_reply = server._admit_reply
        last = results[-1]
        size = 0
        for result in results:
            status, payload = admit_reply(result)
            if status == 500:
                self.errors_5xx += 1
            reply = _encode_response(status, payload, close and result is last)
            replies.append(reply)
            size += len(reply)
        return size


class LiveHTTPServer:
    """Serves one :class:`LivePoolService` over HTTP: an accept thread,
    a thread per connection and an expiry timer thread."""

    def __init__(
        self,
        service: LivePoolService,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = 0.25,
    ) -> None:
        nonneg.check("tick_interval_s", tick_interval_s)  # 0: no background tick
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.tick_interval_s = tick_interval_s
        self._lock = threading.Lock()  # connections, _retired, accept_errors
        # Open connections, in the order they opened, to their threads.
        self.connections: Dict[_Connection, Optional[threading.Thread]] = {}
        self._retired = dict.fromkeys(_HTTP_COUNTS, 0)  # closed ones' counts
        self._listeners: List[socket.socket] = []
        self._threads: List[threading.Thread] = []  # accept ones, timer
        self._stopped = threading.Event()
        self.tick_errors = 0  # expire_tick() failures the timer survived
        self.accept_errors = 0  # accept() failures the accept loop survived
        self._heads: Dict[bytes, Tuple[int, bool, _Route]] = {}
        self._quoted = _Quoted()  # outcomes and admitted function names

    def http_counts(self) -> Dict[str, int]:
        """The HTTP counters of every connection, open or closed, summed."""
        with self._lock:
            open_now, counts = list(self.connections), dict(self._retired)
        for key in _HTTP_COUNTS:
            counts[key] += sum(getattr(connection, key) for connection in open_now)
        return counts

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    @staticmethod
    def _failure(exc: Exception) -> Tuple[int, _Payload]:
        """The reply to a request that raised ``exc``: 400 for a bad
        body, else a last-resort 500 (its connection counts it)."""
        if isinstance(exc, _BadBody):
            return 400, {"error": exc.args[0]}
        return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _admit_reply(
        self, result: Union[AdmitDecision, Exception]
    ) -> Tuple[int, _Payload]:
        """``(status, payload)`` for what the service made of one
        ``/admit``: its decision, or the exception that refused it."""
        if type(result) is AdmitDecision:
            outcome, function, now_s, latency_s = result
            decision_us = latency_s * 1e6
            if type(now_s) is float is type(decision_us) and (
                -_INF < now_s < _INF and -_INF < decision_us < _INF
            ):
                # The encoder's bytes for the dict below (it, too, writes
                # a finite float with float.__repr__), without the dict.
                quoted = self._quoted
                return 200, (
                    f'{{"outcome":{quoted[outcome]},"function":'
                    f'{quoted[function]},"now_s":{now_s!r},'
                    f'"decision_us":{decision_us!r}}}'
                ).encode()
            return 200, {
                "outcome": outcome,
                "function": function,
                "now_s": now_s,
                "decision_us": decision_us,
            }
        if isinstance(result, UnknownFunctionError):
            return 404, {"error": f"unknown function {result.args[0]!r}"}
        return self._failure(cast(Exception, result))

    def _answer(self, route: _Route, body: bytes) -> Tuple[int, _Payload]:
        """One framed request, not an ``/admit`` → ``(status, payload)``."""
        if route is None:
            return 400, {"error": "malformed request line"}
        method, path = route
        try:
            if path == "/release" and method == "POST":
                now_s = _json_object(body).get("now_s")
                return 200, {"released": self.service.release(now_s)}
            if path == "/stats" and method == "GET":
                stats = self.service.stats()
                stats["http"] = dict(
                    self.http_counts(),
                    connections=len(self.connections),
                    tick_errors=self.tick_errors,
                    accept_errors=self.accept_errors,
                )
                return 200, stats
        except Exception as exc:  # noqa: BLE001 - its 400 or 500
            return self._failure(exc)
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path in ("/admit", "/release", "/stats", "/healthz"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route for {path}"}

    # ------------------------------------------------------------------
    # Threads and lifecycle
    # ------------------------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        """Accept until :meth:`stop`; a connection is open before its
        thread starts. A client the server has no descriptor, buffer or
        thread for is dropped (counted), and the loop goes on."""
        while not self._stopped.is_set():
            try:
                sock, __ = listener.accept()
            except ConnectionAbortedError:  # the client gave up first
                continue
            except OSError:  # stop() shut it down, or EMFILE, ENOBUFS, ...
                if not self._stopped.is_set():
                    with self._lock:
                        self.accept_errors += 1
                    self._stopped.wait(0.1)  # descriptors free as clients leave
                continue
            connection = _Connection(self)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                thread = threading.Thread(
                    target=self._serve, args=(connection, sock), daemon=True
                )
                connection.connection_made(_SocketWriter(sock))
                with self._lock:
                    self.connections[connection] = thread
                thread.start()
            except (OSError, RuntimeError):  # RuntimeError: no new thread
                with self._lock:
                    self.accept_errors += 1
                    self.connections.pop(connection, None)
                sock.close()

    def _serve(self, connection: _Connection, sock: socket.socket) -> None:
        """One connection's thread: read and answer until either side
        closes (at EOF every reply is already written)."""
        writer, recv, received = connection._transport, sock.recv, connection.data_received
        try:
            while not writer.closed:
                data = recv(_READ_BYTES)
                if not data:
                    break
                received(data)
        except OSError:  # reset by the client, or hung up by stop()
            pass
        finally:
            connection.connection_lost(None)
            if writer.closed:
                _linger(sock)
            sock.close()

    def _tick(self) -> None:
        """Expire on a timer, so an idle pool (no arrivals) frees memory."""
        while not self._stopped.wait(self.tick_interval_s):
            try:
                self.service.expire_tick()
            except Exception:  # noqa: BLE001 - counted; the timer lives
                self.tick_errors += 1

    def start(self) -> None:
        """Bind a listener on every address ``host`` resolves to (``""``:
        every interface), all on one port (``port`` is the bound one on
        return); start the threads."""
        addresses = dict.fromkeys(
            (family, address[0])
            for family, __, __, __, address in socket.getaddrinfo(
                self.host or None, self.port,
                type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE,
            )
        )
        listeners: List[socket.socket] = []
        try:
            for family, address in addresses:
                listeners.append(
                    socket.create_server((address, self.port), family=family)
                )
                self.port = listeners[0].getsockname()[1]
        except OSError:
            for listener in listeners:
                listener.close()
            raise
        self._listeners = listeners
        self._stopped.clear()
        self._threads = [
            threading.Thread(target=self._accept, args=(listener,), daemon=True)
            for listener in listeners
        ]
        if self.tick_interval_s > 0.0:
            self._threads.append(threading.Thread(target=self._tick, daemon=True))
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Shut the listeners down, hang up on every open connection
        (an idle keep-alive client, or one a blocked ``sendall`` waits
        on), and join every thread. Idempotent."""
        listeners, self._listeners = self._listeners, []
        if not listeners:
            return
        self._stopped.set()
        for listener in listeners:
            listener.shutdown(socket.SHUT_RDWR)  # wakes accept() (Linux)
        accepting = len(listeners)
        for thread in self._threads[:accepting]:
            thread.join()  # no connection opens after this
        for listener in listeners:
            listener.close()
        with self._lock:
            for connection, thread in self.connections.items():
                try:  # wakes a blocked recv (EOF) or sendall (an error)
                    connection._transport._sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client hung up first
                    pass
                self._threads.append(thread)
        for thread in self._threads[accepting:]:
            thread.join()

    def serve_forever(self, on_ready: Optional[Callable[..., None]] = None) -> None:
        """Start, serve until :meth:`stop` or a ``KeyboardInterrupt``
        (the CLI turns SIGTERM into one), then stop. ``on_ready(server)``
        runs once the socket is bound (the CLI announces the port)."""
        self.start()
        try:
            if on_ready is not None:
                on_ready(self)
            self._stopped.wait()
        finally:
            self.stop()


def _linger(sock: socket.socket) -> None:
    """Half-close ``sock`` and read what the client still sends, up to
    its EOF or ``_LINGER_BYTES`` / ``_LINGER_S``, whichever comes first."""
    deadline, left = wall_clock_s() + _LINGER_S, _LINGER_BYTES
    try:
        sock.shutdown(socket.SHUT_WR)
        while left > 0 and (timeout_s := deadline - wall_clock_s()) > 0.0:
            sock.settimeout(timeout_s)
            data = sock.recv(_READ_BYTES)
            if not data:
                break
            left -= len(data)
    except OSError:  # the client reset, or the time ran out
        pass


class ServerThread:
    """``ServerThread(service).start()``: a :class:`LiveHTTPServer`
    (no expiry timer by default) for in-process callers -- the tests,
    the ``live_smoke`` bench scenario; ``stop()`` hangs up and joins."""

    def __init__(
        self,
        service: LivePoolService,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = 0.0,
    ) -> None:
        self.server = LiveHTTPServer(service, host, port, tick_interval_s)

    host = property(lambda self: self.server.host)
    port = property(lambda self: self.server.port)

    def start(self) -> "ServerThread":
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()
