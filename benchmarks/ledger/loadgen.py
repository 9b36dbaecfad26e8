"""The ledger's own load generator and serve-child lifecycle.

Plain sockets, one connection, one thread: the harness process is the
client on one core and the ``repro-faascache serve`` child the server
on the other. Every latency is a raw per-request sample; percentiles
are taken from them afterwards (``stats.percentile``). A request fails
on a non-200 status, a short read, an unreadable body, or a 5 s
timeout; after a timeout or a closed connection every request not yet
answered fails with it.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

REQUEST_TIMEOUT_S = 5.0
BOOT_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0

_ANNOUNCE = re.compile(rb"at http://([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------


class ServerChild:
    """One ``repro-faascache serve`` child on an ephemeral port.

    Entering starts it and blocks until it announces its port
    (``boot_s`` is spawn-to-announce); leaving sends SIGINT, waits, and
    kills it if it has not exited after ten seconds, whatever happened
    in between.
    """

    def __init__(
        self,
        src_dir: str,
        trace_path: str,
        policy: str,
        memory_mb: float,
        sim_clock: bool,
    ) -> None:
        self._argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--trace", trace_path,
            "--policy", policy,
            "--memory-gb", repr(memory_mb / 1024.0),
            "--port", "0",
        ]
        if sim_clock:
            # Clients drive time through each request's now_s, and no
            # background tick perturbs the replayed decisions.
            self._argv += ["--clock", "sim", "--tick-interval-s", "0"]
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in [self._env.get("PYTHONPATH")] if p]
        )
        self.host = ""
        self.port = 0
        self.pid = 0
        self.boot_s = 0.0
        self._process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "ServerChild":
        started = perf_counter()
        self._process = subprocess.Popen(
            self._argv,
            env=self._env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            bufsize=0,  # select() below must see what readline() has not
        )
        self.pid = self._process.pid
        try:
            self._await_announce(started + BOOT_TIMEOUT_S)
        except BaseException:
            self._stop()
            raise
        self.boot_s = perf_counter() - started
        return self

    def _await_announce(self, deadline: float) -> None:
        stderr = self._process.stderr
        seen = b""
        while True:
            remaining = deadline - perf_counter()
            ready = remaining > 0 and select.select([stderr], [], [], remaining)[0]
            line = stderr.readline() if ready else b""
            seen += line
            match = _ANNOUNCE.search(line)
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                return
            if not line:
                raise RuntimeError(
                    "serve child never announced a port; stderr: "
                    + seen.decode(errors="replace")[-2000:]
                )

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _stop(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()

    # -- measured around the child, from /proc -------------------------

    def cpu_s(self) -> float:
        """User + system CPU seconds the child has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def _status(self, key: str) -> int:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise KeyError(key)

    def voluntary_switches(self) -> int:
        return self._status("voluntary_ctxt_switches")

    def rss_peak_mb(self) -> float:
        return self._status("VmHWM") / 1024.0


# ----------------------------------------------------------------------
# HTTP framing
# ----------------------------------------------------------------------


def encode_admit(function_name: str, now_s: Optional[float] = None) -> bytes:
    payload: Dict[str, object] = {"function": function_name}
    if now_s is not None:
        payload["now_s"] = now_s
    body = json.dumps(payload, separators=(",", ":")).encode()
    return (
        b"POST /admit HTTP/1.1\r\nHost: ledger\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )


class ResponseReader:
    """Splits a byte stream into ``(status, body)`` HTTP responses."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Tuple[int, bytes]]:
        buffer = self._buffer
        buffer += data
        while True:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(buffer[:head_end]).lower()
            at = head.find(b"content-length:")
            length = int(head[at + 15:].split(b"\r\n", 1)[0]) if at >= 0 else 0
            end = head_end + 4 + length
            if len(buffer) < end:
                return
            status = int(head[9:12])
            body = bytes(buffer[head_end + 4:end])
            del buffer[:end]
            yield status, body


def fetch_json(host: str, port: int, path: str) -> dict:
    """One ``GET`` on its own connection (``/stats`` after a run)."""
    with socket.create_connection((host, port), REQUEST_TIMEOUT_S) as sock:
        sock.sendall(
            b"GET %s HTTP/1.1\r\nHost: ledger\r\nConnection: close\r\n\r\n"
            % path.encode()
        )
        reader = ResponseReader()
        while True:
            data = sock.recv(65536)
            for status, body in reader.feed(data):
                if status != 200:
                    raise RuntimeError(f"GET {path} returned HTTP {status}")
                return json.loads(body)
            if not data:
                raise RuntimeError(f"GET {path}: connection closed early")


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


@dataclass
class ClientRun:
    """What one client run saw, request by request."""

    attempted: int
    failed: int = 0
    #: seconds per answered request, in request order (closed loop:
    #: send -> full response; open loop: due instant -> full response)
    latencies_s: List[float] = field(default_factory=list)
    #: open loop only: how late each request left, against its due time
    lateness_s: List[float] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    #: first send -> last receive, summed over segments: as the host
    #: clock read it, and scaled by each segment's host speed
    raw_wall_s: float = 0.0
    wall_s: float = 0.0
    #: closed loop: (first request, end, scaled wall seconds) per segment
    segments: List[Tuple[int, int, float]] = field(default_factory=list)
    client_cpu_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def answered_ok(self) -> int:
        return sum(self.outcomes.values())

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(why)

    def settle(self, replies: Sequence[Tuple[int, bytes]]) -> None:
        """Off the clock: check every reply and count its outcome;
        whatever was attempted and never answered has failed."""
        for status, body in replies:
            try:
                outcome = json.loads(body)["outcome"] if status == 200 else None
            except (ValueError, KeyError, TypeError):
                outcome = None
            if isinstance(outcome, str):
                self.outcomes[outcome] += 1
            else:
                self._fail(1, f"HTTP {status}: {body[:120]!r}")
        unanswered = self.attempted - len(replies)
        if unanswered:
            self._fail(unanswered, f"{unanswered} requests never answered")


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    window: int,
    segment: int = 0,
    beside=lambda: contextlib.nullcontext(SimpleNamespace(speed=1.0)),
) -> ClientRun:
    """Send ``requests`` in order on one connection, at most ``window``
    awaiting a reply; each reply lets the next request go.

    With ``segment`` > 0 the window drains every ``segment`` requests
    and each segment runs inside ``with beside() as at``: when the block
    ends ``at.speed`` says how fast the host was beside that segment,
    and every time of the segment (latencies, wall, client CPU) is
    multiplied by it. That keeps the host's speed samples a fraction of
    a second from the requests they scale."""
    run = ClientRun(attempted=len(requests))
    total = len(requests)
    replies: List[Tuple[int, bytes]] = []
    latencies = run.latencies_s
    reader = ResponseReader()
    with socket.create_connection((host, port), REQUEST_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for start in range(0, total, segment or total):
            end = min(total, start + (segment or total))
            sent, sent_at = start, []
            with beside() as at:
                cpu_started = process_time()
                last = first = perf_counter()
                try:
                    while len(replies) < end:
                        room = min(window - (sent - len(replies)), end - sent)
                        if room > 0:
                            now = perf_counter()
                            sock.sendall(b"".join(requests[sent:sent + room]))
                            sent_at.extend([now] * room)
                            sent += room
                        data = sock.recv(65536)
                        last = perf_counter()
                        if not data:
                            run.errors.append("connection closed by the server")
                            break
                        for reply in reader.feed(data):
                            latencies.append(last - sent_at[len(replies) - start])
                            replies.append(reply)
                except socket.timeout:
                    run.errors.append(f"no reply within {REQUEST_TIMEOUT_S:g} s")
                cpu_s = process_time() - cpu_started
            run.raw_wall_s += last - first
            run.wall_s += (last - first) * at.speed
            run.segments.append((start, len(replies), (last - first) * at.speed))
            run.client_cpu_s += cpu_s * at.speed
            latencies[start:] = [v * at.speed for v in latencies[start:]]
            if len(replies) < end:
                break  # timed out or closed: the rest is never sent
    run.settle(replies)
    return run


def open_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    rate_per_s: float,
    seed: int,
) -> ClientRun:
    """Poisson arrivals at ``rate_per_s``: request ``i`` is due at a
    seeded instant and leaves then whether or not earlier replies are
    back. The loop spins on one non-blocking socket (no sleeps, so the
    pacing error is the loop's own); each latency runs from the *due*
    instant, so a stall is charged to every request it delayed."""
    run = ClientRun(attempted=len(requests))
    total = len(requests)
    rng = random.Random(seed)
    due: List[float] = []
    t = 0.0
    for __ in range(total):
        t += rng.expovariate(rate_per_s)
        due.append(t)
    replies: List[Tuple[int, bytes]] = []
    latencies, lateness = run.latencies_s, run.lateness_s
    reader = ResponseReader()
    unsent = bytearray()
    with socket.create_connection((host, port), REQUEST_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        queued = 0
        first = last = progress = perf_counter()
        while len(replies) < total:
            now = perf_counter()
            elapsed = now - first
            while queued < total and due[queued] <= elapsed:
                unsent += requests[queued]
                lateness.append(elapsed - due[queued])
                queued += 1
            if unsent:
                try:
                    del unsent[:sock.send(unsent)]
                except BlockingIOError:
                    pass
            try:
                data = sock.recv(65536)
            except BlockingIOError:
                if len(replies) == queued:
                    progress = now  # nothing outstanding: not a stall
                elif now - progress > REQUEST_TIMEOUT_S:
                    run.errors.append(f"no reply within {REQUEST_TIMEOUT_S:g} s")
                    break
                continue
            last = progress = perf_counter()
            if not data:
                run.errors.append("connection closed by the server")
                break
            for reply in reader.feed(data):
                latencies.append(last - first - due[len(replies)])
                replies.append(reply)
    run.wall_s = run.raw_wall_s = last - first
    run.settle(replies)
    return run
