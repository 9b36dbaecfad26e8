#!/usr/bin/env python
"""Live-serving smoke gate (docs/live-serving.md).

Boots ``repro-faascache serve`` as a real child process on an
ephemeral port, replays a built-in trace through ``repro-faascache
loadgen`` over actual loopback sockets, and fails on:

* any 5xx response,
* any server/client decision-counter inconsistency,
* a decision-latency p99 above the ceiling (``MAX_P99_MS``, raised on
  a host slower than the reference by the calibration loop's ratio),
* a pipelined burst ending in an oversized ``Content-Length`` that is
  not answered in order, ``413`` last, and then closed — or that costs
  any other connection its service,
* a failed expiry tick, or a head memo that was not hit (the loadgen's
  10k heads differ only in ``Content-Length``: tens of misses, not
  thousands),
* pipelined admits that were not decided in runs (the loadgen keeps
  up to 256 in flight: a read carries many, so far fewer
  ``admit_many`` batches than requests),
* a connection that pipelines admits and never reads holding up a
  second connection's ``/healthz`` and admits past the socket timeout,
* a ``SIGTERM`` — what ``kill``, systemd, Docker and Kubernetes send —
  that does not end the server with exit status 0 and "shutting down"
  (with that stalled connection still open).

This is the two-process path — CLI parsing, signal handling, and the
port-announce handshake included; ``tests/test_live_http.py`` holds the
in-process server to the offline replay's results. CI's ``live-smoke``
job and ``make live-smoke`` both run this script.

Usage: PYTHONPATH=src python benchmarks/live_smoke_gate.py
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time

from repro.core.clock import wall_clock_s
from repro.live.loadgen import fetch_stats
from repro.traces.synth import skewed_frequency_trace

TRACE = "skewed-frequency"
POLICY = "GD"
MEMORY_GB = "2"
LIMIT = "10000"
MAX_P99_MS = 5.0  # on the reference host
REFERENCE_CALIBRATION_S = 0.132634  # calibration_s() on the reference host
ANNOUNCE = re.compile(r"at http://([\d.]+):(\d+)")
STARTUP_TIMEOUT_S = 30.0
SOCKET_TIMEOUT_S = 10.0
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: gate\r\n\r\n"
STALL_S = 0.5  # sends refused this long: the server has stopped reading
MAX_HEAD_MISSES = 100  # of LIMIT requests; a miss per request is ~10,000
MAX_ADMIT_BATCHES = 3_000  # of LIMIT admits (~1,300 on two cores); one each: 10,000


def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python workload: this
    host's speed, against ``REFERENCE_CALIBRATION_S``."""
    best = float("inf")
    for __ in range(3):
        started = wall_clock_s()
        acc = 0
        for i in range(2_000_000):
            acc = (acc + i * i) % 1000003
        best = min(best, wall_clock_s() - started)
    return best


def max_p99_ms() -> float:
    """The decision p99 ceiling on this host: a slower host gets a
    proportionally higher one, never a lower one."""
    calibration = calibration_s()
    ceiling_ms = MAX_P99_MS * max(1.0, calibration / REFERENCE_CALIBRATION_S)
    print(
        f"live-smoke: calibration {calibration:.6f} s "
        f"(reference {REFERENCE_CALIBRATION_S} s): "
        f"decision p99 ceiling {ceiling_ms:.2f} ms"
    )
    return ceiling_ms


def _exchange(host: str, port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection; everything the server
    answers until it closes (the request must make it close)."""
    with socket.create_connection((host, port), SOCKET_TIMEOUT_S) as sock:
        sock.sendall(request)
        received = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return received
            received += data


def _statuses(received: bytes) -> list:
    return [int(s) for s in re.findall(rb"HTTP/1\.1 (\d{3}) ", received)]


def refused_burst_failures(host: str, port: int) -> list:
    """A refused request closes its own connection, after the requests
    pipelined ahead of it are answered, and nobody else's."""
    failures = []
    burst = HEALTHZ * 3 + (
        b"POST /admit HTTP/1.1\r\nHost: gate\r\n"
        b"Content-Length: 99999999\r\n\r\n"
        b'{"function":'  # a body the server must not read as a request
    )
    # Returning at all means the server closed: _exchange reads to EOF.
    received = _exchange(host, port, burst)
    if _statuses(received) != [200, 200, 200, 413]:
        failures.append(f"burst answered {_statuses(received)}")
    if received.count(b"Connection: close") != 1:
        failures.append("the 413 did not announce the close")
    closing = HEALTHZ.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
    if _statuses(_exchange(host, port, closing)) != [200]:
        failures.append("a fresh connection's /healthz did not answer")
    http = fetch_stats(host, port)["http"]
    if http["errors_5xx"] != 0:
        failures.append(f"stats.http.errors_5xx = {http['errors_5xx']}")
    if http["tick_errors"] != 0:
        failures.append(f"stats.http.tick_errors = {http['tick_errors']}")
    if not 0 < http["head_misses"] < MAX_HEAD_MISSES:
        failures.append(
            f"stats.http.head_misses = {http['head_misses']} of "
            f"{http['requests']} requests: the head memo is not being hit"
        )
    if not 0 < http["admit_batches"] < MAX_ADMIT_BATCHES:
        failures.append(
            f"stats.http.admit_batches = {http['admit_batches']} of "
            f"{http['requests']} requests: pipelined admits are not batched"
        )
    print(
        f"live-smoke: {http['requests']} requests, "
        f"{http['admit_batches']} admit batches, "
        f"{http['head_misses']} head misses"
    )
    return failures


def _admit(name: str, close: bool = False) -> bytes:
    body = b'{"function":"%s"}' % name.encode()
    return b"POST /admit HTTP/1.1\r\nHost: gate\r\n%sContent-Length: %d\r\n\r\n%s" % (
        b"Connection: close\r\n" if close else b"", len(body), body
    )


def stalled_connection(host: str, port: int) -> socket.socket:
    """A connection that pipelines admits and never reads, sent to until
    the server has stopped reading it (its sends refused for
    ``STALL_S``); raises ``OSError`` if that does not happen in time."""
    names = list(skewed_frequency_trace().functions)
    burst = b"".join(_admit(name) for name in names) * 50
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before the handshake
    sock.connect((host, port))
    sock.setblocking(False)
    deadline = time.monotonic() + SOCKET_TIMEOUT_S
    pending, refused_since = memoryview(burst), None
    while time.monotonic() < deadline:
        try:
            pending = pending[sock.send(pending):] or memoryview(burst)
            refused_since = None
        except BlockingIOError:
            now = time.monotonic()
            if refused_since is None:
                refused_since = now
            elif now - refused_since >= STALL_S:
                return sock
            time.sleep(0.01)
    sock.close()
    raise TimeoutError("the server kept reading a client that never reads")


def neighbour_failures(host: str, port: int) -> list:
    """Beside a stalled connection, another is answered in time."""
    names = list(skewed_frequency_trace().functions)[:3]
    request = HEALTHZ + b"".join(
        _admit(name, close=at == len(names) - 1) for at, name in enumerate(names)
    )
    try:
        received = _exchange(host, port, request)
    except OSError as exc:  # a timeout: the stalled connection held it up
        return [f"the neighbour of a stalled connection: {exc!r}"]
    if _statuses(received) != [200] * (1 + len(names)):
        return [f"the neighbour of a stalled connection got {_statuses(received)}"]
    print("live-smoke: a stalled connection's neighbour was answered")
    return []


def shutdown_failures(server: subprocess.Popen) -> list:
    """SIGTERM ends the server the way Ctrl-C does: cleanly."""
    server.send_signal(signal.SIGTERM)
    try:
        __, stderr = server.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        return ["the server was still running 10 s after SIGTERM"]
    sys.stderr.write("".join(f"[serve] {line}\n" for line in stderr.splitlines()))
    failures = []
    if server.returncode != 0:
        failures.append(f"SIGTERM ended the server with status {server.returncode}")
    if "shutting down" not in stderr:
        failures.append('the server did not say "shutting down"')
    return failures


def main() -> int:
    ceiling_ms = max_p99_ms()  # before the server starts, on an idle host
    env = dict(os.environ)
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--trace", TRACE,
            "--policy", POLICY,
            "--memory-gb", MEMORY_GB,
            "--port", "0",
            "--clock", "sim",
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # The serve subcommand announces the resolved ephemeral port
        # on stderr once the socket is bound.
        assert server.stderr is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        host = port = None
        while time.monotonic() < deadline:
            line = server.stderr.readline()
            if not line:
                break
            sys.stderr.write(f"[serve] {line}")
            match = ANNOUNCE.search(line)
            if match:
                host, port = match.group(1), match.group(2)
                break
        if port is None:
            print("FAIL: server never announced a port", file=sys.stderr)
            return 1

        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "loadgen",
                "--trace", TRACE,
                "--host", host,
                "--port", port,
                "--limit", LIMIT,
                "--check-consistency",
                "--max-p99-ms", repr(ceiling_ms),
            ],
            env=env,
        )
        if result.returncode != 0:
            print("FAIL: loadgen gate failed", file=sys.stderr)
            return 1
        try:
            failures = refused_burst_failures(host, int(port))
        except OSError as exc:  # e.g. a timeout: the server never closed
            failures = [f"refused-burst probe: {exc!r}"]
        try:
            stalled = stalled_connection(host, int(port))
        except OSError as exc:
            failures.append(f"stalled-connection probe: {exc!r}")
            failures += shutdown_failures(server)
        else:
            with stalled:  # still open at the SIGTERM: stop() hangs it up
                failures += neighbour_failures(host, int(port))
                failures += shutdown_failures(server)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("live-smoke gate passed")
        return 0
    finally:
        if server.poll() is None:  # failed before the SIGTERM check
            server.kill()
            server.wait()


if __name__ == "__main__":
    sys.exit(main())
