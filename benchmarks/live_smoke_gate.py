#!/usr/bin/env python
"""Live-serving smoke gate (docs/live-serving.md).

Boots ``repro-faascache serve`` as a real child process on an
ephemeral port, replays a built-in trace through ``repro-faascache
loadgen`` over actual loopback sockets, and fails on:

* any 5xx response,
* any server/client decision-counter inconsistency,
* a calibration-normalized decision-latency p99 above the ceiling,
* a pipelined burst ending in an oversized ``Content-Length`` that is
  not answered in order, ``413`` last, and then closed — or that costs
  any other connection its service,
* a failed expiry tick, or a head memo that was not hit (the loadgen's
  10k heads differ only in ``Content-Length``: tens of misses, not
  thousands),
* a ``SIGTERM`` — what ``kill``, systemd, Docker and Kubernetes send —
  that does not end the server with exit status 0 and "shutting down".

This is the two-process path — CLI parsing, signal handling, and the
port-announce handshake included — as opposed to the in-process
``live_smoke`` bench scenario. CI's ``live-smoke`` job and
``make live-smoke`` both run this script.

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

from repro.live.loadgen import fetch_stats

TRACE = "skewed-frequency"
POLICY = "GD"
MEMORY_GB = "2"
LIMIT = "10000"
MAX_P99_MS = "5"
BASELINE = os.path.join(
    os.path.dirname(__file__), "BASELINE.json"
)
ANNOUNCE = re.compile(r"at http://([\d.]+):(\d+)")
STARTUP_TIMEOUT_S = 30.0
SOCKET_TIMEOUT_S = 10.0
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: gate\r\n\r\n"
MAX_HEAD_MISSES = 100  # of LIMIT requests; a miss per request is ~10,000


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
    return failures


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
                "--max-p99-ms", MAX_P99_MS,
                "--calibration-baseline", BASELINE,
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
