"""Load generator: replays a trace against a live server.

Two modes, one report:

* ``pipeline`` — the deterministic mode. One connection, requests
  written in trace order with each arrival's ``now_s`` attached, a
  bounded window of them in flight (HTTP/1.1 pipelining). Against a
  sim-clock server this reproduces the simulator's decisions
  byte-for-byte while amortizing round trips, which is how the
  ``live_smoke`` bench scenario and the equivalence tests pin live
  mode to the trace replay — and how a single client sustains far more
  than the 5k decisions/s acceptance floor.

* ``openloop`` — the latency-measurement mode. Arrival times are
  scaled by ``speed`` onto the wall clock and each request is sent at
  its scheduled instant *regardless of whether earlier responses have
  arrived* (the open-loop discipline that avoids coordinated
  omission), striped across ``connections`` persistent sockets. Each
  round trip is timed from the instant the request was *due*, so a
  stall that delays later sends is charged to them.

The report carries client round-trip percentiles, the server's own
in-engine decision latencies (echoed per response as ``decision_us``),
achieved QPS, per-outcome counts, and every non-2xx status — the
``live-smoke`` CI gate reads all three.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.clock import wall_clock_s
from repro.live.latency import LatencyHistogram
from repro.traces.model import Trace

__all__ = ["LoadgenReport", "fetch_stats", "run_loadgen"]


@dataclass
class LoadgenReport:
    """Outcome of one load-generation run."""

    sent: int = 0
    completed: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    client_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    decision_latency: LatencyHistogram = field(
        default_factory=LatencyHistogram
    )
    errors: List[str] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0.0 else 0.0

    @property
    def errors_5xx(self) -> int:
        return sum(n for code, n in self.statuses.items() if code >= 500)

    def summary(self) -> dict:
        """JSON-ready summary (used by ``repro-faascache loadgen``)."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "achieved_qps": self.achieved_qps,
            "wall_s": self.wall_s,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "outcomes": dict(sorted(self.outcomes.items())),
            "client_latency": self.client_latency.summary(),
            "decision_latency": self.decision_latency.summary(),
            "errors": self.errors[:10],
        }


def _encode_admit(function_name: str, now_s: Optional[float]) -> bytes:
    payload: Dict[str, object] = {"function": function_name}
    if now_s is not None:
        payload["now_s"] = now_s
    body = json.dumps(payload, separators=(",", ":")).encode()
    head = (
        "POST /admit HTTP/1.1\r\n"
        "Host: live\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode()
    return head + body


async def _read_response(
    reader: "asyncio.StreamReader",
) -> Tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        key, sep, value = line.partition(":")
        if sep and key.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    try:
        payload = json.loads(body) if body else {}
    except ValueError:
        payload = {}
    return status, payload


def _note_response(
    report: LoadgenReport, status: int, payload: dict, rtt_s: float
) -> None:
    report.completed += 1
    report.statuses[status] = report.statuses.get(status, 0) + 1
    report.client_latency.record(rtt_s)
    if status == 200:
        outcome = payload.get("outcome")
        if isinstance(outcome, str):
            report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
        decision_us = payload.get("decision_us")
        if isinstance(decision_us, (int, float)):
            report.decision_latency.record(decision_us * 1e-6)
    elif len(report.errors) < 100:
        report.errors.append(f"HTTP {status}: {payload.get('error')}")


async def _run_pipeline(
    host: str,
    port: int,
    requests: List[Tuple[Optional[float], str]],
    report: LoadgenReport,
    window: int,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    send_times: List[float] = []
    completion = asyncio.Event()  # set by the reader on every response
    try:

        async def _writer() -> None:
            in_flight_limit = max(1, window)
            for now_s, name in requests:
                # Bound the pipeline depth so send timestamps stay
                # close to the wire (client RTTs measure the server,
                # not an unbounded local queue).
                while report.sent - report.completed >= in_flight_limit:
                    completion.clear()
                    await completion.wait()
                writer.write(_encode_admit(name, now_s))
                send_times.append(wall_clock_s())
                report.sent += 1
                await writer.drain()

        async def _reader() -> None:
            while report.completed < len(requests):
                status, payload = await _read_response(reader)
                rtt = wall_clock_s() - send_times[report.completed]
                _note_response(report, status, payload, rtt)
                completion.set()

        await asyncio.gather(_writer(), _reader())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _run_openloop(
    host: str,
    port: int,
    requests: List[Tuple[float, str]],
    report: LoadgenReport,
    connections: int,
    speed: float,
    duration_s: Optional[float],
) -> None:
    """Open-loop replay: request ``i`` fires at
    ``start + (t_i - t_0) / speed`` on its assigned connection, whether
    or not earlier responses are back."""
    t0 = requests[0][0] if requests else 0.0
    lanes: List[List[Tuple[float, str]]] = [[] for __ in range(connections)]
    for i, (time_s, name) in enumerate(requests):
        lanes[i % connections].append(((time_s - t0) / speed, name))
    started = wall_clock_s()

    async def _lane(schedule: List[Tuple[float, str]]) -> None:
        if not schedule:
            return
        reader, writer = await asyncio.open_connection(host, port)
        pending: "asyncio.Queue[Optional[float]]" = asyncio.Queue()

        async def _send() -> None:
            for offset_s, name in schedule:
                # The schedule, not completions, paces sends (open
                # loop); the time budget simply truncates the tail.
                if duration_s is not None and offset_s >= duration_s:
                    break
                due = started + offset_s
                delay = due - wall_clock_s()
                if delay > 0:
                    await asyncio.sleep(delay)
                writer.write(_encode_admit(name, None))
                # Timed from when it was due, not when it left: a late
                # sleep or a blocked drain is latency its caller saw.
                pending.put_nowait(due)
                report.sent += 1
                await writer.drain()
            pending.put_nowait(None)  # sentinel: lane done sending

        async def _recv() -> None:
            while True:
                due = await pending.get()
                if due is None:
                    return
                status, payload = await _read_response(reader)
                _note_response(report, status, payload, wall_clock_s() - due)

        try:
            await asyncio.gather(_send(), _recv())
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    await asyncio.gather(*(_lane(lane) for lane in lanes))


async def _fetch(host: str, port: int, path: str) -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: live\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def fetch_stats(host: str, port: int) -> dict:
    """One ``GET /stats`` against a live server (the counter-
    consistency gate reads this)."""
    status, payload = asyncio.run(_fetch(host, port, "/stats"))
    if status != 200:
        raise RuntimeError(f"GET /stats returned HTTP {status}: {payload}")
    return payload


def run_loadgen(
    trace: Trace,
    host: str,
    port: int,
    mode: str = "pipeline",
    connections: int = 1,
    window: int = 256,
    speed: float = 1.0,
    duration_s: Optional[float] = None,
    limit: Optional[int] = None,
    send_now: bool = True,
) -> LoadgenReport:
    """Replay ``trace``'s arrivals against a live server.

    ``send_now`` (pipeline mode) attaches each arrival's trace time as
    the request's ``now_s`` — the deterministic replay contract with a
    sim-clock server; pass ``False`` against a real-time server, whose
    clock stamps arrivals itself. ``limit`` truncates the trace (for
    smoke tests); ``speed`` compresses trace time onto the wall clock
    in open-loop mode (3600.0 replays an hour per second).
    """
    if mode not in ("pipeline", "openloop"):
        raise ValueError(f"mode must be pipeline or openloop, got {mode!r}")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if speed <= 0.0:
        raise ValueError(f"speed must be > 0, got {speed}")
    arrivals: List[Tuple[float, str]] = [
        (inv.time_s, inv.function_name) for inv in trace
    ]
    if limit is not None:
        arrivals = arrivals[:limit]
    report = LoadgenReport()
    started = wall_clock_s()
    if mode == "pipeline":
        requests = [
            (time_s if send_now else None, name) for time_s, name in arrivals
        ]
        asyncio.run(_run_pipeline(host, port, requests, report, window))
    else:
        asyncio.run(
            _run_openloop(
                host, port, arrivals, report, connections, speed, duration_s
            )
        )
    report.wall_s = wall_clock_s() - started
    return report
