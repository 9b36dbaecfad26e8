"""Live serving mode: the keep-alive engine behind a real-time HTTP
frontend (docs/live-serving.md).

One policy engine, two drivers: the simulator replays traces through a
:class:`~repro.core.clock.SimClock`; this package drives the *same*
:class:`~repro.sim.scheduler.KeepAliveSimulator` from live HTTP
requests under a :class:`~repro.core.clock.RealTimeClock` —

* :class:`~repro.live.service.LivePoolService` — the thread-safe
  facade (single-lock discipline, decision-latency histogram);
* :class:`~repro.live.server.LiveHTTPServer` /
  :class:`~repro.live.server.ServerThread` — the asyncio HTTP
  frontend (``/admit``, ``/release``, ``/stats``, ``/healthz``);
* :func:`~repro.live.loadgen.run_loadgen` — trace replay against a
  running server (deterministic pipelined mode and open-loop mode)
  with p50/p99/p999 decision-latency reporting.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.live.latency import LatencyHistogram
    from repro.live.loadgen import LoadgenReport, fetch_stats, run_loadgen
    from repro.live.server import LiveHTTPServer, ServerThread
    from repro.live.service import AdmitDecision, LivePoolService, UnknownFunctionError

__all__ = [
    "AdmitDecision",
    "LatencyHistogram",
    "LiveHTTPServer",
    "LivePoolService",
    "LoadgenReport",
    "ServerThread",
    "UnknownFunctionError",
    "fetch_stats", "run_loadgen",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "latency": "LatencyHistogram",
    "loadgen": "LoadgenReport fetch_stats run_loadgen",
    "server": "LiveHTTPServer ServerThread",
    "service": "AdmitDecision LivePoolService UnknownFunctionError",
})
