"""The ledger's seven workloads, generated from ``--seed``.

Every generator here is owned by the benchmark: it builds on the
``repro.traces.model`` containers but imports nothing from
``repro.bench``, so an edit to the in-tree bench suite can never change
what the ledger measures. The program only ever sees the generated
``Trace`` / ``StreamingChurnTrace``.

Inter-arrival classes are dealt to functions in equal shares (shuffled
by the seed) rather than drawn independently: a different seed then
changes *which* function is busy and *when*, but not how much work the
workload holds, so the spread across seeds stays the host's, not the
generator's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.faults import FaultSpec
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace

DEFAULT_SEED = 2026

CONTAINER_MB = 128.0
IAT_CHOICES_S = (60.0, 120.0, 240.0, 480.0, 960.0)


def churn_trace(
    num_functions: int, duration_s: float, seed: int, name: str
) -> Trace:
    """Roughly periodic per-function arrivals: each function gets one of
    the five inter-arrival times (equal shares, seed-shuffled), a
    uniform phase, and +/-30 % jitter per gap."""
    rng = random.Random(seed)
    iats = [IAT_CHOICES_S[i % len(IAT_CHOICES_S)] for i in range(num_functions)]
    rng.shuffle(iats)
    functions: List[TraceFunction] = []
    invocations: List[Invocation] = []
    for i, iat in enumerate(iats):
        function = TraceFunction(f"{name}-{i:04d}", CONTAINER_MB, 0.2, 1.2)
        functions.append(function)
        t = rng.uniform(0.0, iat)
        while t < duration_s:
            invocations.append(Invocation(round(t, 6), function.name))
            t += iat * rng.uniform(0.7, 1.3)
    return Trace(functions, invocations, name=name)


def round_robin_trace(
    num_functions: int, rounds: int, seed: int, name: str
) -> Trace:
    """Every function once per round, in a fresh seeded order, 50 ms
    apart: with a pool far below the working set nearly every arrival
    is a cold start that must pick a victim."""
    functions = [
        TraceFunction(f"{name}-{i:03d}", CONTAINER_MB, 0.2, 1.0)
        for i in range(num_functions)
    ]
    rng = random.Random(seed)
    invocations: List[Invocation] = []
    order = list(range(num_functions))
    t = 0.0
    for __ in range(rounds):
        rng.shuffle(order)
        for i in order:
            invocations.append(Invocation(round(t, 6), functions[i].name))
            t += 0.05
    return Trace(functions, invocations, name=name)


def prefix(trace: Trace, limit: int) -> Trace:
    """The first ``limit`` arrivals of ``trace`` (same functions)."""
    return Trace(
        trace.functions.values(), trace.invocations[:limit], name=trace.name
    )


@dataclass(frozen=True)
class Prepared:
    """One workload's inputs, ready to hand to the program."""

    trace: object  # Trace, or StreamingChurnTrace for ttl_stream
    policy: str
    memory_mb: float
    #: extra keyword arguments of ``simulate()`` (engine, ttl_s, fault_spec)
    sim_kwargs: Dict[str, object] = field(default_factory=dict)
    #: live workloads: requests in flight on the one connection
    window: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "replay" (in-process simulate()) or "live" (serve child)
    why: str
    build: Callable[[int, float], Prepared]  # (seed, scale) -> inputs


def _scaled(count: int, scale: float, floor: int = 10) -> int:
    return max(floor, int(round(count * scale)))


def _gd_evict(seed: int, scale: float) -> Prepared:
    trace = round_robin_trace(800, _scaled(50, scale, 3), seed, "evict")
    return Prepared(trace, "GD", 24.0 * 1024.0)


def _gd_warm(seed: int, scale: float) -> Prepared:
    n = _scaled(1620, scale)
    trace = churn_trace(n, 9600.0, seed, "warm")
    return Prepared(trace, "GD", 1.25 * n * CONTAINER_MB)


def _hist_churn(seed: int, scale: float) -> Prepared:
    n = _scaled(650, scale)
    trace = churn_trace(n, 9600.0, seed, "hist")
    return Prepared(trace, "HIST", 1.5 * n * CONTAINER_MB)


def _gd_harvest(seed: int, scale: float) -> Prepared:
    n = _scaled(650, scale)
    trace = churn_trace(n, 9600.0, seed, "harvest")
    # The capacity schedule is pinned: another --seed moves the
    # arrivals, not how many spot evictions the server suffers (two or
    # five of those would be two different workloads).
    spec = FaultSpec(
        seed=DEFAULT_SEED,
        harvest_interval_s=600.0,
        harvest_min_frac=0.55,
        harvest_max_frac=0.95,
        spot_mtbf_s=4000.0,
        spot_notice_s=30.0,
    )
    return Prepared(
        trace, "GD", 0.9 * n * CONTAINER_MB, {"fault_spec": spec}
    )


def _ttl_stream(seed: int, scale: float) -> Prepared:
    n = _scaled(2000, scale)
    trace = StreamingChurnTrace(
        num_functions=n, duration_s=21_600.0, seed=seed, name="stream"
    )
    return Prepared(
        trace,
        "TTL",
        2.0 * n * CONTAINER_MB,
        {"engine": "columnar", "ttl_s": 300.0},
    )


#: The serve child of both live workloads keeps 320 of the 400
#: functions' containers, so its decisions mix warm hits with cold
#: starts that evict: the request path a real invoker runs.
_LIVE_FUNCTIONS = 400
_LIVE_POOL_SHARE = 0.8


def _live(seed: int, scale: float, window: int, limit: int) -> Prepared:
    n = _scaled(_LIVE_FUNCTIONS, scale, 40)
    trace = churn_trace(n, 10_400.0, seed, "live")
    if limit:
        trace = prefix(trace, _scaled(limit, scale, 1500))
    return Prepared(
        trace, "GD", _LIVE_POOL_SHARE * n * CONTAINER_MB, window=window
    )


def _live_pipelined(seed: int, scale: float) -> Prepared:
    return _live(seed, scale, window=64, limit=0)


def _live_w1(seed: int, scale: float) -> Prepared:
    return _live(seed, scale, window=1, limit=20_000)


WORKLOADS = (
    Workload(
        "gd_evict", "replay",
        "GD, 800 functions round-robin on a pool of 192: ~97 % cold, a "
        "victim chosen on almost every arrival (pool add/evict/victim "
        "index + policy selection)",
        _gd_evict,
    ),
    Workload(
        "gd_warm", "replay",
        "GD, 100k churn arrivals on a pool above the working set: >=98 % "
        "warm, zero evictions (lookup + hooks + scheduler glue); a "
        "victim-path win must read no change here",
        _gd_warm,
    ),
    Workload(
        "hist_churn", "replay",
        "HIST on 40k churn arrivals: ~1 expiration and ~1 prewarm per 5 "
        "arrivals (histogram plans + expiry/prewarm housekeeping)",
        _hist_churn,
    ),
    Workload(
        "gd_harvest", "replay",
        "GD at 0.9 x working set under harvest shrink/grow + spot "
        "evictions: the pool is resized and deflated beside being read "
        "(deflate_to/retry/shed, the faults seam)",
        _gd_harvest,
    ),
    Workload(
        "ttl_stream", "replay",
        "280k streamed arrivals through the vectorized columnar TTL "
        "kernel: bypasses pool and policies, so their optimisations "
        "must read no change; trace generation shows here",
        _ttl_stream,
    ),
    Workload(
        "live_pipelined", "live",
        "fresh serve child, closed loop, 1 connection, 64 in flight: "
        "server CPU per request is the bottleneck, frontend "
        "parse/JSON/serialize work shows as capacity",
        _live_pipelined,
    ),
    Workload(
        "live_w1", "live",
        "same server, closed loop, 1 connection, one request in flight: "
        "per-request latency with no queueing; batching wins must read "
        "no change, per-request path cuts show",
        _live_w1,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
