"""A deterministic call budget for the replay hot path.

``replay.py_calls_per_inv`` of the ledger (benchmarks/ledger) is the
one performance number that repeats exactly: function calls, Python
and builtin alike, made inside one ``simulate()``. This suite counts
them the same way — ``sys.setprofile``, no clock anywhere — over two
small GD replays, a HIST one, a streamed kernel replay and a pipelined
live request stream, and holds them to what the code pays today, so a
refactor that puts a frame or a builtin back on every arrival fails
here instead of showing up as a few percent of noise in a timing run.

The budgets are the counts measured on CPython 3.11 (3.12 inlines
comprehensions and counts fewer). Lowering one after a real cut is
the point; raising one needs the ledger row that paid for it.
"""

import gc
import json
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.checks.sanitize import set_sanitize
from repro.core.clock import SimClock
from repro.live.server import LiveHTTPServer, _Connection
from repro.live.service import LivePoolService
from repro.sim import columnar  # noqa: F401 - simulate() imports it lazily, on a first call
from repro.sim.scheduler import simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace

CONTAINER_MB = 128.0

#: Total calls of one replay, as landed by PR 16 (the parent commit
#: paid 57,611 and 32,498): 63.87 per arrival over the 600 arrivals of
#: the eviction replay, 27.99 over the 711 of the warm one. PR 24 added
#: one call per *run* to each object-engine replay (none per arrival):
#: the simulator's one ``EventQueue()`` is a Python frame where the
#: ``deque()`` it replaced was not.
EVICT_CALLS = 38_321
WARM_CALLS = 19_904
#: HIST on the warm replay's trace, as landed by PR 17 (the parent paid
#: 45,971 = 64.66 per arrival): 50.68 per arrival with a histogram
#: sample, a plan and an expiry deadline on every one of them.
HIST_CALLS = 36_036
#: The whole live request path, ``_Connection.data_received`` down, over
#: the warm replay's trace as pipelined ``/admit`` requests on a pool of
#: 0.8 x the working set, as landed by PR 18 (the parent paid 76,720 =
#: 107.90 per request; on the ledger's live trace 102.75 -> 68.85):
#: 74.49 per request to frame, decode, decide, evict and reply.
LIVE_CALLS = 52_961
#: The vectorized TTL kernel over a 300-function, 3,600 s stream, trace
#: generation included, as landed by PR 20 (the parent paid 60,411 =
#: 8.69 per arrival, a heap pop, ``uniform``, ``round`` and push each;
#: on the ledger's 2,000-function ``ttl_stream`` 8.78 -> 1.39): 2.38 per
#: arrival, one ``random()`` per uniform drawn (a block per function at
#: a time, so a short stream over-draws) and a few ufuncs per round.
STREAM_CALLS = 16_544


@pytest.fixture
def unsanitized():
    """The sanitizer attaches a tracer and recomputes the accounting
    on every add/evict: a different (and deliberately slow) path."""
    set_sanitize(False)
    yield
    set_sanitize(None)


def round_robin_trace(num_functions=200, rounds=3, seed=16):
    """Every function once per round in a fresh seeded order, 50 ms
    apart, on a pool a quarter of the working set: nearly every
    arrival is a cold start that picks a victim."""
    functions = [
        TraceFunction(f"rr-{i:03d}", CONTAINER_MB, 0.2, 1.0)
        for i in range(num_functions)
    ]
    rng = random.Random(seed)
    order = list(range(num_functions))
    invocations, t = [], 0.0
    for __ in range(rounds):
        rng.shuffle(order)
        for i in order:
            invocations.append(Invocation(round(t, 6), functions[i].name))
            t += 0.05
    return Trace(functions, invocations, name="rr")


def churn_trace(num_functions=60, duration_s=1200.0, seed=16):
    """Roughly periodic per-function arrivals (60-240 s apart, +/-30 %
    jitter) on a pool above the working set: all warm after the
    compulsory misses, nothing ever evicted."""
    rng = random.Random(seed)
    functions, invocations = [], []
    for i in range(num_functions):
        function = TraceFunction(f"churn-{i:03d}", CONTAINER_MB, 0.2, 1.2)
        functions.append(function)
        iat = (60.0, 120.0, 240.0)[i % 3]
        t = rng.uniform(0.0, iat)
        while t < duration_s:
            invocations.append(Invocation(round(t, 6), function.name))
            t += iat * rng.uniform(0.7, 1.3)
    return Trace(functions, invocations, name="churn")


def counted(run, *args):
    """``(calls made inside run(*args), its result)``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # Finalizers of an earlier test's garbage are calls too: collect it
    # now and keep the collector out of the counted region.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


def count_calls(trace, memory_mb, policy="GD"):
    calls, result = counted(simulate, trace, policy, memory_mb)
    return calls, result.metrics


def test_eviction_replay_call_budget(unsanitized):
    trace = round_robin_trace()
    calls, metrics = count_calls(trace, 48 * CONTAINER_MB)
    # The replay is the one the budget was set on: a victim per miss.
    assert len(trace) == 600
    assert (metrics.cold_starts, metrics.evictions) == (590, 542)
    assert calls <= EVICT_CALLS, (
        f"{calls / 600:.2f} calls per arrival on the eviction replay, "
        f"budget {EVICT_CALLS / 600:.2f}"
    )


def test_warm_replay_call_budget(unsanitized):
    trace = churn_trace()
    calls, metrics = count_calls(trace, 1.25 * 60 * CONTAINER_MB)
    assert len(trace) == 711
    assert metrics.evictions == 0 and metrics.dropped == 0
    assert metrics.warm_starts == len(trace) - 60
    assert calls <= WARM_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the warm replay, "
        f"budget {WARM_CALLS / 711:.2f}"
    )


def test_hist_replay_call_budget(unsanitized):
    trace = churn_trace()
    calls, metrics = count_calls(trace, 1.25 * 60 * CONTAINER_MB, "HIST")
    # The replay is the one the budget was set on: HIST releases and
    # pre-warms where GD, above, only ever kept warm.
    assert metrics.evictions == 0 and metrics.dropped == 0
    assert (metrics.expirations, metrics.prewarms) == (79, 59)
    assert calls <= HIST_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the HIST replay, "
        f"budget {HIST_CALLS / 711:.2f}"
    )


def test_streamed_kernel_replay_call_budget(unsanitized):
    stream = StreamingChurnTrace(num_functions=300, duration_s=3600.0, seed=16)
    calls, result = counted(
        lambda: simulate(
            stream, "TTL", 2 * 300 * CONTAINER_MB, engine="columnar", ttl_s=300.0
        )
    )
    # The replay is the one the budget was set on, on the kernel.
    assert result.path == "vectorized-ttl"
    metrics = result.metrics
    assert (metrics.served, metrics.cold_starts, metrics.expirations) == (
        6953, 951, 718,
    )
    assert calls <= STREAM_CALLS, (
        f"{calls / 6953:.2f} calls per arrival on the streamed replay, "
        f"budget {STREAM_CALLS / 6953:.2f}"
    )


def generation_peak_bytes(duration_s):
    stream = StreamingChurnTrace(
        num_functions=300, duration_s=duration_s, seed=16, chunk_invocations=2048
    )
    gc.collect()
    tracemalloc.start()
    try:
        arrivals = sum(len(times) for times, __ in stream.chunks())
        return arrivals, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_generation_memory_does_not_grow_with_duration():
    """``O(functions + chunk)``: four times the arrivals, the same peak
    (generator state, one merge window, one chunk held back)."""
    arrivals, peak = generation_peak_bytes(20_000.0)
    longer_arrivals, longer_peak = generation_peak_bytes(80_000.0)
    assert longer_arrivals > 3.9 * arrivals > 100_000
    assert longer_peak <= 1.1 * peak


class RecordingTransport:
    def __init__(self):
        self.written = bytearray()

    def write(self, data):
        self.written += data


def test_live_request_call_budget(unsanitized):
    """64 requests per read, as the ledger's ``live_pipelined`` window
    delivers them, on a pool that holds 0.8 of the working set (warm
    hits mixed with cold starts that evict)."""
    trace = churn_trace()
    memory_mb = 0.8 * 60 * CONTAINER_MB
    requests = []
    for inv in trace:
        body = json.dumps(
            {"function": inv.function_name, "now_s": inv.time_s},
            separators=(",", ":"),
        ).encode()
        requests.append(
            b"POST /admit HTTP/1.1\r\nHost: budget\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
    reads = [b"".join(requests[i:i + 64]) for i in range(0, len(requests), 64)]
    service = LivePoolService(trace, "GD", memory_mb, clock=SimClock())
    connection, transport = _Connection(LiveHTTPServer(service)), RecordingTransport()
    connection.connection_made(transport)

    def serve():
        for read in reads:
            connection.data_received(read)

    calls, __ = counted(serve)
    # The budgeted path is the real one: every request got the decision
    # the offline replay makes, in order.
    replies = [
        json.loads(part.partition(b"\r\n\r\n")[2])
        for part in bytes(transport.written).split(b"HTTP/1.1 200 OK\r\n")[1:]
    ]
    offline = simulate(trace, "GD", memory_mb).metrics
    assert [r["function"] for r in replies] == [i.function_name for i in trace]
    assert Counter(r["outcome"] for r in replies) == {
        "warm": offline.warm_starts, "cold": offline.cold_starts,
    }
    assert offline.evictions > 0 and offline.dropped == 0
    assert service.counters() == offline.counters()
    assert calls <= LIVE_CALLS, (
        f"{calls / 711:.2f} calls per request on the live path, "
        f"budget {LIVE_CALLS / 711:.2f}"
    )


def test_counts_repeat_exactly(unsanitized):
    trace = round_robin_trace(num_functions=50, rounds=2)
    first, __ = count_calls(trace, 12 * CONTAINER_MB)
    second, __ = count_calls(trace, 12 * CONTAINER_MB)
    assert first == second
