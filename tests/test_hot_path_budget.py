"""A deterministic call budget for the replay hot path.

``replay.py_calls_per_inv`` of the ledger (benchmarks/ledger) is the
one performance number that repeats exactly: function calls, Python
and builtin alike, made inside one ``simulate()``. This suite counts
them the same way — ``sys.setprofile``, no clock anywhere — over two
small GD replays (the eviction one on the arrival loop and on the GD
kernel, the warm one on the loop and on the vectorized kernel), the
warm one's trace under harvest and spot faults on the GD kernel, a HIST
one (on the loop and on the HIST kernel), a streamed kernel replay and
a pipelined live request stream, and holds
them to what the code pays today, so a refactor that puts a frame or a
builtin back on every arrival fails here instead of showing up as a
few percent of noise in a timing run.

The budgets are the counts measured on CPython 3.11 (3.12 inlines
comprehensions and counts fewer). Lowering one after a real cut is
the point; raising one needs the ledger row that paid for it.
"""

import dis
import gc
import importlib
import inspect
import json
import random
import sys
import textwrap
import tracemalloc
from collections import Counter

import pytest

from repro.core.clock import SimClock
from repro.core.container import Container
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.pool import ContainerPool
from repro.faults import FaultSpec
from repro.live.server import LiveHTTPServer, _Connection
from repro.live.service import LivePoolService
from repro.sim import columnar  # noqa: F401 - simulate() imports it lazily, on a first call
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces import synth
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace

CONTAINER_MB = 128.0

#: Total calls of one replay. The eviction replay's 600 arrivals paid
#: 63.87 calls each (38,321), then 50.49 (30,291) after one frame per
#: busy/idle transition, a parked container re-enrolled under its real
#: key (no rescore and ``heappushpop`` on its next offer), and stored
#: fields instead of property and helper frames on every arrival, on
#: the arrival loop (``engine="object"``), which the GD kernel now
#: answers by default. The warm replay's 711 paid 27.99 (19,904) and pay
#: 20.00 (14,217) on the loop, which the TTL kernel now answers by
#: default. (One call per *run* is the simulator's ``EventQueue()``.)
#: A trace's ``arrivals()`` zips its columns instead of resuming a
#: generator per arrival: one call less each, 49.49 (29,692) and 19.00
#: (13,507). The warm replay's 651 warm hits each find their container's
#: siblings by a slice of the per-function index, not a comprehension
#: frame, and ``wall_clock_s`` is the C counter itself (two frames per
#: run): 13,507 - 651 - 2 = 12,854 (18.08).
EVICT_CALLS = 29_692
WARM_CALLS = 12_854
#: The eviction replay through the default ``simulate()``, which the GD
#: kernel answers: 11.08 calls per arrival (6,650), then 10.09 (6,056)
#: once an outcome is booked by subscript, then 9.09 (5,452) once the
#: arrivals are the trace's columns zipped, not a generator — two dict
#: lookups (Freq, containers), a heap push and a pop for the run, and
#: per victim a pop off the index, an ``append`` to the cover, a
#: ``remove`` from its function's list and the new container's
#: ``__init__``. Measured 5,450; then 8.18 (4,908) once a cold start
#: that evicted resets its victim's record in place: the ``__init__``
#: frame of each of the 542 goes, and nothing replaces it (an index,
#: not a call). The frame was the cost, more than the count says.
GD_KERNEL_CALLS = 4_908
#: The warm replay's trace on 0.9 x its working set under harvest steps
#: and a spot eviction (a down and a restore, 98 retries, 45 deflations),
#: through the default ``simulate()``, which the GD kernel answers:
#: 12.56 calls per arrival (8,930), against 39.95 (28,405) on the loop;
#: 11.55 (8,215) with the arrivals zipped from the columns.
#: Beside the eviction replay's calls it pays the timeline generator and
#: per retry a ``next_delay`` (its jitter draw: a hasher copy, four
#: packs, a digest) and a heap push and pop. On the one timeline
#: (``EventQueue.merge``) it pays 11.70 (8,322): one ``pop`` frame per
#: entry it consumes (98 retries and 9 server events) and one ``push``
#: frame per retry (+205), the queue's construction (+2), less the
#: ``min`` each ``next_delay`` no longer calls (−98) and the tail's
#: ``any`` scan (−2): +107, one call per entry consumed. Measured
#: 8,320; then 10.72 (7,624): each jitter draw packs its key whole and
#: hashes it in one ``update``: the ``"jitter"`` part's four packing
#: calls and three of the four updates go, and ``_pack_key``, its
#: ``join`` and ``draw`` stand for the ``__call__`` frame, 19 calls to
#: 14 (−490); and the 206 cold starts that evicted reuse a victim's
#: record (−206 ``__init__``).
GD_FAULT_KERNEL_CALLS = 7_624
#: The same warm replay on the vectorized kernel (GD replayed at
#: ``ttl_s = inf``): 0.53 calls per arrival (379) while an object trace
#: was transposed per chunk; 0.27 (189) on the trace's own columns —
#: the eligibility test, one chunk wrapped without a copy and a few
#: dozen ufuncs. Then 0.24 (172): the chunk pass reads and writes the
#: carried state at segment heads and tails (no ``np.where``, no
#: ``arange``), tests with ``ndarray`` methods rather than the
#: ``np.any`` / ``np.sort`` / ``np.count_nonzero`` wrappers, and the
#: eligibility test walks the table's rows, not a copied dict.
KERNEL_WARM_CALLS = 172
#: HIST on the warm replay's trace, with a histogram sample, a plan and
#: an expiry deadline on every arrival: 50.68 calls each (36,036) before
#: the cuts above, 45.68 (32,481) after, 44.68 (31,771) with the
#: arrivals zipped from the columns, on the arrival loop
#: (``engine="object"``; the kernels' eligibility test, 2 calls, is not
#: asked there). With Welford's update and the predictability test
#: spelled out and the plan memoised (the kernel's cut, below): 38.93
#: (27,677). The pool's expiry index without its second map, of
#: containers no hook had scheduled yet: one ``dict.pop`` less on a
#: container's first deadline or on its eviction, 213 in all, 38.63
#: (27,464).
HIST_CALLS = 27_464
#: The same HIST replay through the default ``simulate()``, which the
#: HIST kernel answers: 13.58 calls per arrival (9,653) — the histogram
#: sample (``record_arrival``, two ``round``, ``Welford.update``) and
#: the plan (``_plan``, ``is_predictable``, the CoV, ``head_s``,
#: ``tail_s``, ``max``) are HIST's own code; the kernel adds a dict
#: lookup and a heap push or pop per prewarm: 12.58 (8,942) once the
#: arrivals are the trace's columns zipped, not a generator. Welford's
#: count, mean and M2 in the histogram's own slots and the
#: predictability test inline in ``_plan`` take ``Welford.update``
#: (651), ``is_predictable`` (711), ``coefficient_of_variation`` and its
#: ``abs`` (591 each) and the 60 ``Welford.__init__`` off the replay; a
#: predictable plan memoised on its head bucket, tail bucket and
#: ``count == 0`` answers 496 of the 591 without ``head_s``, ``tail_s``
#: or ``max``: 8,942 - 4,092 = 4,850 (6.82).
HIST_KERNEL_CALLS = 4_850
#: The whole live request path, ``_Connection.data_received`` down, over
#: the warm replay's trace as pipelined ``/admit`` requests on a pool of
#: 0.8 x the working set: 74.49 calls per request (52,961) to frame,
#: decode, decide, evict and reply before the cuts above, 65.38 (46,484)
#: after. Each read's 64 admits decided in one ``admit_many`` run, with
#: the body read by the decoder's C ``scan_once``: 53.45 (38,000). Per
#: request 16 calls leave (``_answer``, ``_dispatch``, ``_json_object``,
#: ``decode``, ``raw_decode`` and its two whitespace ``match`` + ``end``,
#: two ``isinstance``, ``isfinite``, a ``dict.get``, ``admit``,
#: ``AdmitDecision.__new__``, the lock's ``__exit__``) and 4 come
#: (``_admit_args``, ``_admit_reply``, two ``list.append``); per run of
#: the 12 come ``admit_many``, ``_decide``, a ``len`` and its one
#: ``__exit__``: 46,484 - 16 x 711 + 4 x 711 + 4 x 12 = 38,000. With
#: ``wall_clock_s`` the C counter itself, each decision's two readings
#: lose their frames; the timestamp is what ``SimClock.advance_to``
#: returns, not a ``now()`` call after it; and each of the 531 warm hits
#: finds its siblings by a slice, not a comprehension frame: 38,000 -
#: 3 x 711 - 531 = 35,336 (49.70). A read is answered and written in
#: ``data_received`` itself (no ``_answer_buffered`` or ``_write`` frame:
#: 2 x 12 leave), and each of the 5 head misses makes one regex search
#: for whitespace before a header's colon: 35,336 - 24 + 5 = 35,317
#: (49.67).
LIVE_CALLS = 35_317
#: The vectorized TTL kernel over a 300-function, 3,600 s stream, trace
#: generation included. A heap pop, ``uniform``, ``round`` and push per
#: arrival paid 8.69 calls each (60,411); columns and one sort per window
#: paid 2.38 (16,543; 16,536 once the kernel's per-chunk footprint test
#: left), one ``random()`` per uniform drawn; one ``getrandbits`` (and
#: its ``to_bytes``) per 32-uniform refill of a function (a short stream
#: over-draws) and a few ufuncs per round pay 0.82 (5,708); 5,694 with
#: the kernel's leaner chunk pass (the warm replay's cuts, above).
STREAM_CALLS = 5_694
#: Building 1,000 ``Invocation``s (shuffled times on a 0.1 s grid, 89
#: equal-time neighbours) and their ``Trace`` over 100 functions, an
#: exact count. 2,375 with a frozen-dataclass ``Invocation``: two frames
#: each (``__init__``, ``__post_init__``; its two ``object.__setattr__``
#: are slot wrappers the profiler does not see, so the dataclass's cost
#: shows in wall time, not here), two calls per function in the
#: registry's loop (``len``, ``append``) and the time column's order
#: check. With the ``NamedTuple``: still two each (``__new__`` and
#: ``tuple.__new__``), the registry built by ``dict(zip(...))`` and no
#: second look at the sorted column: 2,175. Each run of equal times
#: costs two (a ``list.append`` and its ``sorted``).
TRACE_BUILD_CALLS = 2_175


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


def build_pairs(num_functions=100, num_invocations=1000, seed=16):
    """Functions, and arrival times and names in no order, with ties."""
    rng = random.Random(seed)
    functions = [
        TraceFunction(f"b-{i:03d}", CONTAINER_MB, 0.2, 1.0) for i in range(num_functions)
    ]
    times = [round(rng.uniform(0.0, 600.0), 1) for __ in range(num_invocations)]
    names = [functions[rng.randrange(num_functions)].name for __ in times]
    return functions, times, names


def build_trace(functions, times, names):
    return Trace(functions, list(map(Invocation, times, names)), name="build")


#: What replay code imports inside a function, on first use.
_LAZY_IMPORTS = ("hashlib", "numpy", "repro.faults.model", "repro.faults.retry")


def counted(run, *args, **kwargs):
    """``(calls made inside run(*args, **kwargs), its result)``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # A module the replay imports lazily (the fault machinery and
    # hashlib under a spec, NumPy in the TTL kernel) costs ~1,000 importlib calls the first
    # time: load them now, so a budget counts the replay alone, whatever
    # ran before it. Finalizers of an earlier test's garbage are calls
    # too: collect it now and keep the collector out of the counted
    # region.
    for module in _LAZY_IMPORTS:
        importlib.import_module(module)
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = run(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


def count_calls(trace, memory_mb, policy="GD", **kwargs):
    calls, result = counted(simulate, trace, policy, memory_mb, **kwargs)
    return calls, result.metrics


def test_eviction_replay_call_budget(unsanitized):
    trace = round_robin_trace()
    calls, metrics = count_calls(trace, 48 * CONTAINER_MB, engine="object")
    # The replay is the one the budget was set on: a victim per miss.
    assert len(trace) == 600
    assert (metrics.cold_starts, metrics.evictions) == (590, 542)
    assert calls <= EVICT_CALLS, (
        f"{calls / 600:.2f} calls per arrival on the eviction replay, "
        f"budget {EVICT_CALLS / 600:.2f}"
    )


def test_gd_kernel_call_budget(unsanitized):
    trace = round_robin_trace()
    calls, result = counted(simulate, trace, "GD", 48 * CONTAINER_MB)
    # The eviction replay above, answered by the GD kernel.
    assert result.path == "gd-kernel"
    assert (result.metrics.cold_starts, result.metrics.evictions) == (590, 542)
    assert calls <= GD_KERNEL_CALLS, (
        f"{calls / 600:.2f} calls per arrival on the GD kernel replay, "
        f"budget {GD_KERNEL_CALLS / 600:.2f}"
    )


#: The spec of the faulted replay: harvest steps every ~2 minutes, a
#: spot eviction with its notice, a one-minute replacement.
HARVEST_SPEC = FaultSpec(
    seed=1, harvest_interval_s=120.0, harvest_min_frac=0.55, harvest_max_frac=0.95,
    spot_mtbf_s=400.0, spot_notice_s=30.0, server_recovery_s=60.0,
)


def test_gd_fault_kernel_call_budget(unsanitized):
    trace = churn_trace()
    calls, result = counted(
        simulate, trace, "GD", 0.9 * 60 * CONTAINER_MB, fault_spec=HARVEST_SPEC
    )
    assert result.path == "gd-kernel"
    metrics = result.metrics
    assert (metrics.server_downs, metrics.retries, metrics.deflations) == (1, 98, 45)
    assert calls <= GD_FAULT_KERNEL_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the faulted GD kernel replay, "
        f"budget {GD_FAULT_KERNEL_CALLS / 711:.2f}"
    )


def test_warm_replay_call_budget(unsanitized):
    trace = churn_trace()
    calls, metrics = count_calls(
        trace, 1.25 * 60 * CONTAINER_MB, engine="object"
    )
    assert len(trace) == 711
    assert metrics.evictions == 0 and metrics.dropped == 0
    assert metrics.warm_starts == len(trace) - 60
    assert calls <= WARM_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the warm replay, "
        f"budget {WARM_CALLS / 711:.2f}"
    )


def test_warm_kernel_call_budget(unsanitized):
    trace = churn_trace()
    calls, result = counted(simulate, trace, "GD", 1.25 * 60 * CONTAINER_MB)
    # The replay is the warm one above, answered by the kernel.
    assert result.path == "vectorized"
    assert result.metrics.warm_starts == len(trace) - 60
    assert calls <= KERNEL_WARM_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the warm kernel replay, "
        f"budget {KERNEL_WARM_CALLS / 711:.2f}"
    )


def test_hist_replay_call_budget(unsanitized):
    trace = churn_trace()
    calls, metrics = count_calls(
        trace, 1.25 * 60 * CONTAINER_MB, "HIST", engine="object"
    )
    # The replay is the one the budget was set on: HIST releases and
    # pre-warms where GD, above, only ever kept warm.
    assert metrics.evictions == 0 and metrics.dropped == 0
    assert (metrics.expirations, metrics.prewarms) == (79, 59)
    assert calls <= HIST_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the HIST replay, "
        f"budget {HIST_CALLS / 711:.2f}"
    )


def test_hist_kernel_call_budget(unsanitized):
    trace = churn_trace()
    calls, result = counted(simulate, trace, "HIST", 1.25 * 60 * CONTAINER_MB)
    # The HIST replay above, answered by the HIST kernel.
    assert result.path == "hist-kernel"
    assert (result.metrics.expirations, result.metrics.prewarms) == (79, 59)
    assert calls <= HIST_KERNEL_CALLS, (
        f"{calls / 711:.2f} calls per arrival on the HIST kernel replay, "
        f"budget {HIST_KERNEL_CALLS / 711:.2f}"
    )


def test_streamed_kernel_replay_call_budget(unsanitized):
    stream = StreamingChurnTrace(num_functions=300, duration_s=3600.0, seed=16)
    calls, result = counted(
        simulate, stream, "TTL", 2 * 300 * CONTAINER_MB, ttl_s=300.0
    )
    # The replay is the one the budget was set on, on the kernel.
    assert result.path == "vectorized"
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


def test_gd_kernel_peak_stays_within_the_loops(unsanitized):
    """The GD kernel's victim index holds one entry per container, as
    the pool's does: on a warm-heavy pressured replay (650 functions at
    0.95 x the registry, a victim every ~40 arrivals) its peak stays at
    or below the loop's. An index that files an entry per warm start and
    never purges the superseded ones peaks at ~10x the loop's here."""
    trace = synth.churn_trace(650, 9600.0, seed=3)
    memory_mb = 0.95 * sum(f.memory_mb for f in trace.functions.values())
    peaks = {}
    for engine in ("object", "columnar"):
        gc.collect()
        tracemalloc.start()
        try:
            result = simulate(trace, "GD", memory_mb, engine=engine)
            peaks[result.path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    metrics = result.metrics
    assert (len(trace), metrics.evictions, metrics.warm_starts) == (42_038, 996, 40_425)
    assert peaks["gd-kernel"] <= peaks["sequential"], peaks


def test_gd_fault_kernel_peak_stays_within_the_loops(unsanitized):
    """The same bound on a harvest and spot replay (650 functions at
    0.9 x the registry), where outages leave stale index entries behind:
    the purge keeps the kernel's peak at or below the loop's."""
    trace = synth.churn_trace(650, 9600.0, seed=3)
    memory_mb = 0.9 * sum(f.memory_mb for f in trace.functions.values())
    spec = FaultSpec(
        seed=2026, harvest_interval_s=600.0, harvest_min_frac=0.55,
        harvest_max_frac=0.95, spot_mtbf_s=4000.0, spot_notice_s=30.0,
    )
    peaks = {}
    for engine in ("object", "columnar"):
        gc.collect()
        tracemalloc.start()
        try:
            result = simulate(trace, "GD", memory_mb, engine=engine, fault_spec=spec)
            peaks[result.path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    metrics = result.metrics
    assert metrics.server_downs and metrics.deflations and metrics.retries
    assert peaks["gd-kernel"] <= peaks["sequential"], peaks


def test_streamed_replay_peak_stays_with_the_default_chunk(unsanitized):
    """A stream's default chunk (one merge window) bounds the TTL
    kernel's temporaries: a 2,000-function replay peaks at most 60 % of
    the same replay in 65,536-arrival chunks (0.59 measured; the rest is
    the generator's own per-function state)."""
    peaks = {}
    for chunk in (None, 65_536):
        stream = StreamingChurnTrace(
            num_functions=2000, duration_s=21_600.0, seed=2026,
            **({"chunk_invocations": chunk} if chunk else {}),
        )
        gc.collect()
        tracemalloc.start()
        try:
            result = simulate(stream, "TTL", 2 * 2000 * CONTAINER_MB, ttl_s=300.0)
            peaks[chunk] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.path == "vectorized" and result.metrics.served > 65_536
    assert peaks[None] <= 0.6 * peaks[65_536], peaks


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
    for engine in ("object", "columnar"):  # the arrival loop, the GD kernel
        first, __ = count_calls(trace, 12 * CONTAINER_MB, engine=engine)
        second, __ = count_calls(trace, 12 * CONTAINER_MB, engine=engine)
        assert first == second, engine
    # The faulted GD kernel: the retry jitter hashes on every retry.
    faulted = churn_trace()
    first, __ = count_calls(faulted, 0.9 * 60 * CONTAINER_MB, fault_spec=HARVEST_SPEC)
    second, __ = count_calls(faulted, 0.9 * 60 * CONTAINER_MB, fault_spec=HARVEST_SPEC)
    assert first == second


#: What every live decision and every loop arrival runs through. A call
#: budget cannot see an ``Enum`` member read (``ContainerState.WARM`` is
#: an attribute load, not a call), yet on CPython 3.11 one costs >10x a
#: module constant; these read the members bound once per module.
PER_ARRIVAL = (
    KeepAliveSimulator.process_invocation,
    KeepAliveSimulator._release_finished,
    Container.start_invocation,
    Container.finish_invocation,
    ContainerPool.idle_warm_container,
    ContainerPool.containers_of,
    ContainerPool.add,
    ContainerPool.evict,
    ContainerPool.iter_victims,
    GreedyDualPolicy.on_invocation,
    GreedyDualPolicy.on_warm_start,
    LivePoolService.admit_many,
)


def loaded_globals(function):
    """Names ``function`` (nested code objects included) loads as globals."""
    names, codes = set(), [function.__code__]
    while codes:
        code = codes.pop()
        names.update(
            ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"
        )
        codes.extend(const for const in code.co_consts if inspect.iscode(const))
    return names


@pytest.mark.parametrize("function", PER_ARRIVAL, ids=lambda f: f.__qualname__)
def test_no_enum_member_read_per_arrival(function):
    assert "ContainerState" not in loaded_globals(function)


def test_the_enum_guard_bites():
    """The pool's idle scan with its state test back on the Enum."""
    function = ContainerPool.idle_warm_container
    source = textwrap.dedent(inspect.getsource(function))
    old = "container.state is not _WARM"
    assert source.count(old) == 1
    scope = {}
    exec(  # noqa: S102
        source.replace(old, "container.state is not ContainerState.WARM"),
        function.__globals__, scope,
    )
    assert "ContainerState" in loaded_globals(scope["idle_warm_container"])


def test_trace_build_call_budget():
    functions, times, names = build_pairs()
    calls, trace = counted(build_trace, functions, times, names)
    ordered = list(trace.times_s)
    assert len(trace) == 1000 and ordered == sorted(times)
    assert sum(map(float.__eq__, ordered, ordered[1:])) == 89
    assert calls == TRACE_BUILD_CALLS, (
        f"{calls} calls to build 1,000 invocations and their trace, "
        f"budget {TRACE_BUILD_CALLS}"
    )
