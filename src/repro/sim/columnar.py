"""The exact kernels: replays that skip the pool and the policy hooks.

Every replay normally runs the per-arrival loop of
:meth:`~repro.sim.scheduler.KeepAliveSimulator.run`, which pays Python
dispatch for every arrival. For the runs memory pressure cannot reach
(a default configuration whose pool holds the whole registry) one of
two kernels replaces it with **byte-identical**
:class:`SimulationMetrics`; ``simulate()`` asks the one its static test
(:func:`repro.sim.scheduler._exact_kernel`) names and falls back to the
loop when it declines. The loop stays the reference both are
differentially tested against (``tests/test_columnar_differential.py``,
``engine="object"``); ``SimulationResult.path`` says which ran.

* :func:`run_ttl_kernel` (``"vectorized"``) answers an exact
  :class:`TTLPolicy` at its own ``ttl_s`` and every policy that lets a
  container go only under pressure at ``ttl_s = inf``: no policy state
  reaches an outcome. It checks chunk by chunk that every function's
  arrival gap covers its cold time (so a function never holds two
  containers). Each deadline then follows the recurrence ``d_i = (t_i +
  dur_i) + ttl`` with ``cold_i ⇔ d_{i-1} <= t_i``, which resolves with
  three vectorized classifications (certainly-cold, certainly-warm, and
  an alternating ambiguous band; ``docs/performance-log.md`` has the
  derivation). At ``ttl = inf`` a function's first arrival is cold,
  every later one warm, and nothing expires. Metric sums use
  ``np.add.accumulate``, whose strict left-to-right evaluation
  reproduces the simulator's sequential ``+=`` bit for bit.
* :func:`run_hist_kernel` (``"hist-kernel"``) answers an exact, fresh
  :class:`HistogramPolicy`, whose state does reach outcomes, in one
  pass over the arrivals on HIST's own histograms and plans (the
  argument is above :class:`_HistFunction`).

A violation discovered mid-stream discards the kernel state and the
caller replays from the start through the loop (every trace form is
restartable), so the fast path can never silently diverge.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.clock import wall_clock_s
from repro.core.policies.histogram import FunctionHistogram, HistogramPolicy
from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.scheduler import SimulationResult
from repro.traces.columnar import (
    DEFAULT_CHUNK_INVOCATIONS,
    ColumnarTrace,
    FunctionTable,
)
from repro.traces.model import Invocation, Trace
from repro.traces.streaming import StreamingChurnTrace

__all__ = ["run_hist_kernel", "run_ttl_kernel"]

#: Every trace form the kernel reads: an object trace (transposed a
#: chunk at a time), materialized columnar arrays, or a restartable
#: chunk stream.
KernelSource = Union[Trace, ColumnarTrace, StreamingChurnTrace]

#: Arrivals of an object trace transposed per chunk: the kernel's
#: temporaries stay a few kilobytes each (a whole-trace transpose would
#: hold the trace twice over, and NumPy's temporaries scale with it).
_OBJECT_CHUNK = 1024

_TIME = attrgetter("time_s")
_NAME = attrgetter("function_name")


def _transposed(
    invocations: Sequence[Invocation], table: FunctionTable, chunk: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    for start in range(0, len(invocations), chunk):
        part = invocations[start:start + chunk]
        yield (
            np.fromiter(map(_TIME, part), np.float64, len(part)),
            np.fromiter(map(table.index_of, map(_NAME, part)), np.int32, len(part)),
        )


def _columns(
    trace: KernelSource, chunk_invocations: Optional[int]
) -> Tuple[FunctionTable, Iterator[Tuple[np.ndarray, np.ndarray]]]:
    """The function table and the ``(times, function_ids)`` chunks of
    ``trace`` in replay order."""
    if isinstance(trace, StreamingChurnTrace):
        return trace.functions_table, trace.chunks()  # its own chunking
    if isinstance(trace, ColumnarTrace):
        return trace.functions_table, trace.iter_chunks(
            chunk_invocations or DEFAULT_CHUNK_INVOCATIONS
        )
    table = FunctionTable(trace.functions.values())
    return table, _transposed(
        trace.invocations, table, chunk_invocations or _OBJECT_CHUNK
    )


# ----------------------------------------------------------------------
# Vectorized kernel
# ----------------------------------------------------------------------
#
# Equivalence argument (with gaps >= cold time and capacity never
# binding, each function owns at most one container and pressure
# eviction never fires):
#
# * The object simulator schedules a container's expiry at
#   ``(start + duration) + ttl`` and pops deadlines ``<= now`` before
#   the warm lookup, so arrival *i* of a function is cold exactly when
#   its previous arrival's deadline ``d_{i-1} <= t_i``.
# * ``d_{i-1}`` is one of two per-arrival candidates — warm or cold
#   duration — so each arrival classifies as *certainly cold* (even
#   the cold-duration deadline has passed), *certainly warm* (even the
#   warm-duration deadline is alive), or *ambiguous*, where exactly
#   one step of history decides: ``cold_i = not cold_{i-1}`` (a cold
#   predecessor's longer deadline survives, a warm one's has lapsed).
#   Ambiguity therefore *alternates*, and a run of ambiguous arrivals
#   after a certain one resolves by parity — a gather plus an XOR.
# * Expirations: every non-final container of a function expired
#   before the cold start that replaced it, and the final one expires
#   iff its deadline precedes the global last arrival (the expiry
#   phase runs at every arrival under TTL), giving
#   ``(cold_starts - functions_arrived) + finals_lapsed``.
# * Metric sums replay the oracle's exact left-to-right float
#   accumulation via ``np.add.accumulate`` with a scalar carry across
#   chunks (covered by a dedicated exactness test).


class _TTLKernelState:
    """Per-function recurrence state carried across chunks."""

    def __init__(self, table: FunctionTable) -> None:
        count = len(table)
        self.d_prev = np.full(count, -np.inf)  # deadline after last use
        self.t_prev = np.full(count, -np.inf)  # last arrival time
        self.arrived = np.zeros(count, dtype=bool)
        self.cold_counts = np.zeros(count, dtype=np.int64)
        self.total_counts = np.zeros(count, dtype=np.int64)
        self.appearance: List[int] = []  # fids in first-arrival order
        self.ideal_sum = 0.0
        self.actual_sum = 0.0
        self.invocations = 0
        self.t_last = 0.0


def run_ttl_kernel(
    trace: KernelSource,
    ttl_s: float,
    capacity_mb: float,
    policy_name: str,
    chunk_invocations: Optional[int] = None,
) -> Optional[SimulationResult]:
    """Closed-form replay at keep-alive ``ttl_s`` (``inf``: never
    expire); None when an arrival gap is shorter than its function's
    cold time. The caller has established that ``capacity_mb`` holds
    the whole registry. The result does not depend on
    ``chunk_invocations`` (default: 65,536 for a :class:`ColumnarTrace`,
    1,024 for an object trace; a stream brings its own chunking)."""
    started = wall_clock_s()
    table, chunks = _columns(trace, chunk_invocations)
    state = _TTLKernelState(table)
    for times, fids in chunks:
        if not _ttl_kernel_chunk(state, table, times, fids, ttl_s):
            return None
    metrics = _ttl_kernel_metrics(state, table)
    metrics.wall_time_s = wall_clock_s() - started
    return SimulationResult(
        trace_name=trace.name,
        policy_name=policy_name,
        memory_mb=capacity_mb,
        metrics=metrics,
        path="vectorized",
    )


def _ttl_kernel_chunk(
    state: _TTLKernelState,
    table: FunctionTable,
    times: np.ndarray,
    fids: np.ndarray,
    ttl_s: float,
) -> bool:
    """Process one chunk; False on a precondition violation."""
    size = times.size
    if size == 0:
        return True
    # Group by function with arrival order preserved inside groups.
    # A stable sort of 16-bit keys is a radix sort (of int32, a merge
    # sort ten times slower): same permutation wherever the ids fit.
    keys = fids.astype(np.uint16) if len(table) <= 65_536 else fids
    order = np.argsort(keys, kind="stable")
    fs = fids[order]
    ts = times[order]
    warm_t = table.warm_time_s[fs]
    cold_t = table.cold_time_s[fs]
    seg_start = np.empty(size, dtype=bool)
    seg_start[0] = True
    np.not_equal(fs[1:], fs[:-1], out=seg_start[1:])

    # Precondition: every same-function gap covers the cold time, so
    # the previous invocation (warm or cold) has always finished and
    # a function never needs a second concurrent container.
    gaps = np.empty(size)
    gaps[0] = np.inf
    np.subtract(ts[1:], ts[:-1], out=gaps[1:])
    carried_t_prev = state.t_prev[fs]
    gaps = np.where(seg_start, ts - carried_t_prev, gaps)
    if bool(np.any(gaps < cold_t)):
        return False

    first_seen = seg_start & ~state.arrived[fs]
    if bool(np.any(first_seen)):
        # Record first arrivals (one segment head per function) in
        # *global* chunk order — the order the oracle's per-function
        # dict acquires its keys.
        state.appearance.extend(fids[np.sort(order[first_seen])].tolist())
        state.arrived[fs[first_seen]] = True

    # Deadline candidates after each arrival: the simulator schedules
    # (start + duration) + ttl with exactly this association order.
    d_warm = (ts + warm_t) + ttl_s
    d_cold = (ts + cold_t) + ttl_s

    # Classify arrivals. Segment heads compare against the carried
    # (exact) previous deadline; interior arrivals against their
    # predecessor's two candidates.
    prev_dw = np.empty(size)
    prev_dc = np.empty(size)
    prev_dw[0] = prev_dc[0] = np.inf  # head: decided by carried state
    prev_dw[1:] = d_warm[:-1]
    prev_dc[1:] = d_cold[:-1]
    certainly_cold = prev_dc <= ts
    certainly_warm = prev_dw > ts
    head_cold = state.d_prev[fs] <= ts
    certain = seg_start | certainly_cold | certainly_warm
    certain_value = np.where(seg_start, head_cold, certainly_cold)
    # Ambiguous arrivals alternate (cold_i = not cold_{i-1}); resolve
    # each against the nearest earlier certain arrival by parity.
    positions = np.arange(size)
    anchor = np.where(certain, positions, -1)
    np.maximum.accumulate(anchor, out=anchor)
    cold_sorted = certain_value[anchor] ^ (((positions - anchor) & 1) == 1)

    # Commit per-function recurrence state at segment tails.
    seg_end = np.empty(size, dtype=bool)
    seg_end[-1] = True
    seg_end[:-1] = seg_start[1:]
    d_final = np.where(cold_sorted, d_cold, d_warm)
    tail_fids = fs[seg_end]
    state.d_prev[tail_fids] = d_final[seg_end]
    state.t_prev[tail_fids] = ts[seg_end]

    # Counters and the oracle's exact sequential metric sums, in
    # global arrival order.
    function_count = len(table)
    state.cold_counts += np.bincount(
        fs[cold_sorted], minlength=function_count
    )
    state.total_counts += np.bincount(fs, minlength=function_count)
    cold_in_order = np.empty(size, dtype=bool)
    cold_in_order[order] = cold_sorted
    ideal = np.empty(size + 1)
    ideal[0] = state.ideal_sum
    ideal[1:] = table.warm_time_s[fids]
    state.ideal_sum = float(np.add.accumulate(ideal)[-1])
    actual = np.empty(size + 1)
    actual[0] = state.actual_sum
    actual[1:] = np.where(
        cold_in_order, table.cold_time_s[fids], table.warm_time_s[fids]
    )
    state.actual_sum = float(np.add.accumulate(actual)[-1])
    state.invocations += int(size)
    state.t_last = float(times[-1])
    return True


def _ttl_kernel_metrics(
    state: _TTLKernelState, table: FunctionTable
) -> SimulationMetrics:
    metrics = SimulationMetrics()
    if not state.invocations:
        return metrics
    total_cold = int(np.add.reduce(state.cold_counts))
    metrics.cold_starts = total_cold
    metrics.warm_starts = state.invocations - total_cold
    metrics.ideal_exec_time_s = state.ideal_sum
    metrics.actual_exec_time_s = state.actual_sum
    arrived_fids = np.array(state.appearance, dtype=np.int64)
    finals_lapsed = int(
        np.count_nonzero(state.d_prev[arrived_fids] <= state.t_last)
    )
    metrics.expirations = (
        total_cold - len(state.appearance) + finals_lapsed
    )
    names = table.names
    cold_counts = state.cold_counts
    total_counts = state.total_counts
    for fid in state.appearance:
        cold = int(cold_counts[fid])
        metrics.per_function[names[fid]] = FunctionOutcome(
            warm=int(total_counts[fid]) - cold, cold=cold
        )
    return metrics


# ----------------------------------------------------------------------
# HIST kernel
# ----------------------------------------------------------------------
#
# Equivalence argument: while every function holds at most one container
# (the kernel returns None when a function is busy at its next arrival,
# a plan's deadline falls before its run ends, or a prewarm comes due
# while its function runs) and nothing is evicted, the loop's phases at
# an arrival of f at time t reduce to:
#
# * expiry: f's container is gone once an arrival after the one that
#   set its deadline reaches that deadline;
# * prewarm: a pending prewarm materializes at the first arrival of any
#   function at or after its due time, unless f's container is alive
#   there; it lives until its own deadline, and through the arrival it
#   came up at (whose expiry phase has already run);
# * the arrival: warm on a live container (a prewarm's first use adds
#   the uncovered share of the init time), cold otherwise; then HIST's
#   own histogram sample and plan file the deadline and maybe a prewarm.


class _HistFunction:
    """One function's state in :func:`run_hist_kernel`: its container
    (at most one) and its counts."""

    __slots__ = ("hist", "busy_until", "deadline", "since", "prewarmed", "pending", "warm", "cold")

    def __init__(self, window_minutes: int) -> None:
        self.hist = FunctionHistogram(window_minutes)
        self.busy_until = 0.0  # end of the container's latest run
        self.deadline = 0.0  # the container's keep-alive deadline
        self.since = 0  # index of the arrival that set the deadline
        self.prewarmed = False  # the container is an unused prewarm
        self.pending = 0  # filing number of the live prewarm; 0: none
        self.warm = self.cold = 0


def run_hist_kernel(
    trace: KernelSource,
    policy: HistogramPolicy,
    capacity_mb: float,
    prewarm_effectiveness: float,
) -> Optional[SimulationResult]:
    """Exact replay of a fresh ``policy`` on a pool the caller has
    established holds the whole registry; None as soon as a function
    could need a second container or stay busy past its deadline."""
    started = wall_clock_s()
    window = policy.window_minutes
    plan = policy._plan
    uncovered = 1.0 - prewarm_effectiveness
    functions: Dict[str, _HistFunction] = {}
    # Pending prewarms: (due, filing number, function, keep until).
    due: List[Tuple[float, int, _HistFunction, float]] = []
    filed = expirations = prewarms = 0
    ideal = actual = now = 0.0
    index = -1
    for index, (now, function) in enumerate(trace.arrivals()):
        while due and due[0][0] <= now:
            __, number, state, keep_until = heappop(due)
            if state.pending != number:
                continue  # cancelled by an arrival of its function
            state.pending = 0
            if state.busy_until > now:
                return None  # the prewarm would be a second container
            if state.deadline > now:
                continue  # an idle container is still alive: skipped
            expirations += 1
            prewarms += 1
            state.deadline, state.since, state.prewarmed = keep_until, index, True
        name = function.name
        state = functions.get(name)
        if state is None:
            state = functions[name] = _HistFunction(window)
            warm = False
        elif state.busy_until > now:
            return None  # still running: a second container
        else:
            warm = state.deadline > now or state.since == index
            if not warm:
                expirations += 1
        hist = state.hist
        hist.record_arrival(now)
        state.pending = 0
        keep_s, prewarm_after_s, prewarm_keep_s, __ = plan(hist)
        warm_s = function.warm_time_s
        if warm:
            duration = warm_s
            if state.prewarmed:
                duration += uncovered * function.init_time_s
            state.warm += 1
        else:
            duration = function.cold_time_s
            state.cold += 1
        ideal += warm_s
        actual += duration
        busy_until = now + duration
        deadline = now + keep_s
        if deadline < busy_until:
            return None  # it would expire while busy
        state.busy_until, state.deadline = busy_until, deadline
        state.since, state.prewarmed = index, False
        if prewarm_after_s is not None:
            filed += 1
            state.pending = filed
            heappush(due, (now + prewarm_after_s, filed, state, now + prewarm_keep_s))
    metrics = SimulationMetrics(
        prewarms=prewarms, ideal_exec_time_s=ideal, actual_exec_time_s=actual
    )
    for name, state in functions.items():  # first-arrival order
        # A deadline the last arrival reached expired there, unless that
        # arrival set it: its expiry phase had already run.
        if state.deadline <= now and state.since < index:
            expirations += 1
        metrics.per_function[name] = FunctionOutcome(state.warm, state.cold)
        metrics.cold_starts += state.cold
    metrics.warm_starts = index + 1 - metrics.cold_starts
    metrics.expirations = expirations
    metrics.wall_time_s = wall_clock_s() - started
    return SimulationResult(
        trace.name, policy.name, capacity_mb, metrics, path="hist-kernel"
    )
