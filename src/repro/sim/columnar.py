"""The exact kernels: replays that skip the pool and the policy hooks.

Every replay normally runs the per-arrival loop of
:meth:`~repro.sim.scheduler.KeepAliveSimulator.run`, which pays Python
dispatch for every arrival. Under a default configuration (the GD kernel
also under a fault spec) three kernels replace it with
**byte-identical** :class:`SimulationMetrics`;
``simulate()`` asks the ones its static test
(:func:`repro.sim.scheduler._exact_kernels`) names, in order, and falls
back to the loop when they decline. The loop stays the reference all
three are differentially tested against
(``tests/test_columnar_differential.py``, ``engine="object"``);
``SimulationResult.path`` says which ran.

* :func:`run_ttl_kernel` (``"vectorized"``) answers, on a pool that
  holds the whole registry, an exact :class:`TTLPolicy` at its own
  ``ttl_s`` and every policy that lets a container go only under
  pressure at ``ttl_s = inf``: no policy state reaches an outcome. It
  checks chunk by chunk that every function's arrival gap covers its
  cold time (so a function never holds two containers). Each deadline
  then follows the recurrence ``d_i = (t_i + dur_i) + ttl`` with
  ``cold_i ⇔ d_{i-1} <= t_i``, which resolves with three vectorized
  classifications (certainly-cold, certainly-warm, and an alternating
  ambiguous band; ``docs/performance-log.md`` has the derivation). At
  ``ttl = inf`` a function's first arrival is cold, every later one
  warm, and nothing expires. Metric sums use ``np.add.accumulate``,
  whose strict left-to-right evaluation reproduces the simulator's
  sequential ``+=`` bit for bit.
* :func:`run_hist_kernel` (``"hist-kernel"``) answers an exact, fresh
  :class:`HistogramPolicy` on a pool that holds the registry, whose
  state does reach outcomes, in one pass over the arrivals on HIST's
  own histograms and plans (the argument is above :class:`_HistFunction`).
* :func:`run_gd_kernel` (``"gd-kernel"``) answers an exact, fresh
  :class:`GreedyDualPolicy` without tenant weights at any pool size —
  the paper's own policy under memory pressure — and under any fault
  spec (harvest resizes, outages, spot evictions, per-attempt faults),
  in one pass on its own container records and heaps that merges the
  server's fault timeline and retry queue into the arrivals, with the
  loop's float operations in the loop's order (the argument is above
  :class:`_GdContainer`). It never declines.

A violation the TTL or HIST kernel discovers mid-stream discards the
kernel state, and the caller replays from the start on the next kernel
named or through the loop (every trace form is restartable), so a fast
path can never silently diverge.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush, heappushpop
from math import inf
from operator import attrgetter
from typing import TYPE_CHECKING, DefaultDict, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.clock import wall_clock_s
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.policies.histogram import FunctionHistogram, HistogramPolicy
from repro.core.pool import CapacityError
from repro.faults import FaultModel, FaultSpec, RetryPolicy
from repro.sim.events import EventQueue
from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.scheduler import SimulationResult
from repro.traces.model import DEFAULT_CHUNK_INVOCATIONS, FunctionTable, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace

if TYPE_CHECKING:  # NumPy loads when the TTL kernel runs (DESIGN.md §7.3)
    import numpy as np

__all__ = ["run_gd_kernel", "run_hist_kernel", "run_ttl_kernel"]

#: Every trace form the kernels read: a trace's own columns, or a
#: restartable chunk stream.
KernelSource = Union[Trace, StreamingChurnTrace]


def _columns(
    trace: KernelSource, chunk_invocations: Optional[int]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The ``(times, function_ids)`` chunks of ``trace`` in replay
    order: a trace's column slices wrapped without a copy."""
    import numpy as np

    if isinstance(trace, StreamingChurnTrace):
        return trace.chunks()  # its own chunking
    return (
        (np.frombuffer(times, np.float64), np.frombuffer(ids, np.int32))
        for times, ids in trace.iter_chunks(chunk_invocations or DEFAULT_CHUNK_INVOCATIONS)
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
#   after a certain one resolves by parity.
# * Evaluation: a chunk sorts stably into one segment per function.
#   Only a segment's head reads the carried state (its gap and the
#   exact previous deadline, so a head is always certain) and only its
#   tail writes it back; interior arrivals compare shifted slices. The
#   parity pass (a gather plus an XOR) runs only over the ambiguous
#   arrivals of a chunk that has any: at ``ttl = inf`` none has.
# * Expirations: every non-final container of a function expired
#   before the cold start that replaced it, and the final one expires
#   iff its deadline precedes the global last arrival (the expiry
#   phase runs at every arrival under TTL), giving
#   ``(cold_starts - functions_arrived) + finals_lapsed``.
# * Metric sums replay the oracle's exact left-to-right float
#   accumulation via ``np.add.accumulate`` with a scalar carry across
#   chunks (covered by a dedicated exactness test).


class _TTLKernelState:
    """The registry's columns, and the per-function recurrence state
    carried across chunks."""

    def __init__(self, table: FunctionTable) -> None:
        import numpy as np

        count = len(table)
        self.names = table.names
        objects = table.objects()
        self.warm_time_s, self.cold_time_s = np.array(
            [[f.warm_time_s for f in objects], [f.cold_time_s for f in objects]],
            dtype=np.float64,
        )
        self.d_prev = np.full(count, -np.inf)  # deadline after last use
        self.t_prev = np.full(count, -np.inf)  # last arrival time
        self.cold_counts = np.zeros(count, dtype=np.int64)
        self.total_counts = np.zeros(count, dtype=np.int64)
        self.appearance: List[np.ndarray] = []  # fids in first-arrival order
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
    ``chunk_invocations`` (default: ``DEFAULT_CHUNK_INVOCATIONS`` for a
    :class:`Trace`; a stream brings its own chunking)."""
    started = wall_clock_s()
    state = _TTLKernelState(trace.functions_table)
    for times, fids in _columns(trace, chunk_invocations):
        if not _ttl_kernel_chunk(state, times, fids, ttl_s):
            return None
    metrics = _ttl_kernel_metrics(state)
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
    times: np.ndarray,
    fids: np.ndarray,
    ttl_s: float,
) -> bool:
    """Process one chunk; False on a precondition violation."""
    import numpy as np

    size = times.size
    if size == 0:
        return True
    # Group by function with arrival order preserved inside groups.
    # A stable sort of 16-bit keys is a radix sort (of int32, a merge
    # sort ten times slower): same permutation wherever the ids fit.
    keys = fids.astype(np.uint16) if len(state.names) <= 65_536 else fids
    order = np.argsort(keys, kind="stable")
    ids = fids.astype(np.intp)  # a native-width index gathers twice as fast
    fs = ids[order]
    ts = times[order]
    # The metric sums' terms: a carry, then each arrival's warm time in
    # arrival order (a cold start's cold time, for the actual sum).
    sums = np.empty(size + 1)
    sums[1:] = state.warm_time_s[ids]
    del ids  # what is dead is freed: the chunk's peak is the kernel's
    # One segment per function, heads[k]..tails[k] in sorted order:
    # only a head reads the carried state, only a tail writes it.
    heads = np.concatenate(((0,), (fs[1:] != fs[:-1]).nonzero()[0] + 1))
    tails = np.concatenate((heads[1:], (size,))) - 1
    seg_fs = fs[heads]
    head_ts = ts[heads]
    t_prev = state.t_prev[seg_fs]

    # Precondition: every same-function gap covers the cold time, so
    # the previous invocation (warm or cold) has always finished and
    # a function never needs a second concurrent container.
    cold_t = state.cold_time_s[fs]
    gaps = np.empty(size)
    np.subtract(ts[1:], ts[:-1], out=gaps[1:])
    gaps[heads] = head_ts - t_prev
    if (gaps < cold_t).any():
        return False
    del gaps

    first_seen = t_prev == -inf  # no earlier arrival
    if first_seen.any():
        # Record first arrivals (one segment head per function) in
        # *global* chunk order — the order the oracle's per-function
        # dict acquires its keys.
        firsts = order[heads[first_seen]]
        firsts.sort()
        state.appearance.append(fids[firsts])

    # Deadline candidates after each arrival: the simulator schedules
    # (start + duration) + ttl with exactly this association order
    # (in place: duration + start is the same double).
    d_warm = sums[1:][order]
    d_warm += ts
    d_warm += ttl_s
    d_cold = np.add(cold_t, ts, out=cold_t)
    d_cold += ttl_s

    # Classify arrivals: interior ones against their predecessor's two
    # candidates, heads against the carried (exact) previous deadline.
    cold_sorted = np.empty(size, dtype=bool)
    certain = np.empty(size, dtype=bool)
    np.less_equal(d_cold[:-1], ts[1:], out=cold_sorted[1:])
    np.greater(d_warm[:-1], ts[1:], out=certain[1:])
    certain |= cold_sorted
    cold_sorted[heads] = state.d_prev[seg_fs] <= head_ts
    certain[heads] = True
    if not certain.all():
        # Ambiguous arrivals alternate (cold_i = not cold_{i-1}); resolve
        # each against the nearest earlier certain arrival by parity.
        anchors = certain.nonzero()[0]
        ambiguous = (~certain).nonzero()[0]
        anchor = anchors[anchors.searchsorted(ambiguous) - 1]
        cold_sorted[ambiguous] = cold_sorted[anchor] ^ ((ambiguous - anchor) & 1 == 1)

    # Commit per-function recurrence state at segment tails.
    np.copyto(d_warm, d_cold, where=cold_sorted)  # each arrival's deadline
    state.d_prev[seg_fs] = d_warm[tails]
    state.t_prev[seg_fs] = ts[tails]

    # Counters and the oracle's exact sequential metric sums, in
    # global arrival order.
    state.total_counts[seg_fs] += tails - heads + 1
    cold_at = cold_sorted.nonzero()[0]
    cold_fs = fs[cold_at]
    state.cold_counts += np.bincount(cold_fs, minlength=len(state.names))
    sums[0] = state.ideal_sum
    state.ideal_sum = float(np.add.accumulate(sums)[-1])
    sums[0] = state.actual_sum
    sums[1 + order[cold_at]] = state.cold_time_s[cold_fs]
    state.actual_sum = float(np.add.accumulate(sums)[-1])
    state.invocations += int(size)
    state.t_last = float(times[-1])
    return True


def _ttl_kernel_metrics(state: _TTLKernelState) -> SimulationMetrics:
    import numpy as np

    metrics = SimulationMetrics()
    if not state.invocations:
        return metrics
    cold_counts = state.cold_counts.tolist()
    total_counts = state.total_counts.tolist()
    metrics.cold_starts = total_cold = sum(cold_counts)
    metrics.warm_starts = state.invocations - total_cold
    metrics.ideal_exec_time_s = state.ideal_sum
    metrics.actual_exec_time_s = state.actual_sum
    # (cold_starts - functions_arrived) + finals_lapsed, where a function
    # that never arrived counts as lapsed (d_prev = -inf <= t_last).
    lapsed = int(np.add.reduce(state.d_prev <= state.t_last, dtype=np.int64))
    metrics.expirations = total_cold - len(state.names) + lapsed
    names = state.names
    metrics.per_function = {
        names[fid]: FunctionOutcome(total_counts[fid] - cold_counts[fid], cold_counts[fid])
        for fid in np.concatenate(state.appearance).tolist()
    }
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


# ----------------------------------------------------------------------
# GD kernel
# ----------------------------------------------------------------------
#
# Equivalence argument: under a default configuration, a fresh
# GreedyDualPolicy without tenant weights, any pool size and any fault
# spec, the loop's phases at an attempt of f at time t (an arrival, or a
# retry re-entering with no timeline advance) reduce to:
#
# * timeline (arrivals only): the one merge of :mod:`repro.sim.events`,
#   on a queue of the server's events (filed first, so first among equal
#   times) and the retries as they are filed;
# * release: every run that ended by t idles its container, in (finish,
#   id) order (container ids count up, so the kernel's own numbering
#   keeps the loop's order); a doomed one is torn down instead, and a
#   container a walk found busy re-enters the victim index under its
#   current key. Then a pending shrink resumes;
# * ``on_invocation``: Freq(f) += 1, and every container of f is rescored
#   at its own stamp plus the new value term, even on a failed server;
# * warm: f's least recently used idle container (lowest id on a tie)
#   starts, stamped with the clock;
# * cold: a spawn failure strikes before any eviction; else the cover
#   rule takes the shortest prefix of the victim order that frees the
#   deficit, or the attempt drops (at once when even the whole idle set
#   is short; under a spec it fails for ``memory_pressure``). Each victim
#   raises the clock to its priority and takes Freq with its function's
#   last container; then the new container is stamped with that clock
#   and admitted running;
# * a crash or timeout drawn for the attempt lets it start as above,
#   then fails it (a crash dooms the container). A failed attempt is
#   shed for ``queue_full`` when the retry queue is full, else filed as
#   a retry if ``RetryPolicy.next_delay`` grants one, else shed.
#
# The server's events act as the loop's do: a ``capacity`` step (and a
# ``restore``, after recovering) deflates toward its target without a
# release first; ``down`` / ``evict`` release, then evict every idle
# container (id order, no clock advance) and doom every running one.
# Deflation is the pool's cover rule with its settle slack: the clamp to
# the memory in use while busy containers hold more than the target,
# the strict landing once they no longer do.
#
# The victim index files the pool's own entries
# (:meth:`ContainerPool.iter_victims`): one per container, under the key
# it was last scored with, parked while a walk finds it busy, re-filed
# when a pop finds its key stale. Keys are unique (the id is in them),
# so a pop sequence depends only on the live entries, not on the heap's
# layout: the same entries give the loop's order for any weights,
# monotone or not. A container that leaves through a walk took its entry
# with it; one that is doomed (a crash, or its server failed) leaves its
# entry stale. A walk drops stale entries when it pops them, and once
# they outnumber both the idle set and the live entries the index is
# purged (the pool's rule), so it never outgrows the pool by more than
# a constant factor.

#: A victim-index entry: the pool's ``((priority, last_used, id), id)``
#: flattened, with the container beside it. An entry filed before any
#: walk has scored one (the pool's ``_UNSCORED_KEY``) is ``(-inf, -inf,
#: id, container)``: below every scored key, in id order.
_Entry = Tuple[float, float, int, "_GdContainer"]

_CID = attrgetter("cid")


class _GdContainer:
    """One container in :func:`run_gd_kernel`: the fields of
    :class:`~repro.core.container.Container` GD's loop reads."""

    __slots__ = (
        "cid", "name", "memory_mb", "stamp", "priority", "last_used", "busy", "parked", "doomed",
    )

    def __init__(
        self, cid: int, name: str, memory_mb: float, stamp: float, priority: float,
        last_used: float,
    ) -> None:
        self.cid, self.name, self.memory_mb = cid, name, memory_mb
        self.stamp, self.priority, self.last_used = stamp, priority, last_used
        # Admitted running, its entry parked until it first idles.
        self.busy = self.parked = True
        # Torn down at its run's end; once gone it reads busy for good.
        self.doomed = False


def run_gd_kernel(
    trace: KernelSource,
    policy: GreedyDualPolicy,
    capacity_mb: float,
    fault_spec: Optional[FaultSpec] = None,
    server_index: int = 0,
) -> SimulationResult:
    """Exact replay of a fresh ``policy`` without tenant weights (any
    ``frequency_weight`` / ``cost_weight``) on a pool of ``capacity_mb``,
    under pressure or not, and under ``fault_spec`` (the faults of
    server ``server_index``; a disabled spec is no spec). It never
    declines. The policy object is only read: a run leaves it fresh."""
    started = wall_clock_s()
    if not capacity_mb > 0:
        raise ValueError(f"capacity must be positive, got {capacity_mb}")
    frequency_weight, cost_weight = policy._frequency_weight, policy._cost_weight
    nominal = capacity = float(capacity_mb)
    slack = 1e-9 * capacity  # the pool's drift slack
    # A function's Freq and containers (creation order) exist while it
    # has containers or a live Freq, as in the policy and the pool.
    frequency: Dict[str, int] = {}
    by_function: Dict[str, List[_GdContainer]] = {}
    # Booked at a function's first outcome, as the metrics do.
    outcomes: DefaultDict[str, FunctionOutcome] = defaultdict(FunctionOutcome)
    running: List[Tuple[float, int, _GdContainer]] = []  # (finish, id)
    index: List[_Entry] = []
    walked = False  # a walk has scored entries (the pool's ``_key_of``)
    used = evictable = clock = ideal = actual = downtime = down_since = 0.0
    idle = pooled = evictions = deflations = stale = cid = 0
    faults_injected = retries = sheds = downs = shrinks = grows = notices = 0
    faults_by_kind: Dict[str, int] = {}
    sheds_by_reason: Dict[str, int] = {}
    shrink_to: Optional[float] = None  # a deflation's pending target
    down = draw_fault = draw_spawn = False
    faults: Optional[FaultModel] = None
    if fault_spec is not None and fault_spec.enabled:
        faults = FaultModel(fault_spec)
        next_delay = RetryPolicy.from_spec(fault_spec).next_delay
        max_pending = fault_spec.max_pending_retries
        draw_fault = fault_spec.crash_rate > 0.0 or fault_spec.timeout_rate > 0.0
        draw_spawn = fault_spec.spawn_failure_rate > 0.0
        # A server event is ``(None, (kind, value))``, a retry
        # ``(function, attempt)``.
        timeline: EventQueue[Tuple[Optional[TraceFunction], object]] = EventQueue([
            (at_s, (None, (kind, value)))
            for at_s, __, kind, value in faults.server_events([server_index], trace.last_arrival_s)
        ])
        stream = timeline.merge(trace.arrivals())
        pop, push = timeline.pop, timeline.push
    else:
        stream = trace.arrivals()

    def walk(cover: float) -> Optional[List[_GdContainer]]:
        """The cover rule over the victim index (``take_victims`` on
        ``iter_victims``): the shortest prefix of idle containers that
        reclaims ``cover``, or None, with what it offered filed back."""
        nonlocal walked, stale
        walked = True
        taken: List[_GdContainer] = []
        reclaimed = 0.0
        rescored: Optional[_Entry] = None
        while index or rescored is not None:
            entry = heappop(index) if rescored is None else heappushpop(index, rescored)
            rescored = None
            priority, last_used, box_id, box = entry
            if box.busy:
                if box.doomed:
                    stale -= 1  # dropped: its container is (to be) torn down
                else:
                    box.parked = True
                continue
            if priority is not box.priority and priority != box.priority or (
                last_used is not box.last_used and last_used != box.last_used
            ):  # the tuples' ``!=`` (identity first, so a NaN key matches itself)
                rescored = (box.priority, box.last_used, box_id, box)
                continue
            taken.append(box)
            reclaimed += box.memory_mb
            if reclaimed >= cover:
                return taken
        for box in taken:  # the whole idle set is not enough
            heappush(index, (box.priority, box.last_used, box.cid, box))
        return None

    def evict(boxes: Sequence[_GdContainer], pressure: bool) -> None:
        """Terminate idle ``boxes`` (``ContainerPool.evict`` plus
        ``on_evict``): the pool's accounting, Freq with a function's last
        container and, for pressure and deflation, the clock."""
        nonlocal used, pooled, evictable, idle, clock
        for box in boxes:
            box_mb = box.memory_mb
            used -= box_mb
            pooled -= 1
            if not pooled and abs(used) <= slack:
                used = 0.0
            evictable -= box_mb
            idle -= 1
            if idle == 0 and abs(evictable) <= slack:
                evictable = 0.0
            if pressure and box.priority > clock:
                clock = box.priority
            peers = by_function[box.name]
            peers.remove(box)
            if not peers:  # Freq goes with the last container
                del by_function[box.name], frequency[box.name]

    def doom(box: _GdContainer) -> None:
        """Mark ``box`` for teardown: its index entry, if filed, is stale
        from now on; purge the index by the pool's rule."""
        nonlocal stale
        box.doomed = True
        if not box.parked:
            stale += 1
            if stale > idle and 2 * stale > len(index):
                index[:] = [entry for entry in index if not entry[3].doomed]
                heapify(index)
                stale = 0

    def deflate() -> None:
        """Advance the shrink to ``shrink_to`` (``deflate_to`` /
        ``resume_deflation``): the idle victims the target asks for, then
        the strict landing or the clamp to the memory in use."""
        nonlocal capacity, slack, shrink_to, deflations
        settle = 1e-9 * max(capacity, shrink_to)
        deficit = min(used - shrink_to, evictable)
        if deficit > settle:
            victims = walk(deficit - settle)
            if victims is not None:
                evict(victims, True)
                deflations += len(victims)
        if used - shrink_to <= settle:
            capacity, shrink_to = shrink_to, None
        else:
            capacity = used
        slack = 1e-9 * capacity

    def resize(target: float) -> None:
        """``KeepAliveSimulator.set_capacity``: deflate toward ``target``,
        then count a shrink or a growth against the capacity it replaced."""
        nonlocal shrink_to, shrinks, grows
        old = capacity
        shrink_to = target
        deflate()
        edge = 1e-9 * max(old, target)
        if target < old - edge:
            shrinks += 1
        elif target > old + edge:
            grows += 1

    for now, function in stream:
        attempt = 0
        if function is None:  # the timeline's next entry is due
            __, (function, attempt) = pop()
            if function is None:  # one of the server's events
                kind, value = attempt
                if kind == "capacity":
                    resize(value * nominal)
                    continue
                if kind == "notice":
                    notices += 1
                    continue
                if kind == "up" or kind == "restore":
                    if down:
                        down = False
                        downtime += max(0.0, now - down_since)
                    if kind == "restore":  # a replacement, full size
                        resize(1.0 * nominal)
                    continue
                if down:
                    continue  # already failed
                down, down_since = True, now
                downs += 1  # released below, then lost
        while running and running[0][0] <= now:
            finish, __, box = heappop(running)
            if finish > box.last_used:
                box.last_used = finish
            evictable += box.memory_mb
            idle += 1
            if box.doomed:
                evict((box,), False)
                continue
            box.busy = False
            if box.parked:
                box.parked = False
                if walked:
                    heappush(index, (box.priority, box.last_used, box.cid, box))
                else:
                    heappush(index, (-inf, -inf, box.cid, box))
        if shrink_to is not None:
            deflate()
        if function is None:  # the server fails: its idle containers go now
            lost = sorted(
                (box for peers in by_function.values() for box in peers if not box.busy),
                key=_CID,
            )
            evict(lost, False)
            for box in lost:
                box.busy = True
                doom(box)
            for __, __, box in running:  # and its running ones at their end
                if not box.doomed:
                    doom(box)
            continue
        name = function.name
        frequency[name] = freq = frequency.get(name, 0) + 1
        memory = function.memory_mb
        value = (
            frequency_weight * freq * (cost_weight * (function.cold_time_s - function.warm_time_s))
            / memory
        )
        boxes = by_function.get(name)
        reuse: Optional[_GdContainer] = None  # least recently used idle, lowest id first
        for box in boxes or ():
            box.priority = box.stamp + value
            if not box.busy and (reuse is None or box.last_used < reuse.last_used):
                reuse = box
        fault = faults.invocation_fault(name, now, attempt) if draw_fault else None
        if reuse is not None:
            duration = function.warm_time_s
            reuse.busy = True
            reuse.last_used = now
            evictable -= memory
            idle -= 1
            if idle == 0 and abs(evictable) <= slack:
                evictable = 0.0
            heappush(running, (now + duration, reuse.cid, reuse))
            reuse.stamp = clock
            reuse.priority = clock + value
            if fault is None:
                ideal += duration
                actual += duration
                outcomes[name].warm += 1
                continue
            if fault == "crash":
                doom(reuse)
        elif down:  # no container idles on a failed server
            fault, failure = None, "unavailable"
        elif draw_spawn and faults.spawn_fails(name, now, attempt):
            fault = "spawn_failure"  # before any eviction
        else:
            victims: Optional[List[_GdContainer]] = None
            deficit = memory - (capacity - used)
            cover = deficit - 1e-9
            if deficit <= 1e-9:
                victims = []
            elif evictable >= cover:  # ``walk``, inlined: no call per miss
                walked = True
                taken: List[_GdContainer] = []
                reclaimed = 0.0
                rescored: Optional[_Entry] = None
                while index or rescored is not None:
                    entry = heappop(index) if rescored is None else heappushpop(index, rescored)
                    rescored = None
                    priority, last_used, box_id, box = entry
                    if box.busy:
                        if box.doomed:
                            stale -= 1  # dropped: its container is (to be) torn down
                        else:
                            box.parked = True
                        continue
                    if priority is not box.priority and priority != box.priority or (
                        last_used is not box.last_used and last_used != box.last_used
                    ):  # the tuples' ``!=``, unbuilt
                        rescored = (box.priority, box.last_used, box_id, box)
                        continue
                    taken.append(box)
                    reclaimed += box.memory_mb
                    if reclaimed >= cover:
                        victims = taken
                        break
                else:  # the whole idle set is not enough
                    for box in taken:
                        heappush(index, (box.priority, box.last_used, box.cid, box))
            if victims is None:
                if faults is None:
                    outcomes[name].dropped += 1
                    continue
                fault = None
                failure = "memory_pressure"
            else:
                for box in victims:  # ``evict(victims, True)``, inlined
                    box_mb = box.memory_mb
                    used -= box_mb
                    pooled -= 1
                    if not pooled and abs(used) <= slack:
                        used = 0.0
                    evictable -= box_mb
                    idle -= 1
                    if idle == 0 and abs(evictable) <= slack:
                        evictable = 0.0
                    if box.priority > clock:
                        clock = box.priority
                    peers = by_function[box.name]
                    peers.remove(box)
                    if not peers:  # Freq goes with the last container
                        del by_function[box.name], frequency[box.name]
                    evictions += 1
                if memory > capacity - used + slack:
                    raise CapacityError(
                        f"container needs {memory} MB but only "
                        f"{capacity - used:.1f} MB is free"
                    )
                used += memory
                pooled += 1
                cid += 1
                if victims:
                    # A victim's record: the walk popped its one entry, so
                    # nothing points at it (a crashed record's may not be).
                    box = victims[-1]
                    box.cid, box.name, box.memory_mb = cid, name, memory
                    box.stamp, box.priority, box.last_used = clock, clock + value, now
                    box.busy = box.parked = True  # ``doomed`` is False: it idled
                else:
                    box = _GdContainer(cid, name, memory, clock, clock + value, now)
                if boxes is None:
                    by_function[name] = [box]
                else:
                    boxes.append(box)
                heappush(running, (now + function.cold_time_s, cid, box))
                if fault is None:
                    ideal += function.warm_time_s
                    actual += function.cold_time_s
                    outcomes[name].cold += 1
                    continue
                if fault == "crash":
                    doom(box)
        if fault is not None:
            faults_injected += 1
            faults_by_kind[fault] = faults_by_kind.get(fault, 0) + 1
            failure = "retry_budget"
        # A failed attempt (``_handle_failure``): a retry, or a shed.
        if timeline.retries >= max_pending:
            failure = "queue_full"
        else:
            delay = next_delay(name, attempt + 1, now)
            if delay is not None:
                push(now + delay, (function, attempt + 1), True)
                retries += 1
                continue
        sheds += 1
        sheds_by_reason[failure] = sheds_by_reason.get(failure, 0) + 1
    metrics = SimulationMetrics(
        evictions=evictions, faults_injected=faults_injected, retries=retries,
        sheds=sheds, server_downs=downs, downtime_s=downtime, capacity_shrinks=shrinks,
        capacity_grows=grows, eviction_notices=notices, deflations=deflations,
        ideal_exec_time_s=ideal, actual_exec_time_s=actual,
        faults_by_kind=faults_by_kind, sheds_by_reason=sheds_by_reason,
        per_function=outcomes,
    )
    outcomes.default_factory = None  # a read of the result books nothing
    for outcome in outcomes.values():
        metrics.warm_starts += outcome.warm
        metrics.cold_starts += outcome.cold
        metrics.dropped += outcome.dropped
    metrics.wall_time_s = wall_clock_s() - started
    return SimulationResult(
        trace.name, policy.name, nominal, metrics, path="gd-kernel"
    )
