"""Histogram keep-alive (the paper's HIST baseline).

A best-effort reproduction of the hybrid histogram policy of Shahrad
et al. [Serverless in the Wild, ATC 2020], as described in Section 7.1
of the FaasCache paper — effectively "TTL + prefetching":

* Each function's inter-arrival times (IATs) are recorded in
  minute-granularity buckets, tracking up to four hours between
  executions.
* The coefficient of variation (CoV) of the IATs is maintained with
  Welford's online algorithm. A function with CoV <= 2 is
  *predictable*: its containers use a customized pre-warm time (the
  head, 5th-percentile IAT) and keep-alive time (the tail,
  99th-percentile IAT), with safety margins (85% of the head, 115% of
  the tail).
* Unpredictable functions fall back to a generic TTL of two hours.
* When an invocation is anticipated (the head window opens), the
  function is brought into memory and kept there until its TTL
  expires.

Like the paper, we omit the ARIMA branch for IATs beyond the four-hour
window (it covered ~0.56% of invocations); such IATs simply mark the
function as out-of-window and push it toward the unpredictable class.

Under memory pressure (which Shahrad et al. do not model), victims are
the containers whose next invocation is predicted to be furthest in
the future.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf, sqrt
from typing import Dict, List, Optional, Tuple

from repro.core.container import Container
from repro.core.policies.base import (
    KeepAlivePolicy,
    PrewarmRequest,
    register_policy,
)
from repro.core.pool import ContainerPool
from repro.domains import check_args, finite, int_at_least, nonneg
from repro.traces.model import TraceFunction

__all__ = ["HistogramPolicy", "FunctionHistogram"]

_MINUTE_S = 60.0

#: Buckets a :class:`FunctionHistogram` grows by at a time.
GROWTH_BUCKETS = 8

#: What HIST does after an invocation of a function, as offsets from
#: the invocation time: ``(keep_s, prewarm_after_s, prewarm_keep_s,
#: predicted_gap_s)`` — expire the started container after ``keep_s``;
#: unless ``prewarm_after_s`` is None, pre-warm one after that long and
#: keep it until ``prewarm_keep_s``; expect the next arrival after
#: ``predicted_gap_s`` (the pressure-eviction score).
Plan = Tuple[float, Optional[float], float, float]


class FunctionHistogram:
    """Per-function IAT histogram in minute buckets plus online CoV.

    The policy reads the head (5th percentile) and tail (99th) after
    *every* arrival, so each is tracked by a *rank cursor*: a ``[bucket,
    count_below]`` pair with ``count_below == sum(buckets[:bucket])``,
    resting on the nearest-rank bucket of its percentile — the smallest
    bucket whose cumulative count reaches the target rank, ``count_below
    < target <= count_below + buckets[bucket]``, exactly what a full
    cumulative scan finds. :meth:`record_arrival` keeps both true: a
    sample under a cursor bumps its ``count_below``, then the cursor
    steps to the new target. A target rank moves by at most one per
    sample, so that is O(1) amortised while the samples form one
    populated region; at worst a cursor crosses the empty gap between
    two regions its rank flips between, never more than the one scan it
    replaces. :meth:`head_s` and :meth:`tail_s` just read the cursors.

    All state starts empty and is fed through :meth:`record_arrival`
    alone (the constructor takes the window and nothing else), so the
    in-window sample count has one source, ``in_window_count``: it is
    the total the percentiles rank against *and* Welford's count, beside
    ``iat_mean`` and ``iat_m2`` (minutes; updated as
    :meth:`repro.analysis.stats.Welford.update` does, bit for bit).

    ``buckets`` starts empty and grows, in blocks of
    :data:`GROWTH_BUCKETS` zeros, only when an in-window IAT lands past
    its end, so ``len(buckets)`` is never more than one block past the
    highest in-window bucket seen, nor more than ``window_minutes``
    (most functions' IATs stay in the first minutes of a four-hour
    window). The cursors never read past the highest populated bucket,
    so a shorter list ranks exactly as the full one would.

    An arrival before the last one records no IAT and changes no bucket:
    the series restarts at it. No engine clock goes back within a run,
    but a used policy handed a new trace does, at its first arrival. A
    NaN IAT is refused with ``ValueError``.
    """

    __slots__ = (
        "window_minutes", "buckets", "_width", "in_window_count", "iat_mean", "iat_m2",
        "out_of_window", "last_arrival_s", "plan", "_head_at", "_head_below",
        "_tail_at", "_tail_below", "_memo_key", "_memo",
    )

    def __init__(self, window_minutes: int) -> None:
        # An int: a float window would split a bucket at its edge.
        if type(window_minutes) is not int or window_minutes < 1:
            raise ValueError(f"window_minutes must be an int >= 1, got {window_minutes!r}")
        self.window_minutes = window_minutes
        self.buckets: List[int] = []
        self._width = 0  # len(self.buckets), kept without a call
        self.in_window_count, self.iat_mean, self.iat_m2 = 0, 0.0, 0.0
        self.out_of_window = 0
        self.last_arrival_s: Optional[float] = None
        #: The owning policy's :data:`Plan` for the current state, None
        #: until it computes one; every recorded arrival clears it.
        self.plan: Optional[Plan] = None
        self._head_at = self._head_below = self._tail_at = self._tail_below = 0
        #: The last predictable plan, and the key it was computed from.
        self._memo: Optional[Plan] = None
        self._memo_key: Optional[Tuple[int, int]] = None

    def record_arrival(self, now_s: float) -> None:
        # Welford's update and both cursor steps spelled out: this runs
        # on every arrival and each frame shows in the replay ledger.
        if self.last_arrival_s is not None:
            iat_minutes = (now_s - self.last_arrival_s) / _MINUTE_S
            # Tested on the IAT, not its bucket: ``int`` truncates toward
            # zero, so a gap just under 0 would land in bucket 0. Under an
            # int window, ``iat_minutes < window`` is ``bucket < window``.
            if 0.0 <= iat_minutes < self.window_minutes:
                bucket = int(iat_minutes)
                buckets = self.buckets
                if bucket >= self._width:
                    # Grow to the end of the bucket's block, never past
                    # the window: operators only, no profiled call.
                    width = (bucket // GROWTH_BUCKETS + 1) * GROWTH_BUCKETS
                    if width > self.window_minutes:
                        width = self.window_minutes
                    buckets += [0] * (width - self._width)
                    self._width = width
                buckets[bucket] += 1
                total = self.in_window_count = self.in_window_count + 1
                delta = iat_minutes - self.iat_mean
                mean = self.iat_mean = self.iat_mean + delta / total
                self.iat_m2 += delta * (iat_minutes - mean)
                target = round(0.05 * total) or 1
                at, below = self._head_at, self._head_below
                if bucket < at:
                    below += 1
                while below >= target:
                    at -= 1
                    below -= buckets[at]
                while below + buckets[at] < target:
                    below += buckets[at]
                    at += 1
                self._head_at, self._head_below = at, below
                target = round(0.99 * total) or 1
                at, below = self._tail_at, self._tail_below
                if bucket < at:
                    below += 1
                while below >= target:
                    at -= 1
                    below -= buckets[at]
                while below + buckets[at] < target:
                    below += buckets[at]
                    at += 1
                self._tail_at, self._tail_below = at, below
            elif iat_minutes >= self.window_minutes:
                self.out_of_window += 1
            elif iat_minutes != iat_minutes:
                raise ValueError(f"NaN IAT: {now_s} s after {self.last_arrival_s} s")
            # A negative IAT records nothing: the series restarts here.
        self.last_arrival_s = now_s
        self.plan = None

    def is_predictable(self, cov_threshold: float, min_samples: int) -> bool:
        """CoV <= threshold, enough samples, mostly in-window IATs."""
        in_window = self.in_window_count
        if in_window < min_samples:
            return False
        if self.out_of_window > (in_window + self.out_of_window) / 2:
            return False
        # Stddev over |mean|: 0 for equal IATs (M2 is 0 under two
        # samples), inf for varying IATs of mean 0 (Welford's CoV).
        mean, m2 = abs(self.iat_mean), self.iat_m2
        cov = 0.0 if m2 <= 0.0 else inf if mean <= 0.0 else sqrt(m2 / (in_window - 1)) / mean
        return cov <= cov_threshold

    def head_s(self) -> float:
        """Pre-warm window: nearest-rank 5th-percentile IAT, lower
        bucket edge (0 on an empty histogram)."""
        return float(self._head_at) * _MINUTE_S

    def tail_s(self) -> float:
        """Keep-alive window: nearest-rank 99th-percentile IAT, *upper*
        bucket edge so the window covers every IAT that fell in it (0 on
        an empty histogram)."""
        if self.in_window_count == 0:
            return 0.0
        return float(self._tail_at + 1) * _MINUTE_S

    def mean_iat_s(self) -> Optional[float]:
        if self.in_window_count == 0:
            return None
        return self.iat_mean * _MINUTE_S


@register_policy("HIST")
class HistogramPolicy(KeepAlivePolicy):
    """Hybrid histogram TTL + prefetch keep-alive."""

    #: An int window: a float one would split a bucket at its edge. ``inf``
    #: is "never": no (-inf: every) function is unpredictable, no margin,
    #: TTL or release threshold ever lets a container go.
    domains = {
        "window_minutes": int_at_least(1), "cov_threshold": finite.or_inf,
        "generic_ttl_s": nonneg.or_inf, "head_margin": nonneg.or_inf,
        "tail_margin": nonneg.or_inf, "min_samples": int_at_least(0),
        "release_threshold_s": nonneg.or_inf,
    }

    def __init__(
        self,
        window_minutes: int = 240,
        cov_threshold: float = 2.0,
        generic_ttl_s: float = 7200.0,
        head_margin: float = 0.85,
        tail_margin: float = 1.15,
        min_samples: int = 2,
        release_threshold_s: float = 60.0,
    ) -> None:
        super().__init__()
        check_args(self.domains, locals())
        self.window_minutes = window_minutes
        self.cov_threshold = cov_threshold
        self.generic_ttl_s = generic_ttl_s
        self.head_margin = head_margin
        self.tail_margin = tail_margin
        self.min_samples = min_samples
        # A head shorter than this keeps the container alive instead of
        # releasing it and pre-warming later.
        self.release_threshold_s = release_threshold_s
        self._histograms: Dict[str, FunctionHistogram] = {}
        # Pending prewarms: heap of (time, seq, request); one per
        # function at a time, replaced on each new invocation.
        self._prewarm_heap: List[Tuple[float, int, PrewarmRequest]] = []
        self._pending_prewarm: Dict[str, PrewarmRequest] = {}
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Histogram maintenance
    # ------------------------------------------------------------------

    def histogram_of(self, function_name: str) -> FunctionHistogram:
        hist = self._histograms.get(function_name)
        if hist is None:
            hist = FunctionHistogram(window_minutes=self.window_minutes)
            self._histograms[function_name] = hist
        return hist

    def on_invocation(
        self,
        function: TraceFunction,
        now_s: float,
        pool: Optional[ContainerPool] = None,
    ) -> None:
        # Frequency bookkeeping is spelled out, not chained to the base
        # class: this runs on every arrival and each chained frame shows
        # in the replay ledger.
        name = function.name
        self._frequency[name] = self._frequency.get(name, 0) + 1
        (self._histograms.get(name) or self.histogram_of(name)).record_arrival(now_s)
        # The anticipated invocation arrived; cancel any pending
        # prewarm for this function (the start hook files the next).
        pending = self._pending_prewarm.pop(name, None)
        if pending is not None:
            pending.at_time_s = -1.0  # tombstone, skipped when popped

    # ------------------------------------------------------------------
    # Expiry / prewarm scheduling
    # ------------------------------------------------------------------

    def _plan(self, hist: FunctionHistogram) -> Plan:
        """Compute ``hist``'s :data:`Plan` and cache it on ``hist``.

        A pure function of the histogram's state (and this policy's
        constructor parameters), so one computation serves every start
        hook and every :meth:`priority` call until the next arrival of
        the function clears it. A predictable plan reads only the head
        and tail buckets and whether any IAT is in the window: while
        those stand, the last one is returned as it is.
        """
        # ``hist.is_predictable`` spelled out, CoV included (per arrival).
        count, beyond, m2 = hist.in_window_count, hist.out_of_window, hist.iat_m2
        mean = hist.iat_mean if hist.iat_mean >= 0.0 else -hist.iat_mean
        predictable = count >= self.min_samples and beyond <= (count + beyond) / 2 and (
            0.0 if m2 <= 0.0 else inf if mean <= 0.0 else sqrt(m2 / (count - 1)) / mean
        ) <= self.cov_threshold
        if predictable:
            key = (hist._head_at, hist._tail_at if count else -1)
            if key == hist._memo_key:
                plan = hist._memo
            else:
                head = hist.head_s()
                keep_s = self.tail_margin * max(hist.tail_s(), head + _MINUTE_S)
                if head > self.release_threshold_s:
                    # Release soon, pre-warm just before the predicted arrival.
                    plan = (self.release_threshold_s, self.head_margin * head, keep_s, head)
                else:
                    # Frequent function: keep alive through the whole window.
                    plan = (keep_s, None, keep_s, head)
                hist._memo_key, hist._memo = key, plan
        else:
            ttl_s = self.generic_ttl_s
            mean_iat_s = hist.mean_iat_s()
            plan = (ttl_s, None, ttl_s, ttl_s if mean_iat_s is None else mean_iat_s)
        hist.plan = plan
        return plan

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        function = container.function
        # No histogram yet means a driver that announced no arrival: an
        # empty one plans the generic TTL.
        hist = self._histograms.get(function.name) or self.histogram_of(function.name)
        keep_s, prewarm_after_s, prewarm_keep_s, __ = hist.plan or self._plan(hist)
        # Deadlines live in the pool's incremental expiry index rather
        # than a policy-side dict: plans are re-issued on every start
        # (and can move a deadline *earlier*), which the index handles
        # by superseding the old entry.
        pool.schedule_expiry(container, now_s + keep_s)
        if prewarm_after_s is not None:
            request = PrewarmRequest(
                function, now_s + prewarm_after_s, now_s + prewarm_keep_s
            )
            self._pending_prewarm[function.name] = request
            heapq.heappush(
                self._prewarm_heap, (request.at_time_s, next(self._seq), request)
            )

    # A cold start is planned exactly like a warm one.
    on_cold_start = on_warm_start

    def on_prewarm(
        self, container: Container, request: PrewarmRequest, pool: ContainerPool
    ) -> None:
        pool.schedule_expiry(container, request.expiry_s)

    def expired_containers(
        self, pool: ContainerPool, now_s: float
    ) -> List[Tuple[Container, float]]:
        return pool.pop_expired(now_s)

    def next_expiry_s(self, pool: ContainerPool) -> float:
        # Plans live in the pool's expiry index.
        return pool.next_expiry_s()

    def due_prewarms(self, now_s: float) -> List[PrewarmRequest]:
        due: List[PrewarmRequest] = []
        while self._prewarm_heap and self._prewarm_heap[0][0] <= now_s:
            __, __, request = heapq.heappop(self._prewarm_heap)
            if request.at_time_s < 0:
                continue  # cancelled by a real arrival
            current = self._pending_prewarm.get(request.function.name)
            if current is request:
                del self._pending_prewarm[request.function.name]
                due.append(request)
        return due

    def next_prewarm_s(self) -> float:
        """Earliest live prewarm, purging dead heap tops (cancelled
        tombstones and superseded requests) so a stale entry cannot
        hold the simulator's prewarm phase open forever."""
        heap = self._prewarm_heap
        while heap:
            at_s, __, request = heap[0]
            if (
                request.at_time_s < 0
                or self._pending_prewarm.get(request.function.name)
                is not request
            ):
                heapq.heappop(heap)
                continue
            return at_s
        return float("inf")

    # ------------------------------------------------------------------
    # Memory-pressure eviction
    # ------------------------------------------------------------------

    def priority(self, container: Container, now_s: float) -> float:
        """Evict the container predicted to be needed furthest away:
        the head after its last use if the function is predictable, else
        its mean IAT, else (no IAT seen yet) the generic TTL."""
        hist = self._histograms.get(container.function.name)
        if hist is None:
            predicted_gap_s = self.generic_ttl_s
        else:
            predicted_gap_s = (hist.plan or self._plan(hist))[3]
        return -(container.last_used_s + predicted_gap_s - now_s)

    def reset(self) -> None:
        super().reset()
        self._histograms.clear()
        self._prewarm_heap.clear()
        self._pending_prewarm.clear()
