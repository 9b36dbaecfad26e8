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
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import Welford
from repro.core.container import Container
from repro.core.policies.base import (
    KeepAlivePolicy,
    PrewarmRequest,
    register_policy,
)
from repro.core.pool import ContainerPool
from repro.traces.model import TraceFunction

__all__ = ["HistogramPolicy", "FunctionHistogram"]

_MINUTE_S = 60.0

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
    in-window sample count has one source, ``welford.count``: it is the
    total the percentiles rank against *and* the count
    :meth:`is_predictable` and :meth:`mean_iat_s` read.
    """

    __slots__ = (
        "window_minutes", "buckets", "welford", "out_of_window",
        "last_arrival_s", "plan", "_head", "_tail",
    )

    def __init__(self, window_minutes: int) -> None:
        self.window_minutes = window_minutes
        self.buckets: List[int] = [0] * window_minutes
        self.welford = Welford()
        self.out_of_window = 0
        self.last_arrival_s: Optional[float] = None
        #: The owning policy's :data:`Plan` for the current state, None
        #: until it computes one; every recorded arrival clears it.
        self.plan: Optional[Plan] = None
        self._head = [0, 0]
        self._tail = [0, 0]

    def record_arrival(self, now_s: float) -> None:
        if self.last_arrival_s is not None:
            iat_minutes = (now_s - self.last_arrival_s) / _MINUTE_S
            bucket = int(iat_minutes)
            if bucket < self.window_minutes:
                buckets = self.buckets
                buckets[bucket] += 1
                self.welford.update(iat_minutes)
                total = self.welford.count
                for cursor, target in (
                    (self._head, round(0.05 * total) or 1),
                    (self._tail, round(0.99 * total) or 1),
                ):
                    at, below = cursor
                    if bucket < at:
                        below += 1
                    while below >= target:
                        at -= 1
                        below -= buckets[at]
                    while below + buckets[at] < target:
                        below += buckets[at]
                        at += 1
                    cursor[0] = at
                    cursor[1] = below
            else:
                self.out_of_window += 1
        self.last_arrival_s = now_s
        self.plan = None

    @property
    def in_window_count(self) -> int:
        return self.welford.count

    def is_predictable(self, cov_threshold: float, min_samples: int) -> bool:
        """CoV <= threshold, enough samples, mostly in-window IATs."""
        in_window = self.welford.count
        if in_window < min_samples:
            return False
        if self.out_of_window > (in_window + self.out_of_window) / 2:
            return False
        return self.welford.coefficient_of_variation <= cov_threshold

    def head_s(self) -> float:
        """Pre-warm window: nearest-rank 5th-percentile IAT, lower
        bucket edge (0 on an empty histogram)."""
        return float(self._head[0]) * _MINUTE_S

    def tail_s(self) -> float:
        """Keep-alive window: nearest-rank 99th-percentile IAT, *upper*
        bucket edge so the window covers every IAT that fell in it (0 on
        an empty histogram)."""
        if self.welford.count == 0:
            return 0.0
        return float(self._tail[0] + 1) * _MINUTE_S

    def mean_iat_s(self) -> Optional[float]:
        if self.welford.count == 0:
            return None
        return self.welford.mean * _MINUTE_S


@register_policy("HIST")
class HistogramPolicy(KeepAlivePolicy):
    """Hybrid histogram TTL + prefetch keep-alive."""

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
        the function clears it.
        """
        if hist.is_predictable(self.cov_threshold, self.min_samples):
            head = hist.head_s()
            keep_s = self.tail_margin * max(hist.tail_s(), head + _MINUTE_S)
            if head > self.release_threshold_s:
                # Release soon, pre-warm just before the predicted arrival.
                plan = (self.release_threshold_s, self.head_margin * head, keep_s, head)
            else:
                # Frequent function: keep alive through the whole window.
                plan = (keep_s, None, keep_s, head)
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

    def _fallback_deadline(self, container: Container) -> float:
        """Deadline for containers no hook ever planned (manually
        assembled pools): the generic TTL after the last use."""
        return container.last_used_s + self.generic_ttl_s

    def expired_containers(
        self, pool: ContainerPool, now_s: float
    ) -> List[Tuple[Container, float]]:
        return pool.pop_expired(now_s, self._fallback_deadline)

    def next_expiry_s(self, pool: ContainerPool) -> float:
        # Plans live in the pool's expiry index; its peek honours the
        # unscheduled-container fallback by reporting -inf.
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
