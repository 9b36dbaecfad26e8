"""The invoker's container pool: FaasCache vs vanilla OpenWhisk.

This mirrors the paper's implementation (Section 6): FaasCache is a
~100-line modification of OpenWhisk's ``ContainerPool.scala`` that

* replaces the 10-minute TTL with Greedy-Dual-Size-Frequency priority
  eviction,
* learns each function's cold and warm times online (the first
  invocation's time is the worst-case cold estimate; the
  initialization overhead is cold minus warm once a warm run is
  observed), and
* **batches evictions**: to keep eviction off the invocation fast
  path, the pool is only sorted by priority during evictions, and
  evicts enough containers to reach a free-memory threshold (1000 MB
  by default) rather than just the immediate need.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.container import Container
from repro.core.function import FunctionStatsTable
from repro.core.policies.base import KeepAlivePolicy
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.pool import ContainerPool
from repro.traces.model import TraceFunction

__all__ = ["OnlineGreedyDualPolicy", "InvokerContainerPool"]

#: The paper's default free-memory threshold for batched evictions.
DEFAULT_FREE_THRESHOLD_MB = 1000.0


class OnlineGreedyDualPolicy(GreedyDualPolicy):
    """Greedy-Dual with *learned* initialization costs.

    The offline simulator reads the cold-start cost from the trace; a
    real platform must estimate it. This variant reads the cost from a
    :class:`FunctionStatsTable` maintained by the invoker, falling
    back to the worst-case assumption (whole first cold run counts as
    initialization) until a warm run has been observed — exactly the
    estimation scheme of Section 6.
    """

    def __init__(self, stats: FunctionStatsTable) -> None:
        super().__init__()
        self._stats = stats

    def _value_term(self, function: TraceFunction) -> float:
        freq = self.frequency_of(function.name)
        cost = self._stats.get(function.name).init_time_s
        return freq * cost / function.memory_mb

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        # A queued request starts after completions have moved the
        # learned cost: rescore then, not with the arrival's term.
        if self._arrival_refreshed_fn == container.function.name:
            self._arrival_value = self._value_term(container.function)
        super().on_warm_start(container, now_s, pool)

    on_cold_start = on_warm_start


class InvokerContainerPool:
    """Policy-managed container pool with batched eviction."""

    def __init__(
        self,
        capacity_mb: float,
        policy: KeepAlivePolicy,
        free_threshold_mb: float = DEFAULT_FREE_THRESHOLD_MB,
        stats: Optional[FunctionStatsTable] = None,
        eviction_event_latency_s: float = 0.0,
        eviction_per_container_s: float = 0.0,
        async_reclaim: bool = False,
    ) -> None:
        """``eviction_event_latency_s`` and ``eviction_per_container_s``
        model the slow path the paper batches away: entering an
        eviction round stalls the invocation path (pool sort + Docker
        round trip), and each terminated container pays a Docker
        removal. Batching (a non-zero ``free_threshold_mb``) makes
        eviction rounds rare, amortizing the fixed cost — exactly the
        Section 6 optimization.

        ``async_reclaim`` enables the kswapd-style design the paper
        sketches as future work: a background task keeps free memory
        at the threshold by evicting low-priority containers *between*
        requests (:meth:`maintain`), so eviction leaves the invocation
        critical path entirely — background evictions charge no
        latency to any request."""
        if free_threshold_mb < 0:
            raise ValueError("free threshold must be non-negative")
        self.pool = ContainerPool(capacity_mb)
        self.policy = policy
        self.free_threshold_mb = free_threshold_mb
        self.stats = stats if stats is not None else FunctionStatsTable()
        self.eviction_event_latency_s = eviction_event_latency_s
        self.eviction_per_container_s = eviction_per_container_s
        self.async_reclaim = async_reclaim
        self.evictions = 0
        self.eviction_events = 0
        self.background_evictions = 0
        self.expirations = 0
        #: Slow-path latency owed by the *next* cold start (set by
        #: the eviction round that made room for it).
        self.pending_eviction_latency_s = 0.0

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------

    def record_arrival(self, function: TraceFunction, now_s: float) -> None:
        """Announce one request arrival (exactly once per request)."""
        self.policy.on_invocation(function, now_s, self.pool)

    def acquire(
        self, function: TraceFunction, now_s: float
    ) -> Tuple[Optional[Container], str]:
        """Obtain a container for an invocation of ``function``.

        Returns ``(container, "hit")`` for a warm container,
        ``(container, "miss")`` after a successful cold-start
        allocation, or ``(None, "full")`` when memory cannot be freed
        (every resident container is busy).

        The caller must have announced the request once via
        :meth:`record_arrival` (acquire may be retried for queued
        requests and must not inflate frequencies), starts the
        invocation on the returned container, and calls
        :meth:`release` when it completes.
        """
        container = self.pool.idle_warm_container(function.name)
        if container is not None:
            return container, "hit"
        if not self._make_room(function.memory_mb, now_s):
            return None, "full"
        container = Container(function, created_at_s=now_s)
        self.pool.add(container)
        return container, "miss"

    def _make_room(self, needed_mb: float, now_s: float) -> bool:
        victims = self.policy.select_victims(self.pool, needed_mb, now_s)
        if victims is None:
            return False
        evicted = 0
        if victims:
            self.eviction_events += 1
        for victim in victims:
            self._evict(victim, now_s, pressure=True)
            evicted += 1
        # Batch: when an eviction round was genuinely needed, keep
        # evicting low-priority containers until the free threshold is
        # reached, amortizing the round's fixed cost across the next
        # several cold starts (Section 6). With async reclaim the
        # background task owns the threshold, so the fast path evicts
        # the minimum. No round, no batch: topping up on every miss
        # would charge the slow path as often as not batching at all.
        if victims and self.free_threshold_mb > 0 and not self.async_reclaim:
            target_free = min(
                max(needed_mb, self.free_threshold_mb), self.pool.capacity_mb
            )
            for container in self.policy.victim_order(self.pool, now_s):
                if self.pool.free_mb >= target_free - 1e-9:
                    break
                self._evict(container, now_s, pressure=True)
                evicted += 1
        if evicted:
            self.pending_eviction_latency_s = (
                self.eviction_event_latency_s
                + evicted * self.eviction_per_container_s
            )
        return True

    def take_eviction_latency(self) -> float:
        """Consume the slow-path latency owed by the current cold start."""
        latency = self.pending_eviction_latency_s
        self.pending_eviction_latency_s = 0.0
        return latency

    def maintain(self, now_s: float) -> int:
        """Background (kswapd-style) reclaim toward the free threshold.

        Only active with ``async_reclaim``; called by the invoker
        between requests. Evicts low-priority idle containers until
        ``free_threshold_mb`` is free, charging no request latency.
        Returns the number of containers reclaimed.
        """
        if not self.async_reclaim or self.free_threshold_mb <= 0:
            return 0
        target_free = min(self.free_threshold_mb, self.pool.capacity_mb)
        reclaimed = 0
        if self.pool.free_mb >= target_free - 1e-9:
            return reclaimed  # the common call: nothing to order
        for victim in self.policy.victim_order(self.pool, now_s):
            self._evict(victim, now_s, pressure=True)
            self.background_evictions += 1
            reclaimed += 1
            if self.pool.free_mb >= target_free - 1e-9:
                break
        return reclaimed

    def _evict(self, container: Container, now_s: float, pressure: bool) -> None:
        self.pool.evict(container)
        self._note_evicted(container, now_s, pressure)

    def _note_evicted(self, container: Container, now_s: float, pressure: bool) -> None:
        """The bookkeeping of one eviction, whoever took the memory."""
        self.policy.on_evict(container, now_s, self.pool, pressure=pressure)
        if pressure:
            self.evictions += 1
        else:
            self.expirations += 1

    def _note_deflated(self, victims: List[Container], now_s: float) -> None:
        for victim in victims:  # the pool's deflation already evicted them
            self._note_evicted(victim, now_s, pressure=True)

    def resize(self, target_mb: float, now_s: float) -> List[Container]:
        """Resize the pool toward ``target_mb`` — the invoker's one
        capacity seam, the mechanism of
        :meth:`KeepAliveSimulator.set_capacity`: a shrink evicts idle
        containers in the policy's victim order and defers what busy
        ones hold (:meth:`release` resumes it); growth is immediate.
        Returns the containers evicted now."""
        victims = self.pool.deflate_to(target_mb, self.policy.victim_order(self.pool, now_s))
        self._note_deflated(victims, now_s)
        return victims

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def notify_start(self, container: Container, kind: str, now_s: float) -> None:
        """Policy bookkeeping once the invocation has been started."""
        if kind == "hit":
            self.policy.on_warm_start(container, now_s, self.pool)
        else:
            self.policy.on_cold_start(container, now_s, self.pool)

    def release(
        self, container: Container, now_s: float, kind: str, elapsed_s: float
    ) -> None:
        """Finish an invocation, fold its timing into the stats, and
        let a deferred shrink take what just went idle."""
        container.finish_invocation(now_s)
        stats = self.stats.get(container.function.name)
        if kind == "hit":
            stats.observe_warm(elapsed_s)
        else:
            stats.observe_cold(elapsed_s)
        if self.pool.deflation_target_mb is not None:
            order = self.policy.victim_order(self.pool, now_s)
            self._note_deflated(self.pool.resume_deflation(order), now_s)

    def expire(self, now_s: float) -> int:
        """Apply the policy's time-based expirations; returns the count."""
        expired = self.policy.expired_containers(self.pool, now_s)
        for container, __ in expired:
            self._evict(container, now_s, pressure=False)
        return len(expired)
