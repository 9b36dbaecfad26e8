"""A simulated OpenWhisk invoker (Section 7.2's evaluation substrate).

The paper evaluates FaasCache as a modified OpenWhisk invoker on a
real server. This module reproduces the invoker's request-handling
behaviour as a discrete-event model so the same comparison — vanilla
TTL OpenWhisk vs Greedy-Dual FaasCache — runs without the platform.
Every keep-alive decision is made by one
:class:`~repro.sim.scheduler.KeepAliveSimulator` (docs/simulation.md,
"The §7 invoker is a driver"); this module adds the platform:

* Each request needs a **CPU slot** (the server has a fixed core
  count) and a **container** (warm hit, or a cold launch that must
  find pool memory).
* Cold launches pass through the Figure 1 phase pipeline and are
  limited by a **launch concurrency** bound (the Docker daemon
  serializes container creation), so cold-start storms back up.
* Requests that cannot be served immediately are **buffered FIFO**;
  buffered requests time out and are **dropped** — OpenWhisk "buffers
  and eventually drops requests if it cannot fulfill them".
* Eviction is a **slow path** (Section 6) that stalls the cold start
  needing it, batched to a free threshold or moved to the background.

The feedback loop the paper observes emerges naturally: cold starts
hold CPU and memory for seconds instead of milliseconds, which backs
up the queue, which causes timeouts and drops; a keep-alive policy
with a better hit rate serves strictly more requests in the same time
frame (Figures 7 and 8).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.clock import wall_clock_s
from repro.core.container import Container
from repro.core.function import FunctionStatsTable
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.obs.tracer import Tracer
from repro.openwhisk.latency import ColdStartModel
from repro.sim.events import EventQueue
from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace, TraceFunction

__all__ = ["InvokerConfig", "RequestRecord", "InvokerResult", "SimulatedInvoker"]


@dataclass(frozen=True)
class InvokerConfig:
    """Resources and limits of one simulated invoker."""

    #: ContainerPool user-memory (the keep-alive cache size). OpenWhisk
    #: reserves most of a server's physical RAM for the system; the
    #: pool's usable share is this configured value.
    memory_mb: float = 8192.0
    cpu_cores: int = 48
    #: Buffered-request capacity before immediate drops.
    queue_capacity: int = 512
    #: Buffered requests older than this are dropped.
    request_timeout_s: float = 30.0
    #: Concurrent container launches (Docker daemon parallelism).
    max_concurrent_launches: int = 4
    #: Batched-eviction free threshold (0 disables batching).
    free_threshold_mb: float = 0.0
    #: Slow-path stall of entering an eviction round (pool sort plus
    #: Docker round trip) — charged to the triggering cold start.
    eviction_event_latency_s: float = 0.5
    #: Docker removal time per evicted container.
    eviction_per_container_s: float = 0.25
    #: kswapd-style background reclaim toward the free threshold,
    #: keeping eviction off the invocation critical path (the
    #: Section 6 future-work design). Requires free_threshold_mb > 0.
    async_reclaim: bool = False
    #: Generic pre-created ("stem cell") containers, as real OpenWhisk
    #: maintains per runtime and as the warm-pool line of work
    #: [Lin & Glikson, the paper's ref 41] formalizes. A cold start
    #: that grabs a stem skips the Docker-creation phase (the stem is
    #: specialized in place); the stem is replenished in the
    #: background. Stems occupy ``stem_cell_mb`` each.
    stem_cell_count: int = 0
    stem_cell_mb: float = 256.0

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory must be positive")
        if self.cpu_cores <= 0:
            raise ValueError("cpu cores must be positive")
        if self.queue_capacity < 0:
            raise ValueError("queue capacity must be non-negative")
        if self.request_timeout_s <= 0:
            raise ValueError("request timeout must be positive")
        if self.max_concurrent_launches <= 0:
            raise ValueError("launch concurrency must be positive")
        if self.free_threshold_mb < 0:
            raise ValueError("free threshold must be non-negative")
        if self.async_reclaim and self.free_threshold_mb == 0:
            raise ValueError("async reclaim needs a free threshold above 0")
        if self.stem_cell_count < 0 or self.stem_cell_mb <= 0:
            raise ValueError("invalid stem-cell configuration")
        if self.stem_cell_count * self.stem_cell_mb >= self.memory_mb:
            raise ValueError("stem cells would consume the whole pool")


@dataclass
class RequestRecord:
    """One request's journey through the invoker."""

    function_name: str
    arrival_s: float
    start_s: Optional[float] = None
    completion_s: Optional[float] = None
    outcome: str = "pending"  # hit | miss | dropped

    @property
    def latency_s(self) -> Optional[float]:
        """Application-visible latency: arrival to completion."""
        if self.completion_s is None:
            return None
        return self.completion_s - self.arrival_s

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Time buffered before service began (0 if served at once)."""
        if self.start_s is None:
            return None
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> Optional[float]:
        """Time from service start to completion (cold or warm path)."""
        if self.completion_s is None or self.start_s is None:
            return None
        return self.completion_s - self.start_s


@dataclass
class InvokerResult:
    """Aggregated outcome of one load test: the engine's own metrics,
    plus one record per request for the latency views."""

    policy_name: str
    records: List[RequestRecord] = field(default_factory=list)
    metrics: SimulationMetrics = field(default_factory=SimulationMetrics)

    @property
    def warm_starts(self) -> int:
        return self.metrics.warm_starts

    @property
    def cold_starts(self) -> int:
        return self.metrics.cold_starts

    @property
    def dropped(self) -> int:
        return self.metrics.dropped

    @property
    def served(self) -> int:
        return self.warm_starts + self.cold_starts

    @property
    def total(self) -> int:
        return len(self.records)

    def per_function(self) -> Dict[str, FunctionOutcome]:
        return self.metrics.per_function

    def latencies_s(self, function_name: Optional[str] = None) -> List[float]:
        return [
            r.latency_s
            for r in self.records
            if r.latency_s is not None
            and (function_name is None or r.function_name == function_name)
        ]

    def mean_latency_s(self, function_name: Optional[str] = None) -> float:
        latencies = self.latencies_s(function_name)
        return sum(latencies) / len(latencies) if latencies else 0.0

    def percentile_latency_s(
        self, q: float, function_name: Optional[str] = None
    ) -> float:
        """Nearest-rank latency percentile (e.g. ``q=99`` for p99)."""
        from repro.analysis.stats import percentile

        latencies = self.latencies_s(function_name)
        return percentile(latencies, q) if latencies else 0.0

    def mean_queue_wait_s(self) -> float:
        """Mean buffering delay over served requests — the congestion
        component of latency, separate from cold-start service time."""
        waits = [
            r.queue_wait_s
            for r in self.records
            if r.queue_wait_s is not None and r.completion_s is not None
        ]
        return sum(waits) / len(waits) if waits else 0.0

    def function_hit_ratio(self, function_name: str) -> float:
        outcome = self.per_function().get(function_name)
        return outcome.hit_ratio if outcome else 0.0


class SimulatedInvoker:
    """Discrete-event model of one OpenWhisk(-like) invoker: the
    platform around one keep-alive engine."""

    def __init__(
        self,
        config: InvokerConfig,
        policy: str | KeepAlivePolicy = "TTL",
        cold_start_model: Optional[ColdStartModel] = None,
        controller=None,
        deflation_engine=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``controller`` (a
        :class:`~repro.provisioning.controller.ProportionalController`)
        attaches the Figure 4 provisioning loop to this invoker: every
        control period the observed arrival and cold-start counts feed
        the controller, and its size decision resizes the pool through
        the engine's capacity seam
        (:meth:`~repro.sim.scheduler.KeepAliveSimulator.set_capacity`),
        priced by ``deflation_engine`` (cascade deflation by default).
        Without a controller the pool size is static.

        ``tracer`` is the engine's own: the run's lifecycle events, for
        ``trace-report --check`` against ``InvokerResult.metrics``."""
        if isinstance(policy, str):
            policy = create_policy(policy)
        self.config = config
        self.policy = policy
        self.latency_model = cold_start_model or ColdStartModel()
        self.controller = controller
        if controller is not None and deflation_engine is None:
            from repro.provisioning.deflation import DeflationEngine

            deflation_engine = DeflationEngine()
        self.deflation_engine = deflation_engine
        self.tracer = tracer
        self.deflations = []
        self._period_arrivals = 0
        self._period_colds = 0
        #: Learned cold / warm times, folded in at every completion;
        #: :func:`~repro.openwhisk.loadgen.faascache_invoker` shares it
        #: with the policy that prices from it.
        self.stats = FunctionStatsTable()
        #: The keep-alive engine, built by :meth:`run`.
        self.simulator: Optional[KeepAliveSimulator] = None
        self._stems_available = config.stem_cell_count
        self.stem_hits = 0
        #: Synchronous eviction rounds, and containers the background
        #: reclaim took (the Section 6 slow-path ablation's columns).
        self.eviction_events = 0
        self.background_evictions = 0
        self._events: EventQueue[Callable[[float], None]] = EventQueue()
        self._queue: Deque[Tuple[RequestRecord, TraceFunction]] = deque()
        self._launches = 0

    # ------------------------------------------------------------------
    # The engine, as this platform asks it
    # ------------------------------------------------------------------

    def _books(self, function: TraceFunction) -> Tuple[Optional[int], dict]:
        """The tenant id the engine books ``function`` under and the
        event fields that carry it: ``(None, {})`` on tenant-less runs."""
        if not self.simulator._tenants_active:
            return None, {}
        return function.tenant_id, {"tenant": function.tenant_id}

    def _start(
        self, container: Container, function: TraceFunction, now_s: float,
        duration_s: float, cold: bool,
    ) -> None:
        """Start an invocation on the engine's books as its arrival path
        does (a cold container is admitted running); the engine's
        :meth:`KeepAliveSimulator.housekeeping` releases it once
        ``duration_s`` is over."""
        sim = self.simulator
        pool = sim.pool
        container.start_invocation(now_s, duration_s)
        if cold:
            pool.add(container)
        heapq.heappush(sim._running, (container.busy_until_s, container.container_id, container))
        (sim.policy.on_cold_start if cold else sim.policy.on_warm_start)(container, now_s, pool)
        tenant_id, extra = self._books(function)
        if sim._tracer is not None:
            sim._tracer.emit(
                "cold_start" if cold else "warm_hit", now_s, function=function.name,
                container_id=container.container_id, duration_s=duration_s, **extra,
            )
        if cold:
            sim.metrics.record_cold(function.name, function.warm_time_s, duration_s, tenant_id)
        else:
            sim.metrics.record_warm(function.name, function.warm_time_s, duration_s, tenant_id)

    def _drop(self, record: RequestRecord, function: TraceFunction, now_s: float) -> None:
        record.outcome = "dropped"
        sim = self.simulator
        tenant_id, extra = self._books(function)
        if sim._tracer is not None:
            sim._tracer.emit(
                "dropped", now_s, function=function.name, needed_mb=function.memory_mb, **extra
            )
        sim.metrics.record_dropped(function.name, tenant_id=tenant_id)

    def _make_room(self, function: TraceFunction, now_s: float) -> Optional[float]:
        """Free memory for a cold start of ``function`` through the
        engine's victim selection; ``None`` when it cannot (every
        resident container is busy), else the slow-path stall the cold
        start pays. A round that evicted anything is, without async
        reclaim, batched on down the policy's victim order to the free
        threshold, amortizing its fixed cost across the next several
        cold starts (Section 6). No round, no batch: topping up on
        every miss would charge the slow path as often as not batching."""
        sim = self.simulator
        metrics, pool = sim.metrics, sim.pool
        before = metrics.evictions
        if not sim._evict_for(function, now_s):
            return None
        evicted = metrics.evictions - before
        if not evicted:
            return 0.0
        self.eviction_events += 1
        threshold = self.config.free_threshold_mb
        if threshold > 0 and not self.config.async_reclaim:
            target_free = min(max(function.memory_mb, threshold), pool.capacity_mb)
            for container in sim.policy.victim_order(pool, now_s):
                if pool.free_mb >= target_free - 1e-9:
                    break
                sim._evict(container, now_s, "pressure")
                evicted += 1
        return self.config.eviction_event_latency_s + evicted * self.config.eviction_per_container_s

    def reclaim(self, now_s: float) -> None:
        """Background (kswapd-style) reclaim: between requests, evict
        down the policy's victim order until the free threshold is
        free, charging no request any latency."""
        if not self.config.async_reclaim:
            return
        sim = self.simulator
        sim.housekeeping(now_s)
        pool = sim.pool
        target_free = min(self.config.free_threshold_mb, pool.capacity_mb)
        if pool.free_mb >= target_free - 1e-9:
            return  # the common call: nothing to order
        for victim in sim.policy.victim_order(pool, now_s):
            sim._evict(victim, now_s, "pressure")
            self.background_evictions += 1
            if pool.free_mb >= target_free - 1e-9:
                break

    def _try_serve(self, record: RequestRecord, function: TraceFunction, now_s: float) -> bool:
        if self.simulator.outstanding >= self.config.cpu_cores:
            return False
        model = self.latency_model
        container = self.simulator.pool.idle_warm_container(function.name)
        cold = container is None
        if not cold:
            duration = model.warm_duration_s(function)
        else:
            if self._launches >= self.config.max_concurrent_launches:
                return False
            eviction_stall = self._make_room(function, now_s)
            if eviction_stall is None:
                return False
            container = Container(function, created_at_s=now_s)
            duration = model.cold_duration_s(function) + eviction_stall
            launch = model.launch_duration_s(function) + eviction_stall
            if self._stems_available > 0:
                # Specialize a pre-created stem: the Docker-creation
                # phase is already done; schedule its replacement.
                self._stems_available -= 1
                self.stem_hits += 1
                duration -= model.docker_startup_s
                launch -= model.docker_startup_s
                self._events.push(now_s + model.docker_startup_s, self._stem_ready)
            self._launches += 1
            self._events.push(now_s + launch, self._launch_done)
            self._period_colds += 1
        self._start(container, function, now_s, duration, cold)
        record.start_s = now_s
        record.outcome = "miss" if cold else "hit"
        self._events.push(now_s + duration, partial(self._complete, record, function, cold))
        return True

    def _drain_queue(self, now_s: float) -> None:
        """Serve what the buffer can, after the engine's housekeeping
        (everything due by ``now_s`` released, expired, prewarmed): as
        on the engine's arrival path, only a decision asks for it."""
        queue = self._queue
        if not queue:
            return
        self.simulator.housekeeping(now_s)
        # Time out stale entries: the buffer is in arrival order.
        deadline = now_s - self.config.request_timeout_s
        while queue and queue[0][0].arrival_s < deadline:
            self._drop(*queue.popleft(), now_s)
        # Serve in arrival order, but skip requests that cannot be
        # served yet (OpenWhisk buffers per action: a large function
        # waiting for memory does not block other functions). Serving
        # may free memory (batched eviction) that unblocks an earlier
        # skipped request: pass again while a pass makes progress.
        while queue:
            waiting = len(queue)
            queue = self._queue = deque(
                item for item in queue if not self._try_serve(*item, now_s)
            )
            if len(queue) == waiting or self.simulator.outstanding >= self.config.cpu_cores:
                break

    # ------------------------------------------------------------------
    # Events: ``action(at_s)`` on the invoker's timeline
    # ------------------------------------------------------------------

    def _arrive(self, record: RequestRecord, function: TraceFunction, now_s: float) -> None:
        sim = self.simulator
        self._period_arrivals += 1
        sim.housekeeping(now_s)
        self.reclaim(now_s)
        sim.policy.on_invocation(function, now_s, sim.pool)
        if sim._tracer is not None:
            sim._tracer.emit(
                "invocation_arrived", now_s, function=function.name, **self._books(function)[1]
            )
        # Older buffered requests get the first shot at freed
        # resources; whatever the drain leaves is currently blocked,
        # so serving this arrival next is fair and avoids a blocked
        # large function head-of-line-blocking it.
        self._drain_queue(now_s)
        if self._try_serve(record, function, now_s):
            return
        if len(self._queue) >= self.config.queue_capacity:
            self._drop(record, function, now_s)
        else:
            self._queue.append((record, function))

    def _complete(
        self, record: RequestRecord, function: TraceFunction, cold: bool, now_s: float
    ) -> None:
        record.completion_s = now_s
        stats = self.stats.get(function.name)
        (stats.observe_cold if cold else stats.observe_warm)(now_s - record.start_s)
        self.reclaim(now_s)
        self._drain_queue(now_s)

    def _launch_done(self, now_s: float) -> None:
        self._launches -= 1
        self._drain_queue(now_s)

    def _stem_ready(self, now_s: float) -> None:
        self._stems_available = min(self._stems_available + 1, self.config.stem_cell_count)
        self._drain_queue(now_s)

    def _control_tick(self, now_s: float) -> None:
        """One Figure 4 provisioning period: observe, decide, resize."""
        decision = self.controller.step(now_s, self._period_arrivals, self._period_colds)
        self._period_arrivals = self._period_colds = 0
        if decision.resized:
            pool, size_mb = self.simulator.pool, decision.cache_size_mb
            old_mb = pool.capacity_mb
            victims = self.simulator.set_capacity(now_s, size_mb)
            self.deflations.append(
                self.deflation_engine.report(size_mb, old_mb, pool.capacity_mb, victims)
            )
            self._drain_queue(now_s)

    def run(self, trace: Trace) -> InvokerResult:
        """Replay ``trace`` through the invoker and return the result.

        Everything timed that is not an arrival — completions, launch
        and stem readiness, controller ticks — fires before an arrival
        at the same instant, as the engine releases a container due at
        an arrival's time before serving it."""
        started = wall_clock_s()
        config = self.config
        # Stem cells reserve their memory off the top of the pool.
        pool_mb = config.memory_mb - config.stem_cell_count * config.stem_cell_mb
        self.simulator = KeepAliveSimulator(trace, self.policy, pool_mb, tracer=self.tracer)
        events = self._events
        if self.controller is not None and len(trace):
            period = tick = self.controller.control_period_s
            while tick <= trace.last_arrival_s + period:
                events.push(tick, self._control_tick)
                tick += period
        records: List[RequestRecord] = []
        now_s = 0.0
        for time_s, function in trace.arrivals():
            for now_s, action in events.pop_until(time_s):
                action(now_s)
            now_s = time_s
            record = RequestRecord(function_name=function.name, arrival_s=time_s)
            records.append(record)
            self._arrive(record, function, time_s)
        for now_s, action in events.pop_until(inf):
            action(now_s)
        # Anything still buffered after the last event would time out.
        for record, function in self._queue:
            self._drop(record, function, now_s)
        self._queue.clear()
        metrics = self.simulator.finalize(now_s, started).metrics
        return InvokerResult(policy_name=self.policy.name, records=records, metrics=metrics)
