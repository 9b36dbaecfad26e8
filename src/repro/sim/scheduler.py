"""The trace-driven keep-alive simulator.

A reproduction of the paper's discrete-event simulator (Section 6,
"Keep-alive Simulator": ~2,000 lines of Python replaying Azure trace
samples). Each invocation is processed in arrival order; between
arrivals, container completions, time-based expirations, and scheduled
prewarms are applied lazily — exactly the structure of the original
``LambdaScheduler.runActivation``:

1. release containers whose invocations have finished,
2. ``cleanup_finished`` — expire containers past their TTL (TTL/HIST),
3. ``PreWarmContainers`` — materialize due prewarms (HIST),
4. find a warm idle container (cache hit) or create one (cache miss),
   evicting the lowest-priority idle containers if memory is short,
5. update the policy's priorities and bookkeeping.

An invocation that cannot obtain memory even after evicting every idle
container is **dropped** — all containers are busy running, which is
the behaviour that separates FaaS keep-alive from classical caching
(Section 5.1's "Limitations of the Caching Analogy").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.checks.sanitize import (
    check_counter_equality,
    check_tenant_counter_equality,
    sanitize_enabled,
)
from repro.core.clock import SimClock, wall_clock_s
from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.policies.histogram import HistogramPolicy
from repro.core.policies.ttl import TTLPolicy
from repro.core.pool import CapacityError, ContainerPool
from repro.faults import FaultModel, RetryPolicy
from repro.obs.counters import eviction_counters
from repro.obs.tracer import Tracer, active_tracer
from repro.sim.config import RunConfig
from repro.sim.events import EventQueue
from repro.sim.metrics import SimulationMetrics
from repro.traces.model import Trace, TraceFunction

if TYPE_CHECKING:
    from repro.obs.report import ReportSink

__all__ = ["KeepAliveSimulator", "SimulationResult", "simulate"]


@dataclass
class SimulationResult:
    """Outcome of one (trace, policy, memory size) simulation."""

    trace_name: str
    policy_name: str
    memory_mb: float
    metrics: SimulationMetrics
    #: How the arrivals were replayed: ``"sequential"`` (the arrival
    #: loop of :meth:`KeepAliveSimulator.run`), ``"vectorized"`` (the
    #: closed-form TTL kernel of :mod:`repro.sim.columnar`),
    #: ``"hist-kernel"`` or ``"gd-kernel"`` (its per-arrival HIST and GD
    #: kernels).
    path: str = "sequential"

    def __repr__(self) -> str:
        return (
            f"SimulationResult(trace={self.trace_name!r}, "
            f"policy={self.policy_name}, memory={self.memory_mb:.0f} MB, "
            f"cold={self.metrics.cold_start_pct:.2f}%, "
            f"increase={self.metrics.exec_time_increase_pct:.2f}%)"
        )


class KeepAliveSimulator:
    """Replays a trace against one keep-alive policy on one server."""

    def __init__(
        self,
        trace: Trace,
        policy: KeepAlivePolicy,
        memory_mb: float,
        config: Optional[RunConfig] = None,
        tracer: Optional[Tracer] = None,
        **config_fields,
    ) -> None:
        """``trace`` is read three times, here: its function registry,
        its name, and (under a fault spec) its last arrival time; only
        :meth:`run` iterates it, so drivers that feed
        :meth:`process_invocation` themselves — live serving, the
        cluster layers — use the trace as a registry and nothing else.

        ``config`` holds every simulator knob (:class:`RunConfig`
        documents them); any of its fields may also be given as a
        keyword and overrides the config's value.

        ``tracer`` (a :class:`repro.obs.Tracer`) turns on structured
        lifecycle-event emission: arrivals, warm hits, cold starts,
        spawns, evictions (with policy and priority), drops, and
        memory-pressure rounds. Disabled (the default) it costs one
        ``None`` check per emission site — the trace stream sees
        *every* invocation, including those before ``warmup_s`` that
        the metrics exclude.

        Per-tenant metrics and ``tenant`` event fields are recorded
        whenever the trace carries tenant ids, in every tenant mode;
        tenant-less traces replay byte-identically to the pre-tenancy
        simulator."""
        config = RunConfig.resolve(config, config_fields)
        warmup_s = config.warmup_s
        tenant_mode = config.tenant_mode
        self.trace = trace
        functions = trace.functions
        self._trace_name = trace.name
        self.policy = policy
        # ``None`` when tracing is disabled: every emission site guards
        # with a plain ``is None`` test, the cheapest off switch.
        self._tracer = active_tracer(tracer)
        # Runtime sanitizer (docs/static-analysis.md): when enabled and
        # the caller attached no tracer of their own, record the event
        # stream into an in-memory report so run() can assert
        # trace/metrics counter equality at the end. Warmup runs are
        # excluded — metrics deliberately skip pre-warmup invocations
        # while the trace stream sees all of them.
        self._sanitize_report: Optional[ReportSink] = None
        if sanitize_enabled() and self._tracer is None and warmup_s <= 0.0:
            from repro.obs import report  # only a sanitized run loads it

            self._sanitize_report = report.ReportSink()
            self._tracer = Tracer(self._sanitize_report)
        # Multi-tenancy: per-tenant metrics (and ``tenant`` event
        # fields) are recorded exactly when the trace carries tenant
        # ids, so tenant-less replays take the legacy path bit for bit.
        self._tenants_active = any(
            f.tenant_id != 0 for f in functions.values()
        )
        limits = config.tenant_quotas
        if tenant_mode != "shared" and limits is None:
            # Equal split across the trace's tenants — the sensible
            # default for CLI runs that name a mode but no quotas.
            tenant_ids = sorted({f.tenant_id for f in functions.values()})
            share = memory_mb / len(tenant_ids) if tenant_ids else memory_mb
            limits = {tid: share for tid in tenant_ids}
        self.pool = ContainerPool(
            memory_mb,
            tracer=self._tracer,
            tenant_mode=tenant_mode,
            tenant_limits_mb=limits if tenant_mode != "shared" else None,
        )
        self._tenant_shared = tenant_mode == "shared"  # fixed for the pool's life
        self.metrics = SimulationMetrics()
        # Eviction reason -> the counter it bumps, resolved from the
        # counter table once so :meth:`_evict` pays one dict lookup.
        self._eviction_counter = eviction_counters()
        # Timestamp source (docs/live-serving.md): the replay loop
        # advances this to each arrival and reads ``now_s`` back from
        # it, so sim and live mode share one code path — the live
        # service swaps in a RealTimeClock and drives the same engine.
        self.clock = SimClock()
        # Expiry fast path: policies that never expire (the resource-
        # conserving caching family) inherit the base
        # ``expired_containers``; detecting that once here lets the
        # event loop skip the expiry phase entirely instead of calling
        # into an empty-list stub 100k times per replay.
        self._policy_expires = (
            type(policy).expired_containers
            is not KeepAlivePolicy.expired_containers
        )
        # Prewarm fast path, same trick: only HIST (and wrappers)
        # override ``due_prewarms``, so everyone else skips the phase
        # without a call. For policies that *do* expire or prefetch,
        # the per-arrival work is further gated by the policies'
        # ``next_expiry_s``/``next_prewarm_s`` peeks (batched dispatch:
        # one float compare instead of a call returning a fresh empty
        # list on every quiet arrival).
        self._policy_prewarms = (
            type(policy).due_prewarms is not KeepAlivePolicy.due_prewarms
        )
        # Admission fast path, same trick: only a doorkeeper overrides
        # ``should_retain``; everyone else retains all and is never asked.
        self._policy_retains = type(policy).should_retain is not KeepAlivePolicy.should_retain
        self.prewarm_effectiveness = config.prewarm_effectiveness
        self.warmup_s = warmup_s
        self._track_timeline = config.track_memory_timeline
        self._timeline_interval_s = config.timeline_interval_s
        self._last_sample_s = float("-inf")
        # Min-heap of (finish_time, container_id, container) for
        # running invocations.
        self._running: List[Tuple[float, int, Container]] = []
        # ---- fault injection & recovery (docs/robustness.md) -------
        # Whether this server is currently failed. Maintained even
        # without a fault spec so cluster layers can drive
        # fail_server()/recover_server() externally.
        self._down = False
        self._down_since = 0.0
        self._server_index = int(config.server_index)
        # Harvested capacity (docs/robustness.md): the provisioned size
        # every capacity fraction is relative to. ``set_harvest_capacity``
        # resizes the pool against this, never against the previous
        # (possibly already-shrunk or deferral-clamped) capacity.
        self._nominal_capacity_mb = float(memory_mb)
        fault_spec = config.fault_spec
        # The one timeline (:mod:`repro.sim.events`), of ``action(at_s)``:
        # this server's outage / harvest / spot schedule (filed here, so
        # first among equal times), retries, what a driver adds via
        # :meth:`schedule`. Its tie-break is its own counter, never
        # process-global: every decision is identical across processes.
        self._events: EventQueue[Callable[[float], None]] = EventQueue()
        self._faults: Optional[FaultModel] = None
        self._retry: Optional[RetryPolicy] = None
        if fault_spec is not None and fault_spec.enabled:
            self._faults = FaultModel(fault_spec)
            self._retry = RetryPolicy.from_spec(fault_spec)
            # Schedules are generated on absolute time from 0, so the
            # horizon is the last arrival time.
            self._events = EventQueue([
                (at_s, partial(self.apply_server_event, kind=kind, value=value))
                for at_s, __, kind, value in self._faults.server_events(
                    [self._server_index], trace.last_arrival_s
                )
            ])
        self._retrying = 0  # the retry re-entering process_invocation, 0 for an arrival
        # Provisioned concurrency: pinned containers exist from t=0.
        for name, count in (config.reserved_concurrency or {}).items():
            function = functions.get(name)
            if function is None:
                raise ValueError(f"reserved function {name!r} not in trace")
            if count < 1:
                raise ValueError(f"reserved count for {name!r} must be >= 1")
            for __ in range(count):
                container = Container(function, created_at_s=0.0)
                container.pinned = True
                self.pool.add(container)  # raises CapacityError if too big

    # ------------------------------------------------------------------
    # Per-arrival phases
    # ------------------------------------------------------------------

    def _evict(self, container: Container, now_s: float, reason: str) -> None:
        """Terminate ``container``: trace it, free its memory, tell the
        policy, and bump the counter the counter table assigns to
        ``reason`` (one of ``EVICTION_REASONS``). ``failure`` bumps
        none: the fault was already counted when it was injected."""
        if self._tracer is not None:
            self._tracer.emit(
                "evicted",
                now_s,
                function=container.function.name,
                container_id=container.container_id,
                policy=self.policy.name,
                reason=reason,
                freed_mb=container.memory_mb,
                priority=self.policy.eviction_priority(container, now_s),
                idle_s=container.idle_time_s(now_s),
                age_s=max(0.0, now_s - container.created_at_s),
            )
        self.pool.evict(container)
        self.policy.on_evict(
            container, now_s, self.pool, pressure=reason == "pressure"
        )
        counter = self._eviction_counter.get(reason)
        if counter is not None:
            metrics = self.metrics
            setattr(metrics, counter, getattr(metrics, counter) + 1)

    def _release_finished(self, now_s: float) -> None:
        while self._running and self._running[0][0] <= now_s:
            finish_s, __, container = heapq.heappop(self._running)
            container.finish_invocation(finish_s)
            # A doomed container (its invocation crashed, or its server
            # died under it) is torn down instead of returning to the
            # warm pool.
            if container.doomed:
                self._evict(container, finish_s, "failure")
                continue
            # Provisioned concurrency is retained by definition — the
            # gate below must never see a pinned container (``pool.evict``
            # refuses one) — and so is all under a policy without a gate.
            if container.pinned or not self._policy_retains:
                continue
            # Admission gate: policies with a doorkeeper may refuse to
            # keep an unproven function's container warm at all.
            if not self.policy.should_retain(container, finish_s, self.pool):
                self._evict(container, finish_s, "admission")
        # A deferred deflation (shrink below what busy containers held)
        # resumes as those containers idle: the pool takes whatever it
        # can off the front of the policy's victim order. Cheap when no
        # shrink is pending (a single ``is None`` check).
        target = self.pool.deflation_target_mb
        if target is not None:
            victims = self.pool.resume_deflation(
                self.policy.victim_order(self.pool, now_s)
            )
            self._note_deflations(victims, now_s, target)

    def _expire_containers(self, now_s: float) -> None:
        for container, __ in self.policy.expired_containers(self.pool, now_s):
            self._evict(container, now_s, "expiry")

    def _materialize_prewarms(self, now_s: float) -> None:
        for request in self.policy.due_prewarms(now_s):
            function = request.function
            # Skip if an idle container already exists or memory is
            # tight: prewarming never evicts real containers.
            if self.pool.idle_warm_container(function.name) is not None:
                continue
            if not self.pool.can_admit(function):
                continue
            container = Container(function, created_at_s=request.at_time_s)
            container.prewarmed = True
            self.pool.add(container)
            self.policy.on_prewarm(container, request, self.pool)
            self.metrics.prewarms += 1

    def _evict_for(self, function: TraceFunction, now_s: float) -> bool:
        """Free memory for a container of ``function``; False means the
        request drops. In non-shared tenant modes the deficit and the
        candidate set are tenant-aware (see
        :meth:`KeepAlivePolicy.select_victims_tenant`)."""
        needed_mb = function.memory_mb
        tracer = self._tracer
        if tracer is not None and needed_mb > self.pool.free_mb + 1e-9:
            tracer.emit(
                "pool_pressure",
                now_s,
                needed_mb=needed_mb,
                free_mb=self.pool.free_mb,
                evictable_mb=self.pool.evictable_mb(),
                used_mb=self.pool.used_mb,
                capacity_mb=self.pool.capacity_mb,
            )
        if self._tenant_shared:
            victims = self.policy.select_victims(self.pool, needed_mb, now_s)
        else:
            victims = self.policy.select_victims_tenant(
                self.pool, needed_mb, now_s, function.tenant_id
            )
        if victims is None:
            return False
        for container in victims:
            self._evict(container, now_s, "pressure")
        return True

    def _sample_memory(self, now_s: float) -> None:
        if not self._track_timeline:
            return
        if now_s - self._last_sample_s >= self._timeline_interval_s:
            self.metrics.memory_timeline.append((now_s, self.pool.used_mb))
            self._last_sample_s = now_s

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def housekeeping(self, now_s: float) -> None:
        """Apply everything due by ``now_s`` that is not an arrival:
        release finished invocations back to the warm pool, expire
        containers past their policy deadline (draining the pool's
        incremental expiry heap), and materialize due prewarms.

        Every attempt runs these phases as its prologue (inlined, each
        behind an "anything due?" guard); the live serving mode
        (docs/live-serving.md) also calls this from a periodic timer so
        expirations drain during idle stretches with no arrivals."""
        self._release_finished(now_s)
        if self._policy_expires and self.policy.next_expiry_s(self.pool) <= now_s:
            self._expire_containers(now_s)
        if self._policy_prewarms and self.policy.next_prewarm_s() <= now_s:
            self._materialize_prewarms(now_s)

    def process_invocation(self, function: TraceFunction, now_s: float) -> str:
        """Handle one arrival; returns 'warm', 'cold', 'dropped',
        'retried', or 'shed' (the last two only with a fault spec).
        :meth:`_retry_attempt` re-enters here: one attempt at serving,
        no timeline advance, no ``invocation_arrived``."""
        attempt = self._retrying
        if self._events.next_s <= now_s and not attempt:
            self._advance_faults(now_s)
        faults = self._faults
        pool = self.pool
        policy = self.policy
        # :meth:`housekeeping`, phase by phase: nothing to release unless
        # an invocation has finished or a deferred deflation is pending.
        running = self._running
        if (running and running[0][0] <= now_s) or pool.deflation_target_mb is not None:
            self._release_finished(now_s)
        if self._policy_expires and policy.next_expiry_s(pool) <= now_s:
            self._expire_containers(now_s)
        if self._policy_prewarms and policy.next_prewarm_s() <= now_s:
            self._materialize_prewarms(now_s)
        policy.on_invocation(function, now_s, pool)
        tracer = self._tracer
        # ``None`` on tenant-less runs: metrics skip per-tenant
        # bookkeeping and events carry no ``tenant`` field, keeping
        # legacy traces byte-identical.
        tenant_id = function.tenant_id if self._tenants_active else None
        if tracer is not None:
            tenant_extra = {} if tenant_id is None else {"tenant": tenant_id}
            if attempt == 0:
                tracer.emit(
                    "invocation_arrived",
                    now_s,
                    function=function.name,
                    **tenant_extra,
                )

        if self._down:
            # Routed to (or retried on) a failed server. With a fault
            # spec the retry policy gets a say; without one (cluster
            # layers driving fail_server externally) shed outright.
            if faults is not None:
                return self._handle_failure(
                    function, now_s, attempt, "unavailable"
                )
            return self._shed(function, now_s, attempt, "unavailable")

        fault_kind = (
            faults.invocation_fault(function.name, now_s, attempt)
            if faults is not None
            else None
        )

        container = pool.idle_warm_container(function.name)
        if container is not None:
            duration = function.warm_time_s
            if container.prewarmed and container.invocation_count == 0:
                # First use of a prefetched container: without an
                # explicit init callback, part of the initialization
                # still runs now (Section 9).
                duration += (
                    (1.0 - self.prewarm_effectiveness) * function.init_time_s
                )
            if fault_kind is not None:
                return self._faulted_start(
                    container, function, now_s, attempt, fault_kind,
                    duration, cold=False,
                )
            container.start_invocation(now_s, duration)
            heapq.heappush(
                running,
                (container.busy_until_s, container.container_id, container),
            )
            policy.on_warm_start(container, now_s, pool)
            if tracer is not None:
                tracer.emit(
                    "warm_hit",
                    now_s,
                    function=function.name,
                    container_id=container.container_id,
                    duration_s=duration,
                    **tenant_extra,
                )
            if now_s >= self.warmup_s:
                self.metrics.record_warm(
                    function.name,
                    function.warm_time_s,
                    actual_time_s=duration,
                    tenant_id=tenant_id,
                )
            if self._track_timeline:
                self._sample_memory(now_s)
            return "warm"

        # A spawn failure strikes before any eviction work happens: the
        # sandbox never comes up, so no warm container is sacrificed.
        if faults is not None and faults.spawn_fails(
            function.name, now_s, attempt
        ):
            if tracer is not None:
                tracer.emit(
                    "fault_injected",
                    now_s,
                    function=function.name,
                    kind="spawn_failure",
                )
            if now_s >= self.warmup_s:
                self.metrics.record_fault("spawn_failure")
            return self._handle_failure(function, now_s, attempt, "retry_budget")

        if not self._evict_for(function, now_s):
            if faults is not None:
                # Graceful degradation: under a fault spec, memory
                # pressure feeds the same bounded retry/shed machinery
                # instead of the plain drop counter.
                return self._handle_failure(
                    function, now_s, attempt, "memory_pressure"
                )
            if tracer is not None:
                tracer.emit(
                    "dropped",
                    now_s,
                    function=function.name,
                    needed_mb=function.memory_mb,
                    **tenant_extra,
                )
            if now_s >= self.warmup_s:
                self.metrics.record_dropped(function.name, tenant_id=tenant_id)
            if self._track_timeline:
                self._sample_memory(now_s)
            return "dropped"

        container = Container(function, created_at_s=now_s)
        if fault_kind is not None:
            return self._faulted_start(
                container, function, now_s, attempt, fault_kind,
                function.cold_time_s, cold=True,
            )
        # Admit running: no busy notification, and no victim-index entry
        # until the container first idles (:meth:`ContainerPool.add`).
        container.start_invocation(now_s, function.cold_time_s)
        pool.add(container)
        heapq.heappush(
            running,
            (container.busy_until_s, container.container_id, container),
        )
        policy.on_cold_start(container, now_s, pool)
        if tracer is not None:
            tracer.emit(
                "cold_start",
                now_s,
                function=function.name,
                container_id=container.container_id,
                duration_s=function.cold_time_s,
                **tenant_extra,
            )
        if now_s >= self.warmup_s:
            self.metrics.record_cold(
                function.name,
                function.warm_time_s,
                function.cold_time_s,
                tenant_id=tenant_id,
            )
        if self._track_timeline:
            self._sample_memory(now_s)
        return "cold"

    # ------------------------------------------------------------------
    # Fault injection & recovery
    # ------------------------------------------------------------------

    def _faulted_start(
        self,
        container: Container,
        function: TraceFunction,
        now_s: float,
        attempt: int,
        kind: str,
        duration_s: float,
        cold: bool,
    ) -> str:
        """An attempt that got a container but crashed or timed out.

        The container still occupies memory for the invocation's
        duration (the work ran, then failed); a crash additionally
        dooms it so it is torn down at completion instead of going
        warm. The attempt is *not* counted as warm/cold served — its
        terminal outcome is the eventual retry or shed.
        """
        container.start_invocation(now_s, duration_s)
        if cold:  # as on the healthy cold path: start, then admit
            self.pool.add(container)
        heapq.heappush(
            self._running,
            (container.busy_until_s, container.container_id, container),
        )
        # The policy still observes the usage: the container genuinely
        # ran, and policies must keep scoring it while it exists.
        if cold:
            self.policy.on_cold_start(container, now_s, self.pool)
        else:
            self.policy.on_warm_start(container, now_s, self.pool)
        if kind == "crash" and not container.pinned:
            container.doomed = True
        if self._tracer is not None:
            self._tracer.emit(
                "fault_injected", now_s, function=function.name, kind=kind
            )
        if now_s >= self.warmup_s:
            self.metrics.record_fault(kind)
        return self._handle_failure(function, now_s, attempt, "retry_budget")

    def _shed(
        self, function: TraceFunction, now_s: float, attempt: int, reason: str
    ) -> str:
        if self._tracer is not None:
            self._tracer.emit(
                "invocation_shed",
                now_s,
                function=function.name,
                reason=reason,
                attempts=attempt + 1,
            )
        if now_s >= self.warmup_s:
            self.metrics.record_shed(reason)
        self._sample_memory(now_s)
        return "shed"

    def _handle_failure(
        self,
        function: TraceFunction,
        now_s: float,
        attempt: int,
        shed_reason: str,
    ) -> str:
        """Route a failed attempt to the retry queue or shed it.

        ``shed_reason`` is used if the retry policy declines (budget or
        cap exhausted); a full retry queue overrides it with
        ``queue_full`` — the admission-controlled load shedding that
        replaces unbounded queueing.
        """
        assert self._faults is not None and self._retry is not None
        if self._events.retries >= self._faults.spec.max_pending_retries:
            return self._shed(function, now_s, attempt, "queue_full")
        delay = self._retry.next_delay(function.name, attempt + 1, now_s)
        if delay is None:
            return self._shed(function, now_s, attempt, shed_reason)
        self._events.push(now_s + delay, partial(self._retry_attempt, attempt + 1, function), retry=True)
        if self._tracer is not None:
            self._tracer.emit(
                "invocation_retried",
                now_s,
                function=function.name,
                attempt=attempt + 1,
                delay_s=delay,
            )
        if now_s >= self.warmup_s:
            self.metrics.record_retry()
        self._sample_memory(now_s)
        return "retried"

    def _retry_attempt(self, attempt: int, function: TraceFunction, due_s: float) -> None:
        """Retry ``attempt`` of ``function``, fired off the timeline."""
        self._retrying = attempt
        self.process_invocation(function, due_s)
        self._retrying = 0

    def schedule(self, due_s: float, action: Callable[[float], None]) -> None:
        """Put a driver-timed event on the timeline: ``action(due_s)``
        runs at the top of the first arrival at or after ``due_s``
        (like a server event), after everything scheduled earlier for
        that instant. It may call this again (a periodic actor
        re-schedules itself) and resizes via :meth:`set_capacity`."""
        self._events.push(due_s, action)

    def _advance_faults(self, now_s: float) -> None:
        """Fire everything due by ``now_s`` (an arrival's advance)."""
        for at_s, action in self._events.pop_until(now_s):
            action(at_s)

    def fire_before(self, at_s: float) -> None:
        """Fire this server's own entries due before ``at_s``: what a
        cluster does before one of its entries touches the server."""
        for due_s, action in self._events.pop_before(at_s):
            action(due_s)

    def fail_server(self, now_s: float) -> None:
        """Take this server down: its warm pool is lost and running
        invocations are doomed (their containers die at completion).
        Pinned containers survive — the platform re-establishes
        provisioned concurrency out of band. Idempotent while down.
        """
        if self._down:
            return
        self._down = True
        self._down_since = now_s
        if now_s >= self.warmup_s:
            self.metrics.server_downs += 1
        if self._tracer is not None:
            self._tracer.emit("server_down", now_s, server=self._server_index)
        self._release_finished(now_s)
        for container in self.pool.idle_containers():
            self._evict(container, now_s, "failure")
        for container in self.pool.running_containers():
            if not container.pinned:
                container.doomed = True
        self._sample_memory(now_s)

    def recover_server(self, now_s: float) -> None:
        """Bring the server back (empty-cache restart). Idempotent."""
        if not self._down:
            return
        self._down = False
        downtime_s = max(0.0, now_s - self._down_since)
        if now_s >= self.warmup_s:
            self.metrics.downtime_s += downtime_s
        if self._tracer is not None:
            self._tracer.emit(
                "server_recovered",
                now_s,
                server=self._server_index,
                downtime_s=downtime_s,
            )

    @property
    def is_down(self) -> bool:
        """Whether the server is currently failed."""
        return self._down

    @property
    def outstanding(self) -> int:
        """Number of in-flight invocations (the server's queue depth,
        as seen by queue-aware balancers)."""
        return len(self._running)

    # ------------------------------------------------------------------
    # Harvested / spot capacity (docs/robustness.md)
    # ------------------------------------------------------------------

    def apply_server_event(
        self, at_s: float, kind: str, value: float
    ) -> None:
        """Dispatch one scheduled outage or capacity event (see
        :meth:`repro.faults.FaultModel.server_events`)."""
        if kind == "down":
            self.fail_server(at_s)
        elif kind == "up":
            self.recover_server(at_s)
        elif kind == "capacity":
            self.set_harvest_capacity(at_s, value)
        elif kind == "notice":
            self.notice_eviction(at_s, evict_at_s=value)
        elif kind == "evict":
            self.fail_server(at_s)
        else:  # "restore": a replacement server, cold and full-size
            self.recover_server(at_s)
            self.set_harvest_capacity(at_s, 1.0)

    def _note_deflations(
        self, victims: List[Container], now_s: float, target_mb: float
    ) -> None:
        """Policy cleanup + observability for containers the pool just
        deflated away (they are already evicted)."""
        tracer = self._tracer
        for container in victims:
            self.policy.on_evict(container, now_s, self.pool, pressure=True)
            if tracer is not None:
                tracer.emit(
                    "container_deflated",
                    now_s,
                    function=container.function.name,
                    container_id=container.container_id,
                    memory_mb=container.memory_mb,
                    target_mb=target_mb,
                )
            if now_s >= self.warmup_s:
                self.metrics.deflations += 1
        if victims:
            self._sample_memory(now_s)

    def set_capacity(self, now_s: float, target_mb: float) -> List[Container]:
        """Resize this server to ``target_mb``: the one capacity seam
        (harvest steps, the §5.2 controller).

        The graceful path for time-varying resources: a shrink evicts
        idle containers in the policy's victim order via
        :meth:`ContainerPool.deflate_to` and defers whatever busy
        containers still hold (freed as they finish —
        :meth:`_release_finished` resumes the deflation); growth
        applies immediately. Emits ``capacity_shrunk`` /
        ``capacity_grown`` and keeps the matching counters. Returns the
        containers deflated away now, for callers that price it.
        """
        target = float(target_mb)
        old = self.pool.capacity_mb
        victims = self.pool.deflate_to(
            target, self.policy.victim_order(self.pool, now_s)
        )
        self._note_deflations(victims, now_s, target)
        slack = 1e-9 * max(old, target)
        if target < old - slack:
            if now_s >= self.warmup_s:
                self.metrics.capacity_shrinks += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "capacity_shrunk",
                    now_s,
                    server=self._server_index,
                    old_mb=old,
                    new_mb=target,
                    deferred_mb=self.pool.deflation_deferred_mb,
                )
        elif target > old + slack:
            if now_s >= self.warmup_s:
                self.metrics.capacity_grows += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "capacity_grown",
                    now_s,
                    server=self._server_index,
                    old_mb=old,
                    new_mb=target,
                )
        return victims

    def set_harvest_capacity(self, now_s: float, frac: float) -> None:
        """Resize this server to ``frac`` of its nominal capacity (the
        provisioned size, never the previous, possibly deferral-clamped
        one). Cluster layers may call this directly to drive harvest
        timelines centrally."""
        self.set_capacity(now_s, frac * self._nominal_capacity_mb)

    def notice_eviction(self, now_s: float, evict_at_s: float) -> None:
        """Record a spot-eviction notice for this server.

        The server keeps serving until the eviction lands (the cluster
        layer stops routing *new* work here — see
        ``LoadBalancer.mark_draining``); the notice itself is pure
        observability plus a counter.
        """
        if now_s >= self.warmup_s:
            self.metrics.eviction_notices += 1
        if self._tracer is not None:
            self._tracer.emit(
                "eviction_notice",
                now_s,
                server=self._server_index,
                evict_at_s=evict_at_s,
                notice_s=max(0.0, evict_at_s - now_s),
            )

    def drain_retries(self) -> None:
        """The timeline past the last arrival (:meth:`EventQueue.merge`'s
        tail): a terminal outcome for every pending retry. Called by
        :meth:`finalize`; cluster drivers call it once arrivals stop."""
        events = self._events
        if events.retries:  # a fault-free run starts no merge
            for __ in events.merge(()):
                events.fire()

    def run(self) -> SimulationResult:
        """Replay the whole trace and return the collected metrics.

        The one arrival loop: every trace form (a trace's columns, a
        stream's chunks) hands over ``(time_s, function)`` pairs through its
        ``arrivals()``, so nothing here depends on the representation.

        Besides the paper's counters this also records throughput
        observability: the wall-clock time of the replay and (derived)
        invocations simulated per second, so sweep harnesses can spot
        hot-path regressions per cell. When timeline tracking is on, a
        closing ``(trace_end, used_mb)`` sample is appended so the
        tail interval after the last periodic sample is weighted in
        :meth:`SimulationMetrics.mean_memory_mb` instead of silently
        dropped.
        """
        started = wall_clock_s()
        clock = self.clock
        end_s = 0.0
        for time_s, function in self.trace.arrivals():
            # Timestamps flow through the SimClock (traces are sorted,
            # so advance_to hands each arrival time back exactly —
            # byte-identical to passing the arrival time directly).
            end_s = clock.advance_to(time_s)
            self.process_invocation(function, end_s)
        return self.finalize(end_s, started)

    def finalize(self, end_s: float, started_wall_s: float) -> SimulationResult:
        """Post-replay epilogue shared by :meth:`run` and external
        arrival drivers: drain pending retries, close the memory
        timeline, stamp the wall clock, run the sanitizer's
        trace/metrics counter-equality check, and package the result.
        ``end_s`` is the time of the last processed arrival (0.0 for an
        empty replay)."""
        self.drain_retries()  # a terminal outcome for every pending retry
        if self._track_timeline and end_s > self._last_sample_s:
            self.metrics.memory_timeline.append((end_s, self.pool.used_mb))
            self._last_sample_s = end_s
        self.metrics.wall_time_s = wall_clock_s() - started_wall_s
        if self._sanitize_report is not None:
            # Sanitizer: counters rebuilt from the event stream must
            # equal the aggregate metrics (raises SanitizeError).
            check_counter_equality(
                self._sanitize_report.report, self.metrics.counters()
            )
            check_tenant_counter_equality(
                self._sanitize_report.report, self.metrics.tenant_counters()
            )
        return SimulationResult(
            trace_name=self._trace_name,
            policy_name=self.policy.name,
            memory_mb=self._nominal_capacity_mb,  # provisioned, not the last resize
            metrics=self.metrics,
        )


def _exact_kernels(
    trace: Trace, policy: KeepAlivePolicy, memory_mb: float, config: RunConfig,
    tracer: Optional[Tracer],
) -> Tuple[str, ...]:
    """The exact kernels of :mod:`repro.sim.columnar` that may answer
    this run, in the order to ask them: ``"ttl"`` (``run_ttl_kernel``),
    ``"hist"`` (``run_hist_kernel``), ``"gd"`` (``run_gd_kernel``); empty
    when only the arrival loop may. O(functions), no NumPy: a run
    declined here has loaded nothing for a kernel.

    Every ``select_victims`` returns ``[]`` on a deficit ≤ 1e-9, so on a
    pool holding the whole registry (``<=``: at equality every deficit
    is 0) no eviction fires. An exact :class:`TTLPolicy` is then the TTL
    recurrence at its own ``ttl_s``. A policy overriding none of the
    three phase hooks the fast paths above test lets a container go only
    under pressure, so no policy state reaches an outcome: the
    recurrence at ``ttl_s = inf``. An exact :class:`HistogramPolicy` is
    replayed per arrival on its own histograms and plans. An exact
    :class:`GreedyDualPolicy` without tenant weights is replayed per
    arrival at any pool size: after the TTL kernel, which declines
    self-overlapping functions, or alone when the registry outgrows the
    pool. (:func:`simulate` resets a policy it is handed, so each kernel
    starts from a fresh one.) Under an enabled fault spec only
    the GD kernel may answer (it replays the server's fault timeline and
    retry queue; the others know nothing of faults); a disabled spec is
    no spec. Tracer, reserved concurrency, timeline, warm-up, tenants
    and the sanitizer (which wants every arrival) each leave the run to
    the loop.
    """
    kind = type(policy)
    gd = kind is GreedyDualPolicy and policy._tenant_weights is None
    spec = config.fault_spec
    if spec is not None and spec.enabled:
        if not gd:
            return ()
        kernels: Tuple[str, ...] = ("gd",)
    elif kind is HistogramPolicy:
        kernels = ("hist",)
    elif kind is TTLPolicy or (
        kind.expired_containers is KeepAlivePolicy.expired_containers
        and kind.due_prewarms is KeepAlivePolicy.due_prewarms
        and kind.should_retain is KeepAlivePolicy.should_retain
    ):
        kernels = ("ttl", "gd") if gd else ("ttl",)
    else:
        return ()
    if (
        tracer is not None or config.reserved_concurrency
        or config.track_memory_timeline or config.warmup_s > 0.0
        or config.tenant_mode != "shared" or sanitize_enabled()
    ):
        return ()
    footprint = 0.0
    for function in trace.functions_table.objects():
        if function.tenant_id:
            return ()
        footprint += function.memory_mb
    if footprint > memory_mb:
        return ("gd",) if gd else ()
    return kernels


def simulate(
    trace: Trace,
    policy: str | KeepAlivePolicy,
    memory_mb: float,
    config: Optional[RunConfig] = None,
    tracer: Optional[Tracer] = None,
    engine: str = "columnar",
    **kwargs,
) -> SimulationResult:
    """Convenience one-shot simulation.

    ``policy`` may be a short policy name (``"GD"``, ``"TTL"``, ...) or
    an already-constructed policy instance, which is reset first: every
    run starts from a fresh policy state. The simulator's own knobs
    are the fields of :class:`~repro.sim.config.RunConfig`, given as
    ``config`` and/or as individual keywords (``warmup_s=…``,
    ``fault_spec=…``, ...); any remaining keyword arguments configure
    the *policy* and are therefore only valid with a policy name.

    A run is answered by the first exact kernel :func:`_exact_kernels`
    names that does not decline: for a run memory pressure cannot reach,
    the vectorized TTL kernel (:func:`repro.sim.columnar.run_ttl_kernel`)
    or the per-arrival HIST kernel
    (:func:`repro.sim.columnar.run_hist_kernel`); for a plain GD
    at any pool size and under any fault spec, the per-arrival GD kernel
    (:func:`repro.sim.columnar.run_gd_kernel`, after the TTL kernel when
    the registry fits and no spec is enabled). Every other run, a run its
    kernels decline, and every run with ``engine="object"`` (the
    reference the differential suite holds the kernels to) takes the
    arrival loop of
    :meth:`KeepAliveSimulator.run`. Which one ran is reported as
    :attr:`SimulationResult.path`.

    >>> from repro.traces.synth import skewed_frequency_trace
    >>> result = simulate(skewed_frequency_trace(seed=1), "GD", 4096)
    >>> result.metrics.served > 0
    True
    """
    if not memory_mb > 0:
        # Written so NaN fails too: the kernels' routing and the loop
        # would each read a NaN pool differently.
        raise ValueError(f"capacity must be positive, got {memory_mb}")
    config, policy_kwargs = RunConfig.split(kwargs, config)
    if isinstance(policy, str):
        policy = create_policy(policy, **policy_kwargs)
    elif policy_kwargs:
        raise ValueError("policy_kwargs are only valid with a policy name")
    else:
        policy.reset()
    if engine not in ("object", "columnar"):
        raise ValueError(
            f"engine must be 'object' or 'columnar', got {engine!r}"
        )
    kernels = _exact_kernels(trace, policy, memory_mb, config, tracer) if engine == "columnar" else ()
    if kernels:
        # Imported here: repro.sim.columnar imports this module.
        from repro.sim.columnar import run_gd_kernel, run_hist_kernel, run_ttl_kernel

        for kernel in kernels:
            if kernel == "ttl":
                ttl_s = policy.ttl_s if type(policy) is TTLPolicy else inf
                result = run_ttl_kernel(trace, ttl_s, float(memory_mb), policy.name)
            elif kernel == "hist":
                result = run_hist_kernel(
                    trace, policy, float(memory_mb), config.prewarm_effectiveness
                )
            else:
                result = run_gd_kernel(
                    trace, policy, float(memory_mb), config.fault_spec, config.server_index
                )
            if result is not None:
                return result
    return KeepAliveSimulator(
        trace, policy, memory_mb, config, tracer=tracer
    ).run()
