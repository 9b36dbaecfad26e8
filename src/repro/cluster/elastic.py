"""Elastic (horizontal) cluster scaling with keep-alive awareness.

The paper's introduction credits FaaS with "near-infinite horizontal
scaling"; its Section 5 scales one server vertically and leaves the
cluster dimension to classical techniques. This module composes the
two: a cluster of keep-alive servers whose *count* follows the load
(AutoScale-style reactive scaling with a scale-down hold, via
:class:`~repro.provisioning.cpu_autoscale.ReactiveCpuScaler`), routed
by consistent hashing so that scaling events disturb as little
function-to-server affinity as possible.

Keep-alive interaction, which is the interesting part: decommissioning
a server discards its warm containers, so every scale-down buys
efficiency at the price of a cold-start burst when its functions
re-hash — the cluster-level version of the paper's
latency-vs-utilization tradeoff.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable, List, Optional, Set, Tuple

from repro.cluster.simulation import MemberCounters, _server_level_spec, _shed_unavailable
from repro.core.policies.base import create_policy
from repro.domains import check_args, int_at_least, positive
from repro.faults import FaultModel, FaultSpec
from repro.obs.tracer import Tracer, active_tracer
from repro.provisioning.cpu_autoscale import ReactiveCpuScaler
from repro.sim.config import RunConfig
from repro.sim.events import EventQueue
from repro.sim.metrics import SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace

__all__ = ["ElasticClusterResult", "ElasticClusterSimulation"]


@dataclass
class ElasticClusterResult(MemberCounters):
    """Aggregate outcome plus the scaling timeline."""

    #: Metrics of every server that ran, retired and evicted ones
    #: included; the lifecycle counters are their sum.
    per_server: List[SimulationMetrics] = field(default_factory=list)
    #: (time, active server count) at each control period.
    server_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Integral of active servers over time, in server-seconds.
    server_seconds: float = 0.0
    scale_ups: int = 0
    scale_downs: int = 0
    #: Invocations shed at the cluster level: every active ring
    #: position was failed when they arrived. (``sheds`` counts the
    #: per-server budget/queue/pressure sheds only.)
    shed_unavailable: int = 0
    #: Cold replacement servers spun up after spot evictions.
    replacements: int = 0

    @property
    def mean_servers(self) -> float:
        if not self.server_timeline:
            return 0.0
        return sum(n for __, n in self.server_timeline) / len(
            self.server_timeline
        )


class ElasticClusterSimulation:
    """Replay a trace on a cluster whose size tracks the load."""

    #: ``max_servers`` is at least ``min_servers``; the scaler's knobs
    #: keep its domains. ``inf``: servers with unbounded pools, as
    #: :func:`~repro.sim.scheduler.simulate` takes.
    domains = {
        "server_memory_mb": positive.or_inf, "min_servers": int_at_least(1),
        "max_servers": int_at_least(1), "requests_per_server_per_s": positive,
        "target_utilization": ReactiveCpuScaler.domains["target_utilization"],
        "control_period_s": positive,
        "scale_down_hold_s": ReactiveCpuScaler.domains["scale_down_hold_s"],
        "seed": int_at_least(0),
    }

    def __init__(
        self,
        trace: Trace,
        server_memory_mb: float = 8192.0,
        policy: str = "GD",
        min_servers: int = 1,
        max_servers: int = 16,
        requests_per_server_per_s: float = 50.0,
        target_utilization: float = 0.7,
        control_period_s: float = 600.0,
        scale_down_hold_s: float = 1200.0,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        check_args(self.domains, locals())
        if max_servers < min_servers:
            raise ValueError(
                f"max_servers must be >= min_servers, got {max_servers} < {min_servers}"
            )
        self.trace = trace
        self.server_memory_mb = server_memory_mb
        self.policy_name = policy.upper()
        self.min_servers = min_servers
        self.max_servers = max_servers
        self.requests_per_server_per_s = requests_per_server_per_s
        self.control_period_s = control_period_s
        self._seed = seed
        self._tracer = active_tracer(tracer)
        # One "core" in the scaler = one server; offered load is the
        # arrival rate over the per-server request capacity.
        self._scaler = ReactiveCpuScaler(
            target_utilization=target_utilization,
            min_cores=min_servers,
            max_cores=max_servers,
            scale_down_hold_s=scale_down_hold_s,
            initial_cores=min_servers,
        )
        # Whole-server outages are driven at this level over the fixed
        # ring positions; member simulators only see invocation-level
        # faults (see repro.cluster.simulation._server_level_spec).
        self._fault_spec = (
            fault_spec if fault_spec is not None and fault_spec.enabled
            else None
        )
        self._server_spec = _server_level_spec(self._fault_spec)
        # Ring positions currently failed; routing and scale-up skip
        # them until the scheduled recovery.
        self._failed: Set[int] = set()
        # Ring positions under a spot eviction notice: excluded from
        # new placements (and from scale-up) while their server
        # finishes its in-flight work.
        self._draining: Set[int] = set()
        # Slot i holds the simulator of ring position i, or None when
        # the position is inactive.
        self._servers: List[Optional[KeepAliveSimulator]] = [
            None
        ] * max_servers
        # Every server ever started: the result sums their metrics, and
        # each runs out its retries once arrivals stop (nothing touches
        # a retired or evicted one again, so its retries can wait).
        self._started: List[KeepAliveSimulator] = []
        self._container_ids = count()  # shared by every member, replacements too
        for i in range(min_servers):
            self._servers[i] = self._new_server(i)
        self._active = min_servers

    def _new_server(self, ring_index: int) -> KeepAliveSimulator:
        server = KeepAliveSimulator(
            self.trace,
            create_policy(self.policy_name),
            self.server_memory_mb,
            RunConfig(
                fault_spec=self._server_spec, server_index=ring_index
            ),
            tracer=(
                self._tracer.bind(server=ring_index)
                if self._tracer is not None
                else None
            ),
            container_ids=self._container_ids,
        )
        self._started.append(server)
        return server

    # ------------------------------------------------------------------
    # Routing: consistent hashing over the fixed ring of positions,
    # walking forward to the next active position.
    # ------------------------------------------------------------------

    def _ring_start(self, function_name: str) -> int:
        digest = hashlib.blake2b(
            function_name.encode("utf-8"),
            digest_size=8,
            salt=self._seed.to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "little") % self.max_servers

    def _route(self, function_name: str) -> Optional[KeepAliveSimulator]:
        """The next active, healthy, non-draining server on the ring,
        or ``None`` when every active position is currently failed or
        draining (the caller sheds the invocation as
        ``unavailable``)."""
        start = self._ring_start(function_name)
        for offset in range(self.max_servers):
            index = (start + offset) % self.max_servers
            server = self._servers[index]
            if (
                server is not None
                and index not in self._failed
                and index not in self._draining
            ):
                return server
        return None

    # ------------------------------------------------------------------
    # Scaling actuation
    # ------------------------------------------------------------------

    def _apply_scaling(self, desired: int, result: ElasticClusterResult) -> None:
        while self._active < desired:
            # New capacity never lands on a failed or draining (about
            # to be evicted) ring position.
            candidates = [
                i
                for i, s in enumerate(self._servers)
                if s is None
                and i not in self._failed
                and i not in self._draining
            ]
            if not candidates:
                break
            index = candidates[0]
            self._servers[index] = self._new_server(index)
            self._active += 1
            result.scale_ups += 1
        while self._active > desired and self._active > self.min_servers:
            # Decommission the highest-index active server; its warm
            # containers are lost (running ones finish off-record).
            index = max(
                i for i, s in enumerate(self._servers) if s is not None
            )
            self._servers[index] = None
            self._active -= 1
            result.scale_downs += 1

    def _apply_server_event(
        self,
        at_s: float,
        index: int,
        kind: str,
        value: float,
        result: ElasticClusterResult,
    ) -> None:
        """One scheduled event against a ring position: an outage
        transition (``down`` / ``up`` fail and recover the position,
        and its server if one is active) or a harvest/spot event.

        Unlike the fixed-size cluster, an elastic ring treats a spot
        eviction as *permanent loss of that instance*: the server is
        decommissioned (warm state gone) and a cold
        **replacement** spins up on the lowest free healthy ring
        position immediately, so harvested churn does not silently
        shrink the fleet below what the autoscaler asked for. The
        later "restore" merely frees the ring position for future
        scale-ups.

        An active server first fires its own entries due before
        ``at_s`` (its retries), as a fixed cluster's member does.
        """
        server = self._servers[index]
        if server is not None:
            server.fire_before(at_s)
        if kind == "down":
            self._failed.add(index)
            if server is not None:
                server.fail_server(at_s)
        elif kind == "up":
            self._failed.discard(index)
            if server is not None:
                server.recover_server(at_s)
        elif kind == "capacity":
            if server is not None and index not in self._failed:
                server.set_harvest_capacity(at_s, value)
        elif kind == "notice":
            # Pre-drain: stop routing new work at this position; the
            # server keeps finishing its own in-flight invocations
            # until the eviction lands.
            self._draining.add(index)
            if server is not None and index not in self._failed:
                server.notice_eviction(at_s, evict_at_s=value)
        elif kind == "evict":
            self._draining.discard(index)
            self._failed.add(index)
            if server is not None:
                # The instance is gone: doom in-flight work (its retries
                # meet a failed server), release the slot.
                server.fail_server(at_s)
                self._servers[index] = None
                self._active -= 1
                self._spin_replacement(at_s, result)
        else:  # "restore": the position is usable again, nothing more —
            # the replacement already took over the capacity.
            self._failed.discard(index)
            self._draining.discard(index)

    def _spin_replacement(
        self, at_s: float, result: ElasticClusterResult
    ) -> None:
        """Cold replacement for an evicted spot instance, on the lowest
        free healthy ring position (no-op when the ring is full)."""
        for i, slot in enumerate(self._servers):
            if (
                slot is None
                and i not in self._failed
                and i not in self._draining
            ):
                self._servers[i] = self._new_server(i)
                self._active += 1
                result.replacements += 1
                return

    # ------------------------------------------------------------------

    def run(self) -> ElasticClusterResult:
        result = ElasticClusterResult()
        result.server_timeline.append((0.0, self._active))
        period = self.control_period_s
        # One timeline for everything timed at the cluster level, as
        # ``action(at_s)`` in (time, insertion) order: the scaler's
        # period ticks (pushed first, so a tick precedes a server event
        # of the same instant), then the outage / harvest / spot
        # schedule over the ring positions.
        events: EventQueue[Callable[[float], None]] = EventQueue()
        arrivals_in_period = 0

        def tick(at_s: float) -> None:
            nonlocal arrivals_in_period
            rate = arrivals_in_period / period
            arrivals_in_period = 0
            decision = self._scaler.step(
                at_s,
                arrival_rate=rate / self.requests_per_server_per_s,
                mean_service_time_s=1.0,
            )
            if self._tracer is not None:
                self._tracer.emit(
                    "autoscale_decision",
                    at_s,
                    desired_servers=decision.cores,
                    active_servers=self._active,
                    arrival_rate=rate,
                )
            self._apply_scaling(decision.cores, result)
            result.server_timeline.append((at_s, self._active))
            result.server_seconds += self._active * period

        tick_s = period
        while tick_s <= self.trace.last_arrival_s:
            events.push(tick_s, tick)
            tick_s += period
        if self._fault_spec is not None:
            for at_s, index, kind, value in FaultModel(self._fault_spec).server_events(
                range(self.max_servers), self.trace.last_arrival_s
            ):
                events.push(at_s, partial(
                    self._apply_server_event, index=index, kind=kind, value=value, result=result
                ))
        for time_s, function in events.merge(self.trace.arrivals()):
            if function is None:  # a tick or a server event is due
                events.fire()
                continue
            arrivals_in_period += 1
            server = self._route(function.name)
            if server is None:  # every active ring position is down
                _shed_unavailable(result, self._tracer, function.name, time_s)
                continue
            server.process_invocation(function, time_s)
        for server in self._started:  # past the last arrival nothing routes
            server.drain_retries()
        result.per_server = [server.metrics for server in self._started]
        return result
