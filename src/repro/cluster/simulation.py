"""Cluster keep-alive simulation: N servers behind a load balancer.

Measures the Section 9 claim end to end: route a workload across a
cluster of keep-alive servers (each an independent
:class:`~repro.sim.scheduler.KeepAliveSimulator`) under different
load-balancing policies and compare the aggregate cold-start and
execution-time metrics. Stateful (affinity) routing concentrates each
function's temporal locality on few servers and should beat random
routing at equal total memory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cluster.loadbalancer import (
    LoadBalancer,
    NoHealthyServers,
    create_balancer,
)
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.faults import FaultModel, FaultSpec
from repro.obs.counters import counter_names, sum_counters
from repro.obs.tracer import Tracer, active_tracer
from repro.sim.config import RunConfig
from repro.sim.events import EventQueue
from repro.sim.metrics import SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace

__all__ = ["ClusterResult", "ClusterSimulator", "MemberCounters"]


def _server_level_spec(spec: Optional[FaultSpec]) -> Optional[FaultSpec]:
    """The per-server spec a cluster hands to its member simulators.

    Whole-server outages — and likewise harvest/spot capacity events,
    which must change the balancer's routing view and the server's
    pool in lockstep — are owned by the *cluster*, so the server-level
    copy keeps only the invocation-level rates and retry knobs. Returns
    ``None`` when nothing remains enabled.
    """
    if spec is None or not spec.enabled:
        return None
    stripped = dataclasses.replace(
        spec,
        server_mtbf_s=0.0,
        server_downtimes=(),
        capacity_steps=(),
        harvest_interval_s=0.0,
        spot_mtbf_s=0.0,
    )
    return stripped if stripped.enabled else None


class MemberCounters:
    """The lifecycle counters of a cluster result: the table-driven sum
    over ``per_server``, the metrics of every member server. Each
    counter also reads as an attribute (``result.cold_starts``)."""

    per_server: List[SimulationMetrics]

    def counters(self) -> Dict[str, int]:
        """Every counter of :data:`repro.obs.counters.COUNTERS`, summed
        over the member servers' ``metrics.counters()``."""
        return sum_counters(m.counters() for m in self.per_server)

    def __getattr__(self, name: str) -> int:
        if name in counter_names():
            return self.counters()[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def served(self) -> int:
        return self.warm_starts + self.cold_starts

    @property
    def cold_start_pct(self) -> float:
        return 100.0 * self.cold_starts / self.served if self.served else 0.0


@dataclass
class ClusterResult(MemberCounters):
    """Aggregate and per-server outcomes of one cluster run."""

    balancer_name: str
    policy_name: str
    per_server: List[SimulationMetrics] = field(default_factory=list)
    #: invocations routed to each server
    routed: List[int] = field(default_factory=list)
    #: Invocations shed *at the cluster level* because no healthy
    #: server existed when they arrived. These belong to no server, so
    #: they appear here rather than in any per-server metrics.
    shed_unavailable: int = 0

    @property
    def sheds(self) -> int:
        """All shed invocations: per-server sheds (``counters()``'s
        ``sheds``) plus cluster-level ``shed_unavailable`` ones."""
        return self.counters()["sheds"] + self.shed_unavailable

    @property
    def exec_time_increase_pct(self) -> float:
        ideal = sum(m.ideal_exec_time_s for m in self.per_server)
        actual = sum(m.actual_exec_time_s for m in self.per_server)
        if ideal <= 0:
            return 0.0
        return 100.0 * (actual - ideal) / ideal

    def load_imbalance(self) -> float:
        """Max-over-mean of routed request counts (1.0 = perfect)."""
        if not self.routed or sum(self.routed) == 0:
            return 1.0
        mean = sum(self.routed) / len(self.routed)
        return max(self.routed) / mean if mean else 1.0


class ClusterSimulator:
    """Replay one trace across a cluster of keep-alive servers."""

    def __init__(
        self,
        trace: Trace,
        balancer: str | LoadBalancer,
        num_servers: int = 4,
        server_memory_mb: float = 8192.0,
        policy: str = "GD",
        balancer_kwargs: Dict | None = None,
        tracer: Optional[Tracer] = None,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        if isinstance(balancer, str):
            kwargs = dict(balancer_kwargs or {})
            if balancer == "min-worker-set":
                # The packing watermark is a fraction of *this*
                # cluster's server size unless the caller overrode it.
                kwargs.setdefault("server_capacity_mb", server_memory_mb)
            balancer = create_balancer(balancer, num_servers, **kwargs)
        elif balancer.num_servers != num_servers:
            raise ValueError(
                "balancer server count does not match the cluster size"
            )
        self.trace = trace
        self.balancer = balancer
        self.policy_name = policy.upper()
        # Each server's lifecycle events carry its index; routing
        # decisions are emitted by the balancer itself.
        self._tracer = active_tracer(tracer)
        # Whole-server outages are driven here — the balancer's health
        # view and the server's state must change together — while
        # invocation-level faults run inside each server simulator.
        self._fault_spec = (
            fault_spec if fault_spec is not None and fault_spec.enabled
            else None
        )
        # Outage transitions and harvest/spot capacity events of every
        # server, as ``action(at_s)`` in ``FaultModel.server_events`` order.
        self._events: EventQueue[Callable[[float], None]] = EventQueue()
        if self._fault_spec is not None:
            for at_s, index, kind, value in FaultModel(self._fault_spec).server_events(
                range(num_servers), trace.last_arrival_s
            ):
                self._events.push(
                    at_s, partial(self._apply_server_event, index=index, kind=kind, value=value)
                )
        server_spec = _server_level_spec(self._fault_spec)
        self.servers = [
            KeepAliveSimulator(
                trace,
                create_policy(policy),
                server_memory_mb,
                RunConfig(fault_spec=server_spec, server_index=i),
                tracer=(
                    self._tracer.bind(server=i)
                    if self._tracer is not None
                    else None
                ),
            )
            for i in range(num_servers)
        ]

    def _apply_server_event(
        self, at_s: float, index: int, kind: str, value: float
    ) -> None:
        """Apply one scheduled event to a server and the balancer.

        * ``down`` / ``up`` — a whole-server outage starts / ends: the
          server fails or recovers and leaves or rejoins the routing
          set.
        * ``capacity`` — resize the server's pool (graceful deflation
          on shrink); routing is unaffected, the balancer's load signal
          sees the smaller pool on the next decision.
        * ``notice`` — pre-drain: the server stops receiving new
          placements (it finishes its own in-flight work) while it
          keeps serving until the eviction lands.
        * ``evict`` — the spot instance disappears: fail the server
          and route around it.
        * ``restore`` — a *replacement* server joins: cold pools, full
          nominal capacity, back in the routing set.
        """
        server = self.servers[index]
        if kind == "down":
            server.fail_server(at_s)
            self.balancer.mark_down(index)
        elif kind == "up":
            server.recover_server(at_s)
            self.balancer.mark_up(index)
        elif kind == "capacity":
            server.set_harvest_capacity(at_s, value)
        elif kind == "notice":
            self.balancer.mark_draining(index)
            server.notice_eviction(at_s, evict_at_s=value)
        elif kind == "evict":
            server.fail_server(at_s)
            self.balancer.mark_down(index)
        else:  # "restore"
            server.recover_server(at_s)
            self.balancer.mark_up(index)  # clears draining too
            server.set_harvest_capacity(at_s, 1.0)

    def _shed_unavailable(
        self, result: ClusterResult, function_name: str, now_s: float
    ) -> None:
        result.shed_unavailable += 1
        if self._tracer is not None:
            self._tracer.emit(
                "invocation_shed",
                now_s,
                function=function_name,
                reason="unavailable",
                attempts=1,
            )

    def run(self) -> ClusterResult:
        routed = [0] * len(self.servers)
        tracer = self._tracer
        result = ClusterResult(
            balancer_name=self.balancer.name,
            policy_name=self.policy_name,
            per_server=[server.metrics for server in self.servers],
            routed=routed,
        )
        queue_signal = self.balancer.load_signal == "queue"
        events = self._events
        for time_s, function in self.trace.arrivals():
            # Everything scheduled up to this arrival.
            if events.next_s <= time_s:
                for at_s, action in events.pop_until(time_s):
                    action(at_s)
            if queue_signal:
                used = [float(server.outstanding) for server in self.servers]
            else:
                used = [server.pool.used_mb for server in self.servers]
            try:
                if tracer is None:
                    index = self.balancer.route(function.name, used)
                else:
                    index = self.balancer.route_traced(
                        function.name, used, time_s, tracer
                    )
            except NoHealthyServers:
                self._shed_unavailable(result, function.name, time_s)
                continue
            if not 0 <= index < len(self.servers):
                raise ValueError(
                    f"balancer routed to invalid server {index}"
                )
            routed[index] += 1
            self.servers[index].process_invocation(function, time_s)
        for server in self.servers:
            server.drain_retries()
        return result
