"""Colocated-application memory pressure (Section 9's discussion).

FaaS servers often share memory with long-running containers and VMs;
the keep-alive cache is whatever the colocated tenants leave. Section
9 argues the provisioning machinery gives a principled way to examine
that tradeoff: the hit-ratio curve *is* the function-performance vs
memory-consumption frontier.

This module makes the tradeoff executable:

* :class:`ColocatedDemand` — a piecewise-constant timeline of memory
  a colocated application holds;
* :class:`ColocationSimulation` — replays a function workload while
  the keep-alive cache tracks the complement of the colocated demand,
  resized through the simulator's capacity seam and priced by cascade
  deflation;
* :func:`tradeoff_curve` — the static frontier: function cold-start
  rate as a function of the memory ceded to colocated tenants, next to
  the hit-ratio-curve prediction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.obs.tracer import Tracer
from repro.provisioning.deflation import DeflationEngine, DeflationReport
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.sim.metrics import SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace

__all__ = ["ColocatedDemand", "ColocationSimulation", "tradeoff_curve"]


class ColocatedDemand:
    """Piecewise-constant memory demand of colocated applications."""

    def __init__(self, steps: Sequence[Tuple[float, float]]) -> None:
        """``steps`` are (start_time_s, demand_mb) pairs; the demand
        holds from each start time until the next. Must begin at or
        before time zero."""
        if not steps:
            raise ValueError("need at least one demand step")
        ordered = sorted(steps)
        if ordered[0][0] > 0:
            raise ValueError("demand must be defined from time zero")
        times = [t for t, __ in ordered]
        if len(set(times)) != len(times):
            raise ValueError("duplicate step times")
        if any(mb < 0 for __, mb in ordered):
            raise ValueError("demand must be non-negative")
        self._times = times
        self._demands = [mb for __, mb in ordered]

    def at(self, time_s: float) -> float:
        """The colocated demand at ``time_s``."""
        index = bisect.bisect_right(self._times, time_s) - 1
        if index < 0:
            return self._demands[0]
        return self._demands[index]

    @property
    def change_times(self) -> List[float]:
        return list(self._times)

    @property
    def peak_mb(self) -> float:
        return max(self._demands)


@dataclass
class ColocationResult:
    """Outcome of a colocation-aware replay."""

    metrics: SimulationMetrics
    deflations: List[DeflationReport] = field(default_factory=list)
    #: (time, cache capacity) at every demand change.
    capacity_timeline: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def total_deflation_latency_s(self) -> float:
        return sum(r.latency_s for r in self.deflations)


class ColocationSimulation:
    """Replay a trace while colocated demand squeezes the cache."""

    def __init__(
        self,
        trace: Trace,
        demand: ColocatedDemand,
        server_memory_mb: float,
        policy: str | KeepAlivePolicy = "GD",
        min_cache_mb: float = 128.0,
        deflation_engine: DeflationEngine | None = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``trace`` may be any form ``arrivals()`` serves; ``tracer``
        is the simulator's own."""
        if server_memory_mb <= demand.peak_mb + min_cache_mb:
            raise ValueError(
                "server memory must exceed peak colocated demand plus "
                "the minimum cache size"
            )
        if isinstance(policy, str):
            policy = create_policy(policy)
        self.trace = trace
        self.demand = demand
        self.server_memory_mb = server_memory_mb
        self.policy = policy
        self.min_cache_mb = min_cache_mb
        self.engine = deflation_engine or DeflationEngine()
        self.simulator = KeepAliveSimulator(
            trace, policy, self._cache_target_mb(0.0), tracer=tracer
        )

    def _cache_target_mb(self, now_s: float) -> float:
        return max(
            self.server_memory_mb - self.demand.at(now_s), self.min_cache_mb
        )

    def run(self) -> ColocationResult:
        """The simulator's one replay loop, with every demand change a
        resize event on its timeline."""
        simulator = self.simulator
        pool = simulator.pool
        result = ColocationResult(metrics=simulator.metrics)
        result.capacity_timeline.append((0.0, pool.capacity_mb))

        def resize(change_time: float) -> None:
            target = self._cache_target_mb(change_time)
            old_mb = pool.capacity_mb
            if abs(target - old_mb) > 1e-9:
                victims = simulator.set_capacity(change_time, target)
                result.deflations.append(
                    self.engine.report(target, old_mb, pool.capacity_mb, victims)
                )
                result.capacity_timeline.append((change_time, pool.capacity_mb))

        for change_time in self.demand.change_times:
            if change_time > 0:
                simulator.schedule(change_time, resize)
        simulator.run()
        return result


def tradeoff_curve(
    trace: Trace,
    server_memory_mb: float,
    colocated_levels_mb: Sequence[float],
    policy: str = "GD",
) -> List[Tuple[float, float, float]]:
    """The §9 frontier: colocated demand vs function performance.

    Returns (colocated_mb, simulated cold-start ratio, hit-ratio-curve
    predicted miss ratio) triples — the second and third columns are
    the measured and modelled sides of the same tradeoff.
    """
    curve = HitRatioCurve.from_distances(reuse_distances(trace))
    rows: List[Tuple[float, float, float]] = []
    for colocated_mb in colocated_levels_mb:
        cache_mb = server_memory_mb - colocated_mb
        if cache_mb <= 0:
            raise ValueError(
                f"colocated demand {colocated_mb} exceeds the server"
            )
        sim = KeepAliveSimulator(trace, create_policy(policy), cache_mb)
        metrics = sim.run().metrics
        rows.append(
            (colocated_mb, metrics.cold_start_ratio, curve.miss_ratio(cache_mb))
        )
    return rows
