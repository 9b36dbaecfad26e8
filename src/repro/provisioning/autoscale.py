"""End-to-end dynamic vertical scaling (the Figure 9 experiment).

Couples the trace-driven keep-alive simulator with the proportional
controller: the simulator replays the trace, and every control period
(10 minutes in the paper) the controller — a periodic event on the
simulator's timeline — observes the arrival and cold-start counts,
decides a new cache size through the hit-ratio curve, and resizes the
live container pool through the simulator's capacity seam; the
cascade-deflation engine prices each actuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.obs.tracer import Tracer
from repro.provisioning.controller import ControllerDecision, ProportionalController
from repro.provisioning.deflation import DeflationEngine, DeflationReport
from repro.sim.config import RunConfig
from repro.sim.metrics import SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace

__all__ = ["AutoscaleResult", "AutoscaledSimulation"]


@dataclass
class AutoscaleResult:
    """Everything Figure 9 plots, plus the underlying metrics."""

    trace_name: str
    policy_name: str
    target_miss_speed: float
    decisions: List[ControllerDecision] = field(default_factory=list)
    deflations: List[DeflationReport] = field(default_factory=list)
    metrics: SimulationMetrics = field(default_factory=SimulationMetrics)

    @property
    def mean_cache_size_mb(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(d.cache_size_mb for d in self.decisions) / len(self.decisions)

    @property
    def max_cache_size_mb(self) -> float:
        if not self.decisions:
            return 0.0
        return max(d.cache_size_mb for d in self.decisions)

    def size_timeline(self) -> List[Tuple[float, float]]:
        return [(d.time_s, d.cache_size_mb) for d in self.decisions]

    def miss_speed_timeline(self) -> List[Tuple[float, float]]:
        return [(d.time_s, d.miss_speed) for d in self.decisions]

    def savings_vs_static(self, static_size_mb: float) -> float:
        """Fractional average-size reduction vs a static provision."""
        if static_size_mb <= 0:
            raise ValueError("static size must be positive")
        return 1.0 - self.mean_cache_size_mb / static_size_mb


class AutoscaledSimulation:
    """Replay a trace with periodic controller-driven resizing."""

    def __init__(
        self,
        trace: Trace,
        controller: ProportionalController,
        policy: str | KeepAlivePolicy = "GD",
        deflation_engine: DeflationEngine | None = None,
        config: Optional[RunConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``trace`` may be any form ``arrivals()`` serves; ``config``
        and ``tracer`` are the simulator's own (tenant modes, the event
        stream ``trace-report --check`` reads). The controller reads the
        simulator's counters, which skip warm-up arrivals and count a
        retried one when it lands, so such a ``config`` is refused."""
        if config is not None and (config.warmup_s > 0 or config.fault_spec is not None):
            raise ValueError("an autoscaled run takes no warmup_s or fault_spec")
        if isinstance(policy, str):
            policy = create_policy(policy)
        self.trace = trace
        self.controller = controller
        self.policy = policy
        self.engine = deflation_engine or DeflationEngine()
        self.simulator = KeepAliveSimulator(
            trace, policy, controller.cache_size_mb, config, tracer=tracer
        )
        self._deflations: List[DeflationReport] = []
        # The controller observes deltas of the simulator's own counters.
        self._seen_arrivals = self._seen_colds = 0
        self._next_control_s = controller.control_period_s

    def run(self) -> AutoscaleResult:
        """The simulator's one replay loop, with the controller as a
        periodic event on its timeline."""
        self.simulator.schedule(self._next_control_s, self._control_tick)
        metrics = self.simulator.run().metrics
        # Final partial period, so short traces still record a decision
        # (after the epilogue, so past the sanitizer's end-of-run check).
        if metrics.total_requests > self._seen_arrivals:
            self._decide(self._next_control_s)
        return AutoscaleResult(
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            target_miss_speed=self.controller.target_miss_speed,
            decisions=self.controller.history,
            deflations=self._deflations,
            metrics=metrics,
        )

    def _control_tick(self, now_s: float) -> None:
        self._decide(now_s)
        self._next_control_s = now_s + self.controller.control_period_s
        self.simulator.schedule(self._next_control_s, self._control_tick)

    def _decide(self, now_s: float) -> None:
        """One control period: observe, decide, resize through the
        simulator's capacity seam (a shrink below what busy containers
        hold is deferred there, not clamped here)."""
        metrics = self.simulator.metrics
        arrivals, colds = metrics.total_requests, metrics.cold_starts
        decision = self.controller.step(
            now_s, arrivals - self._seen_arrivals, colds - self._seen_colds
        )
        self._seen_arrivals, self._seen_colds = arrivals, colds
        if decision.resized:
            pool = self.simulator.pool
            old_mb = pool.capacity_mb
            victims = self.simulator.set_capacity(now_s, decision.cache_size_mb)
            self._deflations.append(
                self.engine.report(decision.cache_size_mb, old_mb, pool.capacity_mb, victims)
            )
