"""Load-test helpers: vanilla OpenWhisk vs FaasCache comparisons.

The paper's empirical evaluation (Section 7.2, Figures 7 and 8) runs
the same workload against two systems and compares warm/cold/dropped
request counts and application latency:

* **vanilla OpenWhisk** — the 10-minute TTL keep-alive with LRU
  eviction under pressure, and
* **FaasCache** — the Greedy-Dual keep-alive with online-learned
  initialization costs and batched evictions.

These factories wire the right policy and pool settings into
:class:`~repro.openwhisk.invoker.SimulatedInvoker` so benchmarks and
examples stay one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.function import FunctionStatsTable
from repro.core.policies.ttl import TTLPolicy
from repro.openwhisk.containerpool import (
    DEFAULT_FREE_THRESHOLD_MB,
    OnlineGreedyDualPolicy,
)
from repro.openwhisk.invoker import InvokerConfig, InvokerResult, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.traces.model import Trace

__all__ = [
    "openwhisk_invoker",
    "faascache_invoker",
    "LoadTestComparison",
    "compare_keepalive_systems",
]


def openwhisk_invoker(
    config: InvokerConfig,
    cold_start_model: Optional[ColdStartModel] = None,
) -> SimulatedInvoker:
    """A vanilla-OpenWhisk invoker: 10-minute TTL, LRU under pressure."""
    return SimulatedInvoker(
        config=config,
        policy=TTLPolicy(),
        cold_start_model=cold_start_model,
    )


def faascache_invoker(
    config: InvokerConfig,
    cold_start_model: Optional[ColdStartModel] = None,
    free_threshold_mb: Optional[float] = None,
) -> SimulatedInvoker:
    """A FaasCache invoker: online Greedy-Dual with batched eviction."""
    if free_threshold_mb is not None:
        config = replace(config, free_threshold_mb=free_threshold_mb)
    stats = FunctionStatsTable()
    invoker = SimulatedInvoker(
        config=config,
        policy=OnlineGreedyDualPolicy(stats),
        cold_start_model=cold_start_model,
    )
    # The policy prices from the table the invoker's completions feed.
    invoker.stats = stats
    return invoker


@dataclass
class LoadTestComparison:
    """Side-by-side results of the two systems on one workload."""

    trace_name: str
    openwhisk: InvokerResult
    faascache: InvokerResult

    @property
    def warm_start_gain(self) -> float:
        """FaasCache warm starts over OpenWhisk warm starts."""
        if self.openwhisk.warm_starts == 0:
            return float("inf") if self.faascache.warm_starts else 1.0
        return self.faascache.warm_starts / self.openwhisk.warm_starts

    @property
    def served_gain(self) -> float:
        """Total served (warm + cold) requests, FaasCache over OpenWhisk."""
        if self.openwhisk.served == 0:
            return float("inf") if self.faascache.served else 1.0
        return self.faascache.served / self.openwhisk.served

    @property
    def latency_improvement(self) -> float:
        """Mean application latency, OpenWhisk over FaasCache."""
        fc = self.faascache.mean_latency_s()
        if fc <= 0:
            return 1.0
        return self.openwhisk.mean_latency_s() / fc


def compare_keepalive_systems(
    trace: Trace,
    config: InvokerConfig,
    cold_start_model: Optional[ColdStartModel] = None,
) -> LoadTestComparison:
    """Run one workload against both systems and compare.

    When the config does not set a batched-eviction threshold,
    FaasCache uses the paper's 1000 MB default capped at 5% of the
    pool — 1000 MB is 0.4% of the paper's 250 GB server, and batching
    away a large fraction of a small pool would throw out the very
    containers the policy means to keep.
    """
    ow = openwhisk_invoker(config, cold_start_model).run(trace)
    fc_threshold = config.free_threshold_mb or min(
        DEFAULT_FREE_THRESHOLD_MB, 0.05 * config.memory_mb
    )
    fc = faascache_invoker(
        config, cold_start_model, free_threshold_mb=fc_threshold
    ).run(trace)
    return LoadTestComparison(trace_name=trace.name, openwhisk=ow, faascache=fc)
