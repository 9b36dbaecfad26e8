"""Simulated OpenWhisk invoker substrate (paper Sections 6 and 7.2)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.openwhisk.containerpool import DEFAULT_FREE_THRESHOLD_MB, OnlineGreedyDualPolicy
    from repro.openwhisk.invoker import (
        InvokerConfig, InvokerResult, RequestRecord, SimulatedInvoker,
    )
    from repro.openwhisk.latency import ColdStartModel, PhaseBreakdown
    from repro.openwhisk.loadgen import (
        LoadTestComparison, compare_keepalive_systems, faascache_invoker, openwhisk_invoker,
    )

__all__ = [
    "DEFAULT_FREE_THRESHOLD_MB", "OnlineGreedyDualPolicy",
    "InvokerConfig", "InvokerResult", "RequestRecord", "SimulatedInvoker",
    "ColdStartModel", "PhaseBreakdown",
    "LoadTestComparison", "compare_keepalive_systems", "faascache_invoker", "openwhisk_invoker",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "containerpool": "DEFAULT_FREE_THRESHOLD_MB OnlineGreedyDualPolicy",
    "invoker": "InvokerConfig InvokerResult RequestRecord SimulatedInvoker",
    "latency": "ColdStartModel PhaseBreakdown",
    "loadgen": "LoadTestComparison compare_keepalive_systems faascache_invoker openwhisk_invoker",
})
