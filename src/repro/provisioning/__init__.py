"""Caching-based server provisioning (paper Section 5)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.provisioning.analytical import (
        FunctionArrivalModel, characteristic_time, equivalent_ttl,
        lru_hit_ratio, models_from_trace, ttl_expected_memory_mb, ttl_hit_ratio,
    )
    from repro.provisioning.autoscale import AutoscaledSimulation, AutoscaleResult
    from repro.provisioning.cpu_autoscale import (
        CpuScalingDecision, ReactiveCpuScaler,
    )
    from repro.provisioning.controller import ControllerDecision, ProportionalController
    from repro.provisioning.deflation import DeflationEngine, DeflationReport
    from repro.provisioning.hit_ratio import HitRatioCurve
    from repro.provisioning.report import CapacityPlan, build_capacity_plan, render_capacity_plan
    from repro.provisioning.reuse_distance import (
        FenwickTree, reuse_distances, reuse_distances_naive,
    )
    from repro.provisioning.shards import (
        shards_curve, shards_reuse_distances, shards_sample_functions,
    )
    from repro.provisioning.static_provisioning import (
        ProvisioningDecision, StaticProvisioner, curve_from_trace,
    )

__all__ = [
    "FunctionArrivalModel", "characteristic_time", "equivalent_ttl",
    "lru_hit_ratio", "models_from_trace", "ttl_expected_memory_mb", "ttl_hit_ratio",
    "CpuScalingDecision", "ReactiveCpuScaler",
    "AutoscaledSimulation", "AutoscaleResult",
    "ControllerDecision", "ProportionalController",
    "DeflationEngine", "DeflationReport",
    "HitRatioCurve",
    "CapacityPlan", "build_capacity_plan", "render_capacity_plan",
    "FenwickTree", "reuse_distances", "reuse_distances_naive",
    "shards_curve", "shards_reuse_distances", "shards_sample_functions",
    "ProvisioningDecision", "StaticProvisioner", "curve_from_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "analytical": (
        "FunctionArrivalModel characteristic_time equivalent_ttl "
        "lru_hit_ratio models_from_trace ttl_expected_memory_mb ttl_hit_ratio"
    ),
    "autoscale": "AutoscaledSimulation AutoscaleResult",
    "cpu_autoscale": "CpuScalingDecision ReactiveCpuScaler",
    "controller": "ControllerDecision ProportionalController",
    "deflation": "DeflationEngine DeflationReport",
    "hit_ratio": "HitRatioCurve",
    "report": "CapacityPlan build_capacity_plan render_capacity_plan",
    "reuse_distance": "FenwickTree reuse_distances reuse_distances_naive",
    "shards": "shards_curve shards_reuse_distances shards_sample_functions",
    "static_provisioning": "ProvisioningDecision StaticProvisioner curve_from_trace",
})
