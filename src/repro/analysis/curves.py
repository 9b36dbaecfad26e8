"""Series builders for the paper's figures.

Each function assembles exactly the data one figure plots, from the
library's primitives, so benchmarks and examples share one definition
of "the Figure N data".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.policies.base import PAPER_POLICIES
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.sim.scheduler import simulate
from repro.sim.server import GB_MB
from repro.sim.sweep import SweepResult, run_sweep
from repro.traces.model import Trace

__all__ = [
    "HitRatioComparison",
    "figure3_data",
    "figure5_data",
    "figure6_data",
]


@dataclass
class HitRatioComparison:
    """Figure 3: reuse-distance prediction vs observed hit ratios."""

    cache_sizes_gb: List[float]
    predicted: List[float]
    observed: List[float]

    def max_deviation(self) -> float:
        return max(
            abs(p - o) for p, o in zip(self.predicted, self.observed)
        )


def figure3_data(
    trace: Trace,
    cache_sizes_gb: Sequence[float],
    policy: str = "GD",
) -> HitRatioComparison:
    """Reuse-distance hit-ratio curve vs simulator-observed hit ratios.

    The deviations are the paper's "Limitations of the Caching
    Analogy": dropped requests push the observed ratio below the
    prediction at small sizes; concurrent executions (several
    containers per function) bend it at large sizes.
    """
    curve = HitRatioCurve.from_distances(reuse_distances(trace))
    predicted = [curve.hit_ratio(gb * GB_MB) for gb in cache_sizes_gb]
    observed = []
    for gb in cache_sizes_gb:
        result = simulate(trace, policy, gb * GB_MB)
        observed.append(result.metrics.global_hit_ratio)
    return HitRatioComparison(
        cache_sizes_gb=list(cache_sizes_gb),
        predicted=predicted,
        observed=observed,
    )


def figure5_data(
    trace: Trace,
    memory_gbs: Sequence[float],
    policies: Sequence[str] = PAPER_POLICIES,
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-policy (memory GB, % execution-time increase) series."""
    sweep = run_sweep(trace, memory_gbs, policies).require_complete()
    return {
        policy: sweep.series(policy, "exec_time_increase_pct")
        for policy in policies
    }


def figure6_data(
    trace: Trace,
    memory_gbs: Sequence[float],
    policies: Sequence[str] = PAPER_POLICIES,
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-policy (memory GB, % cold starts) series."""
    sweep = run_sweep(trace, memory_gbs, policies).require_complete()
    return {
        policy: sweep.series(policy, "cold_start_pct") for policy in policies
    }
