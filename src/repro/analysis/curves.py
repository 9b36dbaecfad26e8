"""The Figure 3 series: the reuse-distance hit-ratio curve's prediction
beside the simulator's observed hit ratios. (Figures 5 and 6 are
:func:`~repro.sim.sweep.run_sweep` grids, built by their benchmarks.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.sim.scheduler import simulate
from repro.sim.server import GB_MB
from repro.traces.model import Trace

__all__ = [
    "HitRatioComparison",
    "figure3_data",
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
