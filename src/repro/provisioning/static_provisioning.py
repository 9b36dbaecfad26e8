"""Static server-size provisioning (Section 5.1).

Given a workload's hit-ratio curve, the static provisioner selects a
server memory size by one of the paper's two criteria:

* ``target-hit-ratio`` — the smallest size achieving a desired hit
  ratio (e.g. 90%), or
* ``inflection`` — the knee of the curve, where the marginal utility
  of additional memory collapses.

The decision also reports the predicted hit ratio at the chosen size
so operators can see what they are buying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.domains import nonneg
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.traces.model import Trace

__all__ = ["ProvisioningDecision", "StaticProvisioner", "curve_from_trace"]


def curve_from_trace(trace: Trace) -> HitRatioCurve:
    """The hit-ratio curve of a trace, from exact reuse distances."""
    return HitRatioCurve.from_distances(reuse_distances(trace))


@dataclass(frozen=True)
class ProvisioningDecision:
    """The provisioner's output: a size and its predicted performance."""

    memory_mb: float
    predicted_hit_ratio: float
    strategy: str

    @property
    def memory_gb(self) -> float:
        return self.memory_mb / 1024.0


class StaticProvisioner:
    """Sizes a server from a hit-ratio curve."""

    STRATEGIES = ("target-hit-ratio", "inflection")

    def __init__(
        self,
        curve: HitRatioCurve,
        strategy: str = "target-hit-ratio",
        target_hit_ratio: float = 0.9,
        headroom_fraction: float = 0.0,
    ) -> None:
        """``headroom_fraction`` adds slack for concurrent executions,
        which the reuse-distance model does not capture (the paper's
        "Limitations of the Caching Analogy")."""
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {self.STRATEGIES}"
            )
        nonneg.check("headroom_fraction", headroom_fraction)
        self.curve = curve
        self.strategy = strategy
        self.target_hit_ratio = target_hit_ratio
        self.headroom_fraction = headroom_fraction

    def decide(self) -> ProvisioningDecision:
        """Pick a server memory size.

        With ``target-hit-ratio``, an unreachable target (above the
        compulsory-miss ceiling) falls back to the full working-set
        size — the best any cache can do.
        """
        if self.strategy == "inflection":
            base = self.curve.inflection_point_mb()
        else:
            try:
                base = self.curve.required_size(self.target_hit_ratio)
            except ValueError:
                base = self.curve.working_set_mb
        memory_mb = base * (1.0 + self.headroom_fraction)
        return ProvisioningDecision(
            memory_mb=memory_mb,
            predicted_hit_ratio=self.curve.hit_ratio(memory_mb),
            strategy=self.strategy,
        )
