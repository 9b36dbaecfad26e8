"""Hit-ratio curves (Section 5.1, Equation 2).

The hit ratio at cache size ``c`` is the probability that a reuse
distance is at most ``c`` — the CDF of the reuse-distance
distribution. The curve supports the two provisioning idioms the paper
uses:

* **target hit ratio** — pick the smallest size achieving, say, 90%
  (:meth:`HitRatioCurve.required_size`), and
* **inflection point** — pick the size where marginal utility drops
  off, i.e. the knee of the curve
  (:meth:`HitRatioCurve.inflection_point_mb`, a Kneedle-style
  max-distance-from-chord detector).

The curve can be built from exact reuse distances or from weighted
SHARDS samples; compulsory misses (infinite distances) stay in the
denominator, so the curve saturates slightly below 1 for finite
traces, exactly as an optimal cache would behave.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Optional, Sequence

from repro.domains import nonneg, probability

__all__ = ["HitRatioCurve"]


class HitRatioCurve:
    """The empirical CDF of (possibly weighted) reuse distances."""

    def __init__(
        self,
        finite_distances: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        infinite_weight: float = 0.0,
    ) -> None:
        if weights is None:
            weights = [1.0] * len(finite_distances)
        if len(weights) != len(finite_distances):
            raise ValueError("weights must match distances in length")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        nonneg.check("infinite_weight", infinite_weight)
        pairs = sorted(zip(finite_distances, weights))
        self._distances: List[float] = []
        self._cumulative: List[float] = []
        running = 0.0
        for distance, weight in pairs:
            if distance < 0 or math.isinf(distance):
                raise ValueError(
                    "finite_distances must be finite and non-negative; "
                    "pass compulsory misses via infinite_weight"
                )
            running += weight
            if self._distances and self._distances[-1] == distance:
                self._cumulative[-1] = running
            else:
                self._distances.append(distance)
                self._cumulative.append(running)
        self._finite_weight = running
        self._total_weight = running + infinite_weight
        if self._total_weight <= 0:
            raise ValueError("curve needs positive total weight")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_distances(cls, distances: Iterable[float]) -> "HitRatioCurve":
        """Build from raw reuse distances; ``inf`` marks compulsory misses.

        >>> curve = HitRatioCurve.from_distances([0.0, 100.0, float("inf")])
        >>> curve.hit_ratio(50.0)  # only the 0-distance reuse hits
        0.3333333333333333
        """
        finite: List[float] = []
        infinite = 0.0
        for d in distances:
            if math.isinf(d):
                infinite += 1.0
            else:
                finite.append(d)
        return cls(finite, infinite_weight=infinite)

    @classmethod
    def from_weighted_distances(
        cls,
        distances: Iterable[float],
        weights: Iterable[float],
    ) -> "HitRatioCurve":
        """Build from weighted samples (the SHARDS estimator's output)."""
        finite: List[float] = []
        finite_weights: List[float] = []
        infinite = 0.0
        for d, w in zip(distances, weights):
            if math.isinf(d):
                infinite += w
            else:
                finite.append(d)
                finite_weights.append(w)
        return cls(finite, finite_weights, infinite_weight=infinite)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def hit_ratio(self, cache_size_mb: float) -> float:
        """HR(c): fraction of accesses with reuse distance <= c."""
        if cache_size_mb < 0:
            return 0.0
        idx = bisect.bisect_right(self._distances, cache_size_mb)
        if idx == 0:
            return 0.0
        return self._cumulative[idx - 1] / self._total_weight

    def miss_ratio(self, cache_size_mb: float) -> float:
        return 1.0 - self.hit_ratio(cache_size_mb)

    @property
    def max_hit_ratio(self) -> float:
        """The asymptote: 1 minus the compulsory-miss fraction."""
        return self._finite_weight / self._total_weight

    @property
    def working_set_mb(self) -> float:
        """Smallest size achieving the maximum hit ratio."""
        return self._distances[-1] if self._distances else 0.0

    def required_size(self, target_hit_ratio: float) -> float:
        """HR⁻¹: the smallest cache size achieving the target hit ratio.

        Raises ``ValueError`` when the target exceeds the achievable
        maximum (compulsory misses cap the curve).
        """
        probability.check("target_hit_ratio", target_hit_ratio)
        if target_hit_ratio <= 0.0:
            return 0.0
        if target_hit_ratio > self.max_hit_ratio + 1e-12:
            raise ValueError(
                f"target {target_hit_ratio:.3f} exceeds max achievable "
                f"hit ratio {self.max_hit_ratio:.3f}"
            )
        target_weight = target_hit_ratio * self._total_weight
        idx = bisect.bisect_left(
            self._cumulative, target_weight - 1e-12 * self._total_weight
        )
        idx = min(idx, len(self._distances) - 1)
        return self._distances[idx]

    def inflection_point_mb(self, num_points: int = 512) -> float:
        """Knee of the curve: the size of maximum marginal-utility drop.

        Kneedle-style: normalize the curve to the unit square over
        [0, working-set size] and return the size maximizing the gap
        between the curve and the straight chord — the point past
        which additional memory yields diminishing returns.
        """
        if not self._distances:
            return 0.0
        max_size = self.working_set_mb
        if max_size <= 0:
            return 0.0
        base = self.hit_ratio(0.0)
        top = self.max_hit_ratio
        if top <= base:
            return 0.0
        best_size = 0.0
        best_key = (-math.inf, -math.inf)
        for i in range(num_points + 1):
            size = max_size * i / num_points
            x = size / max_size
            y = (self.hit_ratio(size) - base) / (top - base)
            # Ties on the gap (e.g. a single sharp step, where the
            # chord touches the curve at both ends) resolve toward the
            # point with the higher hit ratio — a knee of "size zero"
            # is never a useful provisioning answer.
            key = (y - x, y)
            if key > best_key:
                best_key = key
                best_size = size
        return best_size

    def __repr__(self) -> str:
        return (
            f"HitRatioCurve(samples={len(self._distances)}, "
            f"max_hit_ratio={self.max_hit_ratio:.3f}, "
            f"working_set={self.working_set_mb:.0f} MB)"
        )
