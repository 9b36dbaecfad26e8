"""Proportional vertical-scaling controller (Section 5.2).

The controller keeps the **miss speed** — cold starts per second, the
product of the miss ratio and the arrival rate — near a pre-specified
target, resizing the keep-alive cache through the hit-ratio curve:

    HR(c') = 1 - m = 1 - target_miss_speed / λ̂        (Equation 3)

where λ̂ is the exponentially smoothed observed arrival rate. The
target miss speed is typically derived from a desired miss ratio and
the workload's long-run average arrival rate.

Design choices straight from the paper:

* runs periodically at a coarse granularity (10 minutes by default),
* a large **30% error deadband**: the size only changes when the
  observed miss speed deviates from the target by more than 30%, to
  avoid memory-size churn and fragmentation,
* inversion of the hit-ratio curve picks the new size; bounds clamp it
  to the feasible range.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.stats import EWMA
from repro.provisioning.hit_ratio import HitRatioCurve

__all__ = ["ControllerDecision", "ProportionalController"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControllerDecision:
    """One control-period outcome, for audit trails and Figure 9."""

    time_s: float
    arrival_rate: float
    smoothed_arrival_rate: float
    miss_speed: float
    target_miss_speed: float
    error_fraction: float
    resized: bool
    cache_size_mb: float


class ProportionalController:
    """Hit-ratio-curve-driven proportional cache-size controller."""

    def __init__(
        self,
        curve: HitRatioCurve,
        target_miss_speed: float,
        initial_size_mb: float,
        min_size_mb: float = 128.0,
        max_size_mb: Optional[float] = None,
        deadband: float = 0.3,
        ewma_alpha: float = 0.3,
        control_period_s: float = 600.0,
    ) -> None:
        if target_miss_speed <= 0:
            raise ValueError(
                f"target miss speed must be positive, got {target_miss_speed}"
            )
        if min_size_mb <= 0:
            raise ValueError(f"min size must be positive, got {min_size_mb}")
        if max_size_mb is not None and max_size_mb < min_size_mb:
            raise ValueError("max size must be >= min size")
        if not 0.0 <= deadband:
            raise ValueError(f"deadband must be non-negative, got {deadband}")
        if not control_period_s > 0:
            raise ValueError(
                f"control period must be positive, got {control_period_s}"
            )
        self.curve = curve
        self.target_miss_speed = target_miss_speed
        self.cache_size_mb = float(initial_size_mb)
        self.min_size_mb = min_size_mb
        self.max_size_mb = max_size_mb
        self.deadband = deadband
        self.control_period_s = control_period_s
        self._arrival_ewma = EWMA(alpha=ewma_alpha)
        self.history: List[ControllerDecision] = []

    @classmethod
    def from_miss_ratio_target(
        cls,
        curve: HitRatioCurve,
        desired_miss_ratio: float,
        mean_arrival_rate: float,
        initial_size_mb: float,
        **kwargs,
    ) -> "ProportionalController":
        """Derive the miss-speed target as ``desired_miss_ratio * λ̄``."""
        if not 0.0 < desired_miss_ratio < 1.0:
            raise ValueError(
                f"desired miss ratio must be in (0, 1), got {desired_miss_ratio}"
            )
        if mean_arrival_rate <= 0:
            raise ValueError("mean arrival rate must be positive")
        return cls(
            curve,
            target_miss_speed=desired_miss_ratio * mean_arrival_rate,
            initial_size_mb=initial_size_mb,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # The control law
    # ------------------------------------------------------------------

    def _clamp(self, size_mb: float) -> float:
        size_mb = max(size_mb, self.min_size_mb)
        if self.max_size_mb is not None:
            size_mb = min(size_mb, self.max_size_mb)
        return size_mb

    def step(
        self,
        now_s: float,
        arrivals_in_period: int,
        cold_starts_in_period: int,
    ) -> ControllerDecision:
        """Run one control period; returns the (possibly no-op) decision.

        ``arrivals_in_period`` and ``cold_starts_in_period`` are the
        raw counts observed since the previous step.
        """
        period = self.control_period_s
        arrival_rate = arrivals_in_period / period
        miss_speed = cold_starts_in_period / period
        smoothed = self._arrival_ewma.update(arrival_rate)

        error = miss_speed - self.target_miss_speed
        error_fraction = abs(error) / self.target_miss_speed

        resized = False
        if error_fraction > self.deadband and smoothed > 0:
            # Equation 3: the miss ratio that would hit the target at
            # the current (smoothed) arrival intensity.
            desired_miss_ratio = self.target_miss_speed / smoothed
            if desired_miss_ratio >= 1.0:
                # Even a cache of size zero misses slowly enough.
                new_size = self.min_size_mb
            else:
                desired_hit_ratio = 1.0 - desired_miss_ratio
                try:
                    new_size = self.curve.required_size(desired_hit_ratio)
                except ValueError:
                    # Target above the compulsory-miss ceiling: give the
                    # workload its full working set.
                    new_size = self.curve.working_set_mb
            new_size = self._clamp(new_size)
            if abs(new_size - self.cache_size_mb) > 1e-9:
                logger.debug(
                    "controller resize at t=%.0fs: %.0f -> %.0f MB "
                    "(miss speed %.4f/s vs target %.4f/s)",
                    now_s,
                    self.cache_size_mb,
                    new_size,
                    miss_speed,
                    self.target_miss_speed,
                )
                self.cache_size_mb = new_size
                resized = True

        decision = ControllerDecision(
            time_s=now_s,
            arrival_rate=arrival_rate,
            smoothed_arrival_rate=smoothed,
            miss_speed=miss_speed,
            target_miss_speed=self.target_miss_speed,
            error_fraction=error_fraction,
            resized=resized,
            cache_size_mb=self.cache_size_mb,
        )
        self.history.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def mean_cache_size_mb(self) -> float:
        """Average size over the control history (the Figure 9 claim:
        ~30% below a conservative static provision)."""
        if not self.history:
            return self.cache_size_mb
        return sum(d.cache_size_mb for d in self.history) / len(self.history)

    def resize_count(self) -> int:
        return sum(1 for d in self.history if d.resized)
