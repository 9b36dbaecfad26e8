"""CPU auto-scaling companion to the memory controller (Section 5.2).

The paper's vertical memory scaling "can also be combined with cpu
auto-scaling based on the function arrival rate, using classical
predictive and reactive auto-scaling techniques found in web-clusters"
[Gandhi et al., AutoScale]. This module supplies the reactive half,
which :mod:`repro.cluster.elastic` uses to size its server count: the
core count follows the smoothed offered load (arrival rate x mean
service time) and a target utilization, scaling *up* immediately but
delaying scale-*down* by a hold time — AutoScale's key insight for
avoiding oscillation under bursty load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import EWMA
from repro.domains import Domain, check_args, int_at_least, nonneg

__all__ = ["CpuScalingDecision", "ReactiveCpuScaler"]


@dataclass(frozen=True)
class CpuScalingDecision:
    """One control-period outcome."""

    time_s: float
    arrival_rate: float
    offered_load_cores: float
    cores: int
    resized: bool


class ReactiveCpuScaler:
    """Utilization-targeting reactive core scaler with scale-down hold."""

    #: ``max_cores`` is at least ``min_cores``; a zero hold scales down
    #: at the first period below demand.
    domains = {
        "target_utilization": Domain(0.0, 1.0, low_open=True, high_open=True),
        "min_cores": int_at_least(1), "max_cores": int_at_least(1), "scale_down_hold_s": nonneg,
        "ewma_alpha": Domain(0.0, 1.0, low_open=True), "initial_cores": int_at_least(1),
    }

    def __init__(
        self,
        target_utilization: float = 0.7,
        min_cores: int = 1,
        max_cores: int = 256,
        scale_down_hold_s: float = 1200.0,
        ewma_alpha: float = 0.3,
        initial_cores: int = 1,
    ) -> None:
        check_args(self.domains, locals())
        if max_cores < min_cores:
            raise ValueError(f"max_cores must be >= min_cores, got {max_cores} < {min_cores}")
        self.target_utilization = target_utilization
        self.min_cores = min_cores
        self.max_cores = max_cores
        self.scale_down_hold_s = scale_down_hold_s
        self.cores = max(min(initial_cores, max_cores), min_cores)
        self._rate_ewma = EWMA(alpha=ewma_alpha)
        self._below_since: Optional[float] = None

    def _desired_cores(self, offered_load: float) -> int:
        raw = math.ceil(offered_load / self.target_utilization)
        return max(self.min_cores, min(self.max_cores, raw))

    def step(
        self,
        now_s: float,
        arrival_rate: float,
        mean_service_time_s: float,
    ) -> CpuScalingDecision:
        """One control period: observe the rate, maybe resize."""
        if mean_service_time_s <= 0:
            raise ValueError("mean service time must be positive")
        offered = self._rate_ewma.update(arrival_rate) * mean_service_time_s
        desired = self._desired_cores(offered)
        resized = False
        if desired > self.cores:
            # Scale up immediately: queues build fast.
            self.cores = desired
            self._below_since = None
            resized = True
        elif desired < self.cores:
            # Scale down only after the demand has stayed low for the
            # hold time (AutoScale's conservative release).
            if self._below_since is None:
                self._below_since = now_s
            elif now_s - self._below_since >= self.scale_down_hold_s:
                self.cores = desired
                self._below_since = None
                resized = True
        else:
            self._below_since = None
        return CpuScalingDecision(
            time_s=now_s,
            arrival_rate=arrival_rate,
            offered_load_cores=offered,
            cores=self.cores,
            resized=resized,
        )
