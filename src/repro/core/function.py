"""Per-function dynamic bookkeeping.

Online **estimates of warm and cold running times**, because a real
platform (Section 6) does not know them a priori: the first
invocation's time is taken as the worst-case cold time, and once a
warm invocation completes the initialization overhead is computed by
subtracting warm from cold time. When the last container of a
function is evicted, the learned times are retained for future
priority computations. (The frequency of Section 4.1 is the policy's
own state: :class:`~repro.core.policies.greedy_dual.GreedyDualPolicy`
keeps it.)

The trace-driven simulator can bypass the estimator (times are known
from the trace); the OpenWhisk substrate uses it as the paper's
implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["FunctionStats", "FunctionStatsTable"]


@dataclass
class FunctionStats:
    """Online cold/warm time estimates."""

    name: str
    cold_time_s: Optional[float] = None
    warm_time_s: Optional[float] = None

    def observe_cold(self, elapsed_s: float) -> None:
        """Record a completed cold invocation's end-to-end time."""
        if self.cold_time_s is None:
            self.cold_time_s = elapsed_s
        else:
            # Keep the worst case, as the paper's implementation does
            # until warm observations arrive.
            self.cold_time_s = max(self.cold_time_s, elapsed_s)

    def observe_warm(self, elapsed_s: float) -> None:
        """Record a completed warm invocation's end-to-end time."""
        if self.warm_time_s is None:
            self.warm_time_s = elapsed_s
        else:
            # Smooth warm-time observations to damp scheduling noise.
            self.warm_time_s = 0.8 * self.warm_time_s + 0.2 * elapsed_s

    @property
    def init_time_s(self) -> float:
        """Estimated initialization overhead (cold minus warm time).

        Before any observation, assume zero; with only cold
        observations, the whole cold time is attributed to
        initialization (the worst-case assumption the paper describes).
        """
        if self.cold_time_s is None:
            return 0.0
        if self.warm_time_s is None:
            return self.cold_time_s
        return max(0.0, self.cold_time_s - self.warm_time_s)


class FunctionStatsTable:
    """All known functions' dynamic state, keyed by function name."""

    def __init__(self) -> None:
        self._stats: Dict[str, FunctionStats] = {}

    def get(self, name: str) -> FunctionStats:
        """Fetch (creating on first use) the stats for ``name``."""
        stats = self._stats.get(name)
        if stats is None:
            stats = FunctionStats(name=name)
            self._stats[name] = stats
        return stats

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def items(self):
        return self._stats.items()

    def reset(self) -> None:
        self._stats.clear()
