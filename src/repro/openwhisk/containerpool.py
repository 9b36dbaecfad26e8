"""What FaasCache changes in OpenWhisk's ``ContainerPool.scala``.

The paper's implementation (Section 6) is a ~100-line modification
that

* replaces the 10-minute TTL with Greedy-Dual-Size-Frequency priority
  eviction,
* learns each function's cold and warm times online (the first
  invocation's time is the worst-case cold estimate; the
  initialization overhead is cold minus warm once a warm run is
  observed) — :class:`OnlineGreedyDualPolicy`, and
* **batches evictions**: to keep eviction off the invocation fast
  path, the pool is only sorted by priority during evictions, and
  evicts enough containers to reach a free-memory threshold (1000 MB
  by default) rather than just the immediate need — the slow-path
  model of :class:`~repro.openwhisk.invoker.SimulatedInvoker`, over
  the keep-alive engine's own victim order.
"""

from __future__ import annotations

from repro.core.container import Container
from repro.core.function import FunctionStatsTable
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.pool import ContainerPool
from repro.traces.model import TraceFunction

__all__ = ["OnlineGreedyDualPolicy"]

#: The paper's default free-memory threshold for batched evictions.
DEFAULT_FREE_THRESHOLD_MB = 1000.0


class OnlineGreedyDualPolicy(GreedyDualPolicy):
    """Greedy-Dual with *learned* initialization costs.

    The offline simulator reads the cold-start cost from the trace; a
    real platform must estimate it. This variant reads the cost from a
    :class:`FunctionStatsTable` maintained by the invoker, falling
    back to the worst-case assumption (whole first cold run counts as
    initialization) until a warm run has been observed — exactly the
    estimation scheme of Section 6.
    """

    def __init__(self, stats: FunctionStatsTable) -> None:
        super().__init__()
        self._stats = stats

    def _value_term(self, function: TraceFunction) -> float:
        freq = self.frequency_of(function.name)
        cost = self._stats.get(function.name).init_time_s
        return freq * cost / function.memory_mb

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        # A queued request starts after completions have moved the
        # learned cost: rescore then, not with the arrival's term.
        if self._arrival_refreshed_fn == container.function.name:
            self._arrival_value = self._value_term(container.function)
        super().on_warm_start(container, now_s, pool)

    on_cold_start = on_warm_start
