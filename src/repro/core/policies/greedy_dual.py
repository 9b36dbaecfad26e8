"""Greedy-Dual-Size-Frequency keep-alive (the paper's GD policy).

Section 4.1, Equation 1::

    Priority = Clock + Freq * Cost / Size

* **Clock** — a per-server logical clock that advances on evictions to
  the evicted container's priority (the max over a batch), so that
  priorities age: anything not used since the last eviction round is
  worth less than anything used after it.
* **Freq** — the function's invocation count, shared across its
  containers and reset to zero when its last container dies.
* **Cost** — the termination cost, equal to the initialization time
  (cold minus warm running time): what a future cold start would pay.
* **Size** — the container's memory footprint in MB.

The policy is resource-conserving: containers are only terminated
under memory pressure, never on a timer.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.clock import LogicalClock
from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, register_policy
from repro.core.pool import ContainerPool
from repro.traces.model import TraceFunction

__all__ = ["GreedyDualPolicy"]


@register_policy("GD")
class GreedyDualPolicy(KeepAlivePolicy):
    """Greedy-Dual-Size-Frequency (GDSF) keep-alive."""

    # Priority = clock stamp (monotone logical clock) + Freq*Cost/Size
    # (frequency only grows while the function stays resident), so the
    # lazy victim index applies. GDS inherits the same structure.
    monotone_priority = True

    def __init__(
        self,
        frequency_weight: float = 1.0,
        cost_weight: float = 1.0,
        tenant_weights: Optional[Dict[int, float]] = None,
    ) -> None:
        """``frequency_weight`` and ``cost_weight`` scale the Freq and
        Cost terms, allowing the ablations in Section 4.2 (setting one
        to zero recovers simpler family members).

        ``tenant_weights`` maps tenant ids to multiplicative weights on
        the whole value term (docs/multi-tenancy.md): a tenant with
        weight 2 keeps containers as if their cold starts were twice as
        expensive, so paying tenants survive pressure longer. Tenants
        absent from the map get weight 1. The weight is static per
        function, so the monotone-priority contract of the lazy victim
        index still holds. ``None`` (the default) skips the weighting
        multiply entirely, keeping tenant-less priorities bit-identical
        to the unweighted policy.
        """
        super().__init__()
        self.clock = LogicalClock()
        self._frequency_weight = frequency_weight
        self._cost_weight = cost_weight
        if tenant_weights is not None:
            for tid, weight in sorted(tenant_weights.items()):
                # NaN slips past a plain ``< 0`` check and then poisons
                # the monotone priority index (every comparison against
                # NaN is false), so finiteness is part of the invariant.
                if not math.isfinite(weight) or weight < 0:
                    raise ValueError(
                        f"tenant {tid}: weight must be finite and >= 0, "
                        f"got {weight}"
                    )
            tenant_weights = dict(tenant_weights)
        self._tenant_weights = tenant_weights
        # Name of the function whose resident containers were refreshed
        # by the latest pool-aware ``on_invocation`` and the value term
        # used; lets that arrival's start hook skip sweep and recompute.
        self._arrival_refreshed_fn: Optional[str] = None
        self._arrival_value = 0.0

    # ------------------------------------------------------------------
    # Priority
    # ------------------------------------------------------------------

    def _value_term(self, function: TraceFunction) -> float:
        """The Freq * Cost / Size part of Equation 1, scaled by the
        function's tenant weight when weights are configured."""
        freq = self._frequency.get(function.name, 0)
        cost = function.init_time_s
        value = (
            (self._frequency_weight * freq)
            * (self._cost_weight * cost)
            / function.memory_mb
        )
        if self._tenant_weights is not None:
            # Applied only when configured: the no-weights fast path
            # stays bit-identical to the pre-tenancy policy.
            value *= self._tenant_weights.get(function.tenant_id, 1.0)
        return value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    #
    # The Freq term changes in exactly two places: ``on_invocation``
    # increments it, and ``on_evict`` resets it when the last container
    # dies (leaving nothing to refresh). Refreshing *here*, at the
    # increment, keeps every resident sibling's cached priority
    # consistent on every path — including arrivals that drop or shed
    # before any start hook runs. Siblings share the value term but keep
    # their own clock stamps, so a function's least recently used
    # container is still evicted first (tie-breaking, Section 4.1). The
    # start hook of the same arrival then stamps and scores only its own
    # container, with the term computed here. Frequency bookkeeping is
    # spelled out, not chained to the base class: these hooks run on
    # every arrival and each chained frame shows in the replay ledger.

    def on_invocation(
        self,
        function: TraceFunction,
        now_s: float,
        pool: Optional[ContainerPool] = None,
    ) -> None:
        name = function.name
        self._frequency[name] = self._frequency.get(name, 0) + 1
        if pool is None:
            self._arrival_refreshed_fn = None
            return
        self._arrival_value = value = self._value_term(function)
        for container in pool.containers_of(name):
            container.priority = container.clock_stamp + value
        self._arrival_refreshed_fn = name

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        container.clock_stamp = stamp = self.clock.value
        function = container.function
        if self._arrival_refreshed_fn == function.name:
            # Siblings were refreshed when this arrival was announced
            # (their stamps have not changed since); only the started
            # container's own stamp — and hence priority — moved.
            container.priority = stamp + self._arrival_value
        else:
            # Pool-less driver (bare lifecycle tests): no term to reuse,
            # so rescore every sibling to keep cached priorities consistent.
            value = self._value_term(function)
            for sibling in pool.containers_of(function.name):
                sibling.priority = sibling.clock_stamp + value

    # A cold start is stamped and scored exactly like a warm one.
    on_cold_start = on_warm_start

    def on_evict(
        self,
        container: Container,
        now_s: float,
        pool: ContainerPool,
        pressure: bool,
    ) -> None:
        if pressure:
            # Clock = max priority over the evicted set; advancing to
            # each evicted priority in turn computes exactly that.
            self.clock.advance_to(container.priority)
        name = container.function.name
        if not pool.has_containers_of(name):
            self._frequency.pop(name, None)
            if name == self._arrival_refreshed_fn:
                self._arrival_refreshed_fn = None  # its term used that Freq

    def priority(self, container: Container, now_s: float) -> float:
        return container.priority

    def reset(self) -> None:
        super().reset()
        self.clock.reset()
        self._arrival_refreshed_fn = None

    def __repr__(self) -> str:
        return f"GreedyDualPolicy(clock={self.clock.value:.4g})"
