"""Metrics collected by the keep-alive simulator.

The paper evaluates two headline metrics (Section 7):

* the **cold-start ratio** — the fraction of invocations that pay the
  initialization overhead, and
* the **increase in execution time** — total cold-start overhead
  relative to the ideal all-warm execution time, averaged across all
  invocations (this is the user-visible response-time inflation of
  Figure 5).

Dropped requests (invocations that could not obtain memory because
every container was busy) are tracked separately; they are what bends
the observed hit-ratio away from the reuse-distance prediction at
small cache sizes (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.counters import read_counters, read_tenant_counters

__all__ = [
    "FunctionOutcome",
    "SimulationMetrics",
    "jain_index",
    "tenant_fairness",
]


def jain_index(values: List[float]) -> float:
    """Jain's fairness index over ``values``: ``(Σx)² / (n·Σx²)``.

    1.0 means perfectly equal; 1/n means one party gets everything.
    Degenerate inputs (empty, or all zero) read as perfectly fair —
    there is no allocation to be unfair about.
    """
    n = len(values)
    if not n:
        return 1.0
    total = 0.0
    square = 0.0
    for v in values:
        total += v
        square += v * v
    if square <= 0.0:
        return 1.0
    return (total * total) / (n * square)


def tenant_fairness(tenant_counters: Mapping[int, Mapping[str, int]]) -> float:
    """Jain's fairness index over per-tenant warm-hit ratios, from a
    ``tenant_counters()`` view (aggregate metrics or rebuilt trace).

    Tenants that had nothing served contribute no allocation and are
    excluded; no tenant data (or no tenant served) reads as perfectly
    fair (1.0).
    """
    ratios = []
    for counts in tenant_counters.values():
        served = counts["warm_starts"] + counts["cold_starts"]
        if served:
            ratios.append(counts["warm_starts"] / served)
    return jain_index(ratios)


@dataclass
class FunctionOutcome:
    """Per-function invocation outcome counters."""

    warm: int = 0
    cold: int = 0
    dropped: int = 0

    @property
    def served(self) -> int:
        return self.warm + self.cold

    @property
    def total(self) -> int:
        return self.served + self.dropped

    @property
    def hit_ratio(self) -> float:
        return self.warm / self.served if self.served else 0.0


@dataclass
class SimulationMetrics:
    """Aggregated counters for one simulation run."""

    warm_starts: int = 0
    cold_starts: int = 0
    dropped: int = 0
    evictions: int = 0
    expirations: int = 0
    prewarms: int = 0

    # -- robustness counters (all zero on failure-free runs) ---------
    #: Attempts the fault model failed (spawn failures + crashes +
    #: timeouts); per-kind breakdown in :attr:`faults_by_kind`.
    faults_injected: int = 0
    #: Failed attempts re-scheduled with backoff by the retry policy.
    retries: int = 0
    #: Attempts given up on (budget/queue/pressure/unavailability);
    #: per-reason breakdown in :attr:`sheds_by_reason`.
    sheds: int = 0
    #: Whole-server failures applied to this server.
    server_downs: int = 0
    #: Simulated seconds this server spent down.
    downtime_s: float = 0.0

    # -- harvested/spot capacity counters (docs/robustness.md) -------
    #: Harvest steps that reduced this server's usable memory.
    capacity_shrinks: int = 0
    #: Capacity given back (harvest release or replacement spin-up).
    capacity_grows: int = 0
    #: Spot-eviction notices received by this server.
    eviction_notices: int = 0
    #: Warm containers evicted to meet a shrinking capacity target
    #: (kept apart from :attr:`evictions`: the pressure came from the
    #: platform, not the workload).
    deflations: int = 0

    #: Sum of warm running times over served invocations: the ideal
    #: execution time had every start been warm.
    ideal_exec_time_s: float = 0.0
    #: Sum of actual running times (warm or cold) over served invocations.
    actual_exec_time_s: float = 0.0

    #: ``fault_injected`` events by kind (spawn_failure/crash/timeout).
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    #: ``invocation_shed`` events by reason.
    sheds_by_reason: Dict[str, int] = field(default_factory=dict)

    per_function: Dict[str, FunctionOutcome] = field(default_factory=dict)
    #: Per-tenant invocation outcomes (docs/multi-tenancy.md).
    #: Populated only when the replayed trace carries tenant ids, so
    #: tenant-less runs keep producing exactly the legacy metrics.
    per_tenant: Dict[int, FunctionOutcome] = field(default_factory=dict)
    #: Sampled (time, used_mb) pairs, when timeline tracking is enabled.
    #: The simulator appends a closing sample at trace end so the tail
    #: interval after the last periodic sample carries its weight in
    #: :meth:`mean_memory_mb`.
    memory_timeline: List[Tuple[float, float]] = field(default_factory=list)

    #: Wall-clock seconds the replay took (simulator throughput, not a
    #: paper metric; excluded from :meth:`summary` so that equality
    #: comparisons between runs stay meaningful).
    wall_time_s: float = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _outcome(self, function_name: str) -> FunctionOutcome:
        outcome = self.per_function.get(function_name)
        if outcome is None:
            outcome = FunctionOutcome()
            self.per_function[function_name] = outcome
        return outcome

    def _tenant_outcome(self, tenant_id: int) -> FunctionOutcome:
        outcome = self.per_tenant.get(tenant_id)
        if outcome is None:
            outcome = FunctionOutcome()
            self.per_tenant[tenant_id] = outcome
        return outcome

    def record_warm(
        self,
        function_name: str,
        warm_time_s: float,
        actual_time_s: float | None = None,
        tenant_id: Optional[int] = None,
    ) -> None:
        """Record a warm start. ``actual_time_s`` (default: the warm
        time) can exceed the ideal when a prefetched container still
        had initialization work left (Section 9's explicit-init gap).
        ``tenant_id`` (``None`` on tenant-less runs) additionally books
        the outcome under :attr:`per_tenant`."""
        self.warm_starts += 1
        self.ideal_exec_time_s += warm_time_s
        self.actual_exec_time_s += (
            warm_time_s if actual_time_s is None else actual_time_s
        )
        self._outcome(function_name).warm += 1
        if tenant_id is not None:
            self._tenant_outcome(tenant_id).warm += 1

    def record_cold(
        self,
        function_name: str,
        warm_time_s: float,
        cold_time_s: float,
        tenant_id: Optional[int] = None,
    ) -> None:
        self.cold_starts += 1
        self.ideal_exec_time_s += warm_time_s
        self.actual_exec_time_s += cold_time_s
        self._outcome(function_name).cold += 1
        if tenant_id is not None:
            self._tenant_outcome(tenant_id).cold += 1

    def record_dropped(
        self, function_name: str, tenant_id: Optional[int] = None
    ) -> None:
        self.dropped += 1
        self._outcome(function_name).dropped += 1
        if tenant_id is not None:
            self._tenant_outcome(tenant_id).dropped += 1

    def record_fault(self, kind: str) -> None:
        """Record one injected fault (spawn failure, crash, timeout)."""
        self.faults_injected += 1
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1

    def record_retry(self) -> None:
        self.retries += 1

    def record_shed(self, reason: str) -> None:
        """Record one attempt given up on after failure."""
        self.sheds += 1
        self.sheds_by_reason[reason] = self.sheds_by_reason.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def served(self) -> int:
        return self.warm_starts + self.cold_starts

    @property
    def total_requests(self) -> int:
        return self.served + self.dropped

    @property
    def cold_start_ratio(self) -> float:
        """Fraction of *served* invocations that were cold (Figure 6)."""
        return self.cold_starts / self.served if self.served else 0.0

    @property
    def cold_start_pct(self) -> float:
        return 100.0 * self.cold_start_ratio

    @property
    def hit_ratio(self) -> float:
        """Warm starts over served invocations."""
        return self.warm_starts / self.served if self.served else 0.0

    @property
    def global_hit_ratio(self) -> float:
        """Warm starts over *all* requests: drops count as misses.

        This is the observed hit-ratio plotted against the
        reuse-distance prediction in Figure 3.
        """
        return self.warm_starts / self.total_requests if self.total_requests else 0.0

    @property
    def drop_ratio(self) -> float:
        return self.dropped / self.total_requests if self.total_requests else 0.0

    @property
    def added_exec_time_s(self) -> float:
        """Total cold-start overhead paid across the run."""
        return self.actual_exec_time_s - self.ideal_exec_time_s

    @property
    def exec_time_increase_pct(self) -> float:
        """Percentage increase in execution time due to cold starts.

        The Figure 5 metric: the total overhead relative to the ideal
        all-warm execution time, which equals the per-invocation
        overhead averaged across every invocation of every function.
        """
        if self.ideal_exec_time_s <= 0:
            return 0.0
        return 100.0 * self.added_exec_time_s / self.ideal_exec_time_s

    @property
    def invocations_per_s(self) -> float:
        """Replay throughput: trace invocations simulated per
        wall-clock second (0.0 when no timing was recorded)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.total_requests / self.wall_time_s

    def throughput_summary(self) -> Dict[str, float]:
        """Observability numbers for harnesses and the CLI, kept apart
        from :meth:`summary` because they differ between otherwise
        identical runs."""
        return {
            "wall_time_s": self.wall_time_s,
            "invocations_per_s": self.invocations_per_s,
        }

    @property
    def mean_memory_mb(self) -> float:
        """Time-weighted mean of the sampled memory usage.

        Each sample's value is weighted by the interval until the next
        sample; the final sample (the simulator's closing sample at
        trace end) only marks the end of the last interval.
        """
        timeline = self.memory_timeline
        if len(timeline) < 2:
            return timeline[0][1] if timeline else 0.0
        weighted = 0.0
        span = timeline[-1][0] - timeline[0][0]
        if span <= 0:
            return timeline[-1][1]
        for (t0, used), (t1, __) in zip(timeline, timeline[1:]):
            weighted += used * (t1 - t0)
        return weighted / span

    def counters(self) -> Dict[str, int]:
        """The integer lifecycle counters only, as the counter table
        (:data:`repro.obs.counters.COUNTERS`) lists them.

        :meth:`repro.obs.report.TraceReport.counters` rebuilds exactly
        these keys from an event trace, and the two must agree for a
        fully-traced run (the CI trace-consistency gate). Sweeps also
        snapshot this dict per cell.
        """
        return read_counters(self)

    def tenant_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-tenant lifecycle counters (the table's ``per_tenant``
        rows), in ascending tenant-id order.

        :meth:`repro.obs.report.TraceReport.tenant_counters` rebuilds
        exactly these keys from the events' ``tenant`` fields, and the
        two must agree for a fully-traced tenant run (checked by the
        sanitizer and the tenant-fairness CI job). Empty on tenant-less
        runs.
        """
        return read_tenant_counters(self.per_tenant)

    def tenant_cold_start_ratios(self) -> Dict[int, float]:
        """Per-tenant cold-start ratio over served invocations, in
        ascending tenant-id order. Empty on tenant-less runs."""
        return {
            tenant_id: (
                outcome.cold / outcome.served if outcome.served else 0.0
            )
            for tenant_id, outcome in sorted(self.per_tenant.items())
        }

    @property
    def jain_fairness_index(self) -> float:
        """Jain's fairness index over per-tenant warm-hit ratios
        (:func:`tenant_fairness`)."""
        return tenant_fairness(self.tenant_counters())

    @property
    def shed_ratio(self) -> float:
        """Sheds over all terminal outcomes (served + dropped + shed).

        The graceful-degradation headline: under faults, what fraction
        of demand was ultimately turned away rather than queued
        without bound. Retried attempts are not terminal and do not
        appear in the denominator.
        """
        terminal = self.served + self.dropped + self.sheds
        return self.sheds / terminal if terminal else 0.0

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers, for tables and tests."""
        return {
            **self.counters(),
            "cold_start_pct": self.cold_start_pct,
            "exec_time_increase_pct": self.exec_time_increase_pct,
            "hit_ratio": self.hit_ratio,
            "global_hit_ratio": self.global_hit_ratio,
            "drop_ratio": self.drop_ratio,
            "shed_ratio": self.shed_ratio,
            "jain_fairness_index": self.jain_fairness_index,
        }
