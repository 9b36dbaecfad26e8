"""Offline reconstruction of simulator behaviour from an event trace.

Where :class:`~repro.sim.metrics.SimulationMetrics` answers *how much*
(end-of-run aggregates, the paper's Figures 5/6 numbers), this module
answers *why* and *when*: it replays a recorded event stream (any
iterable of event dicts, usually a ``JsonlSink`` file) into

* the same lifecycle counters the simulator keeps — warm / cold /
  dropped / evictions / expirations / prewarms — which lets CI assert
  that the trace stream is complete (rebuilt counters must equal the
  live ``SimulationMetrics`` of the same seeded run);
* **per-function timelines**: every lifecycle event of one function in
  arrival order, for "why was this function cold at t=492?" questions;
* **eviction churn**: which functions were evicted most, how much
  memory each eviction freed, how quickly evicted functions came back
  (an eviction followed by a cold start of the same function is a
  churn round-trip — the cache thrashing signature);
* **memory-pressure summaries**: how often victim selection ran and
  how close to capacity the pool was when it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.counters import CounterTally
from repro.obs.sinks import PathLike, Sink, read_jsonl_events

__all__ = [
    "FunctionTimeline",
    "ChurnEntry",
    "TraceReport",
    "ReportSink",
    "report_from_events",
    "load_report",
]

#: Event types that appear on a per-function timeline.
_TIMELINE_EVENTS = (
    "invocation_arrived",
    "warm_hit",
    "cold_start",
    "container_spawned",
    "evicted",
    "dropped",
    "fault_injected",
    "invocation_retried",
    "invocation_shed",
    "container_deflated",
)


@dataclass
class FunctionTimeline:
    """All lifecycle events of one function, in stream order."""

    function: str
    #: (time_s, event_type) pairs.
    events: List[Tuple[float, str]] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for __, event_type in self.events:
            out[event_type] = out.get(event_type, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class ChurnEntry:
    """Eviction pressure on one function."""

    function: str
    evictions: int = 0
    freed_mb: float = 0.0
    #: Cold starts that happened while the function had been evicted —
    #: each one is an eviction the cache "took back", i.e. thrash.
    refaults: int = 0
    #: Time between an eviction and the function's next cold start,
    #: summed over refaults (mean = refault_gap_s / refaults).
    refault_gap_s: float = 0.0


class TraceReport:
    """Aggregated view over one event stream."""

    def __init__(self) -> None:
        self.event_counts: Dict[str, int] = {}
        self.first_time_s: Optional[float] = None
        self.last_time_s: Optional[float] = None
        self.per_function: Dict[str, FunctionTimeline] = {}
        self.churn: Dict[str, ChurnEntry] = {}
        # Memory pressure.
        self.pressure_events = 0
        self.peak_used_mb = 0.0
        self.peak_utilization = 0.0
        self.total_deficit_mb = 0.0
        # Eviction breakdown by reason.
        self.evictions_by_reason: Dict[str, int] = {}
        self.evictions_by_policy: Dict[str, int] = {}
        # Provisioned-concurrency spawns.
        self.pinned_spawns = 0
        # Fault injection / recovery (docs/robustness.md).
        self.faults_by_kind: Dict[str, int] = {}
        self.sheds_by_reason: Dict[str, int] = {}
        self.server_downtime_s = 0.0
        # Harvested/spot capacity (docs/robustness.md).
        self.deflated_mb = 0.0
        self.capacity_deferred_mb = 0.0
        # The lifecycle counters, aggregate and per tenant, as the
        # counter table defines them (repro.obs.counters).
        self._tally = CounterTally()
        # Open eviction -> next cold-start gap tracking.
        self._evicted_at: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def add(self, event: Mapping[str, Any]) -> None:
        event_type = event.get("event")
        if not isinstance(event_type, str):
            raise ValueError(f"not an event: {dict(event)!r}")
        time_s = float(event.get("time_s", 0.0))
        self.event_counts[event_type] = (
            self.event_counts.get(event_type, 0) + 1
        )
        if self.first_time_s is None:
            self.first_time_s = time_s
        self.last_time_s = time_s

        self._tally.add(event)

        function = event.get("function")
        if function is not None and event_type in _TIMELINE_EVENTS:
            timeline = self.per_function.get(function)
            if timeline is None:
                timeline = self.per_function[function] = FunctionTimeline(
                    function
                )
            timeline.events.append((time_s, event_type))

        if event_type == "evicted":
            reason = event.get("reason", "unknown")
            policy = event.get("policy", "unknown")
            self.evictions_by_reason[reason] = (
                self.evictions_by_reason.get(reason, 0) + 1
            )
            self.evictions_by_policy[policy] = (
                self.evictions_by_policy.get(policy, 0) + 1
            )
            entry = self.churn.get(function)
            if entry is None:
                entry = self.churn[function] = ChurnEntry(function)
            entry.evictions += 1
            entry.freed_mb += float(event.get("freed_mb", 0.0))
            self._evicted_at[function] = time_s
        elif event_type == "cold_start":
            evicted_at = self._evicted_at.pop(function, None)
            if evicted_at is not None:
                entry = self.churn.get(function)
                if entry is None:
                    entry = self.churn[function] = ChurnEntry(function)
                entry.refaults += 1
                entry.refault_gap_s += time_s - evicted_at
        elif event_type == "container_spawned":
            if event.get("pinned"):
                self.pinned_spawns += 1
        elif event_type == "fault_injected":
            kind = event.get("kind", "unknown")
            self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1
        elif event_type == "invocation_shed":
            reason = event.get("reason", "unknown")
            self.sheds_by_reason[reason] = (
                self.sheds_by_reason.get(reason, 0) + 1
            )
        elif event_type == "server_recovered":
            self.server_downtime_s += float(event.get("downtime_s", 0.0))
        elif event_type == "container_deflated":
            self.deflated_mb += float(event.get("memory_mb", 0.0))
        elif event_type == "capacity_shrunk":
            self.capacity_deferred_mb += float(event.get("deferred_mb", 0.0))
        elif event_type == "pool_pressure":
            self.pressure_events += 1
            used = float(event.get("used_mb", 0.0))
            capacity = float(event.get("capacity_mb", 0.0))
            self.peak_used_mb = max(self.peak_used_mb, used)
            if capacity > 0:
                self.peak_utilization = max(
                    self.peak_utilization, used / capacity
                )
            needed = float(event.get("needed_mb", 0.0))
            free = float(event.get("free_mb", 0.0))
            self.total_deficit_mb += max(0.0, needed - free)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The simulator's lifecycle counters, rebuilt from the trace.

        Keyed exactly like
        :meth:`repro.sim.metrics.SimulationMetrics.counters` — both are
        views of the one counter table
        (:data:`repro.obs.counters.COUNTERS`, which says what event
        and ``reason`` each counter counts) — so the two can be
        compared directly (the trace/aggregate consistency gate).
        """
        return self._tally.counters()

    def tenant_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-tenant lifecycle counters rebuilt from the events'
        ``tenant`` fields, keyed exactly like
        :meth:`repro.sim.metrics.SimulationMetrics.tenant_counters`.
        Empty for tenant-less traces, whose events never carry the
        field."""
        return self._tally.tenant_counters()

    @property
    def jain_fairness_index(self) -> float:
        """Jain's fairness index over per-tenant warm-hit ratios,
        rebuilt from the trace."""
        from repro.sim.metrics import tenant_fairness

        return tenant_fairness(self.tenant_counters())

    def check_tenant_counters(
        self, expected: Mapping[int, Mapping[str, int]]
    ) -> List[str]:
        """Compare rebuilt per-tenant counters against an expected
        mapping; returns mismatch descriptions (empty = agreement)."""
        rebuilt = self.tenant_counters()
        mismatches = []
        for tenant_id in sorted(set(rebuilt) | set(expected)):
            got = rebuilt.get(tenant_id)
            want = expected.get(tenant_id)
            if got != want:
                mismatches.append(
                    f"tenant {tenant_id}: trace says {got}, "
                    f"metrics say {want}"
                )
        return mismatches

    def timeline(self, function: str) -> FunctionTimeline:
        try:
            return self.per_function[function]
        except KeyError:
            raise KeyError(
                f"function {function!r} never appears in the trace"
            ) from None

    def most_evicted(self, n: int = 10) -> List[ChurnEntry]:
        """The ``n`` functions under the heaviest eviction churn."""
        return sorted(
            self.churn.values(),
            key=lambda e: (-e.evictions, -e.freed_mb, e.function),
        )[:n]

    @property
    def total_events(self) -> int:
        return sum(self.event_counts.values())

    @property
    def span_s(self) -> float:
        if self.first_time_s is None or self.last_time_s is None:
            return 0.0
        return self.last_time_s - self.first_time_s

    def check_counters(
        self, expected: Mapping[str, int]
    ) -> List[str]:
        """Compare rebuilt counters against an expected dict.

        Returns a list of human-readable mismatch descriptions (empty
        means the trace and the aggregate metrics agree). Keys missing
        from ``expected`` are ignored, so a partial check is possible.
        """
        rebuilt = self.counters()
        mismatches = []
        for key, want in expected.items():
            if key not in rebuilt:
                mismatches.append(f"unknown counter {key!r}")
            elif rebuilt[key] != want:
                mismatches.append(
                    f"{key}: trace says {rebuilt[key]}, metrics say {want}"
                )
        return mismatches

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, top_n: int = 10) -> str:
        """A human-readable multi-section summary for the CLI."""
        lines: List[str] = []
        lines.append(
            f"trace report: {self.total_events} events over "
            f"{self.span_s:.1f} s, {len(self.per_function)} functions"
        )
        lines.append("")
        lines.append("lifecycle counters (rebuilt from the trace):")
        for key, value in self.counters().items():
            lines.append(f"  {key:<14} {value}")
        if self.evictions_by_reason:
            lines.append("")
            lines.append("evictions by reason:")
            for reason, count in sorted(self.evictions_by_reason.items()):
                lines.append(f"  {reason:<14} {count}")
        if self.faults_by_kind or self.sheds_by_reason:
            lines.append("")
            lines.append("fault injection:")
            for kind, count in sorted(self.faults_by_kind.items()):
                lines.append(f"  {kind:<14} {count}")
            for reason, count in sorted(self.sheds_by_reason.items()):
                lines.append(f"  shed/{reason:<9} {count}")
        downs = self.event_counts.get("server_down", 0)
        if downs:
            lines.append(
                f"server outages: {downs} "
                f"({self.server_downtime_s:.0f} s observed downtime)"
            )
        shrinks = self.event_counts.get("capacity_shrunk", 0)
        notices = self.event_counts.get("eviction_notice", 0)
        if shrinks or notices:
            lines.append(
                f"harvested capacity: {shrinks} shrinks "
                f"({self.capacity_deferred_mb:.0f} MB deferred), "
                f"{self.event_counts.get('capacity_grown', 0)} grows, "
                f"{notices} eviction notices, "
                f"{self.event_counts.get('container_deflated', 0)} "
                f"containers deflated "
                f"({self.deflated_mb:.0f} MB)"
            )
        if self.churn:
            lines.append("")
            lines.append(f"top {top_n} functions by eviction churn:")
            lines.append(
                "  function                evictions  freed MB  refaults  "
                "mean gap s"
            )
            for entry in self.most_evicted(top_n):
                gap = (
                    entry.refault_gap_s / entry.refaults
                    if entry.refaults
                    else 0.0
                )
                lines.append(
                    f"  {entry.function:<22}  {entry.evictions:>9}  "
                    f"{entry.freed_mb:>8.0f}  {entry.refaults:>8}  "
                    f"{gap:>10.1f}"
                )
        lines.append("")
        lines.append(
            f"memory pressure: {self.pressure_events} victim-selection "
            f"rounds, peak used {self.peak_used_mb:.0f} MB "
            f"({self.peak_utilization:.0%} of capacity), cumulative "
            f"deficit {self.total_deficit_mb:.0f} MB"
        )
        return "\n".join(lines)


class ReportSink(Sink):
    """Feeds every event straight into an in-memory
    :class:`TraceReport`, so a sanitized simulator can rebuild its
    lifecycle counters without serializing anything."""

    def __init__(self) -> None:
        self.report = TraceReport()

    def emit(self, event: Mapping[str, Any]) -> None:
        self.report.add(event)


def report_from_events(events: Iterable[Mapping[str, Any]]) -> TraceReport:
    """Build a :class:`TraceReport` from any event iterable."""
    report = TraceReport()
    for event in events:
        report.add(event)
    return report


def load_report(path: PathLike) -> TraceReport:
    """Build a report from a JSONL trace file."""
    return report_from_events(read_jsonl_events(path))
