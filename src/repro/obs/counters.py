"""The lifecycle-counter table: the one place a counter is defined.

Every number the paper reports (cold-start ratio, execution-time
increase, the drops that bend Figure 3) is a ratio of a few integer
lifecycle counters, and every output of this package — the simulator's
aggregate metrics, the counters rebuilt from an event trace, sweep and
bench fingerprints, cluster totals, live ``/stats`` — shows the same
ones. :data:`COUNTERS` declares each exactly once: which event bumps
it (and under which payload filter), whether it is also kept per
tenant, and whether it joins a fingerprint while zero. Everything else
in here is a view derived from the table, so a counter means the same
thing in every output by construction.

Adding a counter is one ``int`` field on
:class:`~repro.sim.metrics.SimulationMetrics` (the storage the hot
path increments) plus one row here (docs/observability.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "COUNTERS",
    "CounterTally",
    "counter_names",
    "read_counters",
    "read_tenant_counters",
    "sum_counters",
    "fingerprint_counters",
    "eviction_counters",
]


@dataclass(frozen=True)
class Counter:
    """One row of the table."""

    #: The key in every ``counters()`` view, and the name of the
    #: ``SimulationMetrics`` field that stores it.
    name: str
    #: The event type (a key of ``EVENT_SCHEMAS``) that bumps it.
    event: str
    #: ``(field, values)``: only events whose ``field`` is one of
    #: ``values`` count. ``None`` counts every event of the type.
    where: Optional[Tuple[str, Tuple[Any, ...]]] = None
    #: The ``FunctionOutcome`` field holding the per-tenant count, for
    #: counters that are also kept per tenant (``None``: aggregate
    #: only). Their events carry a ``tenant`` field on tenant runs.
    per_tenant: Optional[str] = None
    #: ``False`` drops the counter from fingerprints while it is zero,
    #: so runs that never touch its subsystem keep the fingerprints
    #: pinned before the subsystem existed.
    fingerprint_when_zero: bool = True


#: The contract, in the key order every view reports. ``failure``
#: evictions (crashed containers, dead servers) match no row: the
#: fault itself is counted by ``faults_injected`` / ``server_downs``.
#: ``expirations`` covers time-based expiry and doorkeeper admission
#: refusals alike; the trace keeps them apart through ``reason``.
COUNTERS: Tuple[Counter, ...] = (
    Counter("warm_starts", "warm_hit", per_tenant="warm"),
    Counter("cold_starts", "cold_start", per_tenant="cold"),
    Counter("dropped", "dropped", per_tenant="dropped"),
    Counter("evictions", "evicted", ("reason", ("pressure",))),
    Counter("expirations", "evicted", ("reason", ("expiry", "admission"))),
    Counter("prewarms", "container_spawned", ("prewarmed", (True,))),
    Counter("faults_injected", "fault_injected"),
    Counter("retries", "invocation_retried"),
    Counter("sheds", "invocation_shed"),
    Counter("server_downs", "server_down"),
    Counter("capacity_shrinks", "capacity_shrunk", fingerprint_when_zero=False),
    Counter("capacity_grows", "capacity_grown", fingerprint_when_zero=False),
    Counter("eviction_notices", "eviction_notice", fingerprint_when_zero=False),
    Counter("deflations", "container_deflated", fingerprint_when_zero=False),
)


def counter_names() -> Tuple[str, ...]:
    """The counter keys, in table order."""
    return tuple(row.name for row in COUNTERS)


def read_counters(metrics: Any) -> Dict[str, int]:
    """The ``counters()`` view of an object storing one attribute per
    counter (``SimulationMetrics``)."""
    return {row.name: getattr(metrics, row.name) for row in COUNTERS}


def read_tenant_counters(
    per_tenant: Mapping[int, Any],
) -> Dict[int, Dict[str, int]]:
    """The ``tenant_counters()`` view of per-tenant outcome records, in
    ascending tenant-id order."""
    rows = [row for row in COUNTERS if row.per_tenant is not None]
    return {
        tenant_id: {row.name: getattr(outcome, row.per_tenant) for row in rows}
        for tenant_id, outcome in sorted(per_tenant.items())
    }


def sum_counters(members: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Counter-wise sum of several ``counters()`` views (a cluster's
    totals over its member servers)."""
    totals = dict.fromkeys(counter_names(), 0)
    for counters in members:
        for name in totals:
            totals[name] += counters[name]
    return totals


def fingerprint_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """The slice of ``counters`` that joins a results fingerprint:
    sorted by name, minus the ``fingerprint_when_zero=False`` rows
    while they are zero."""
    droppable = {row.name for row in COUNTERS if not row.fingerprint_when_zero}
    return {
        name: value
        for name, value in sorted(counters.items())
        if value or name not in droppable
    }


def eviction_counters() -> Dict[str, str]:
    """``reason`` -> the counter one ``evicted`` event with that reason
    bumps. Reasons that bump none (``failure``) are absent."""
    return {
        reason: row.name
        for row in COUNTERS
        if row.event == "evicted" and row.where is not None
        for reason in row.where[1]
    }


class CounterTally:
    """Rebuilds the counters, aggregate and per tenant, from an event
    stream: feed every event to :meth:`add`."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(counter_names(), 0)
        self.per_tenant: Dict[int, Dict[str, int]] = {}
        self._tenant_names = [
            row.name for row in COUNTERS if row.per_tenant is not None
        ]
        self._rows: Dict[str, List[Counter]] = {}
        for row in COUNTERS:
            self._rows.setdefault(row.event, []).append(row)

    def add(self, event: Mapping[str, Any]) -> None:
        for row in self._rows.get(event["event"], ()):
            where = row.where
            if where is not None and event.get(where[0]) not in where[1]:
                continue
            self.counts[row.name] += 1
            if row.per_tenant is None:
                continue
            # Tenant-less traces never carry the field.
            tenant = event.get("tenant")
            if tenant is None:
                continue
            counts = self.per_tenant.get(tenant)
            if counts is None:
                counts = self.per_tenant[tenant] = dict.fromkeys(
                    self._tenant_names, 0
                )
            counts[row.name] += 1

    def counters(self) -> Dict[str, int]:
        return dict(self.counts)

    def tenant_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-tenant counters, in ascending tenant-id order."""
        return {
            tenant_id: dict(counts)
            for tenant_id, counts in sorted(self.per_tenant.items())
        }
