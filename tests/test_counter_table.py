"""The lifecycle-counter table (``repro.obs.counters``) and the views
derived from it: aggregate metrics, trace reports, sweep cells, live
``/stats``, fingerprints, and cluster totals."""

from __future__ import annotations

import dataclasses

import pytest

from repro.checks.sanitize import ReportSink
from repro.cluster.elastic import ElasticClusterSimulation
from repro.cluster.simulation import ClusterSimulator
from repro.core.clock import SimClock
from repro.faults import FaultSpec
from repro.live.service import LivePoolService
from repro.obs import counters as counter_table
from repro.obs.counters import COUNTERS, Counter, fingerprint_counters
from repro.obs.events import EVENT_SCHEMAS, EVICTION_REASONS
from repro.obs.report import TraceReport
from repro.obs.tracer import Tracer
from repro.sim import metrics as sim_metrics
from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.scheduler import simulate
from repro.sim.sweep import point_from_result
from repro.traces.synth import noisy_neighbor_trace, skewed_frequency_trace

#: The contract as of this writing. Order matters: it is the column
#: order of every table and JSON document the package prints.
NAMES = [
    "warm_starts", "cold_starts", "dropped", "evictions", "expirations",
    "prewarms", "faults_injected", "retries", "sheds", "server_downs",
    "capacity_shrinks", "capacity_grows", "eviction_notices", "deflations",
]
HARVEST = NAMES[10:]


def _int_fields(cls):
    return {f.name for f in dataclasses.fields(cls) if f.type == "int"}


class TestTable:
    def test_rows_are_well_formed(self):
        assert len({row.name for row in COUNTERS}) == len(COUNTERS)
        for row in COUNTERS:
            assert row.event in EVENT_SCHEMAS, row
            if row.where is not None:
                assert row.where[0] in EVENT_SCHEMAS[row.event], row
            assert row.name in _int_fields(SimulationMetrics), row
            if row.per_tenant is not None:
                assert row.per_tenant in _int_fields(FunctionOutcome), row

    def test_eviction_rows_use_known_reasons(self):
        reasons = counter_table.eviction_counters()
        assert set(reasons) <= set(EVICTION_REASONS)
        assert "failure" not in reasons  # counted by the fault itself

    def test_every_view_has_the_same_keys_in_the_same_order(self):
        assert list(counter_table.counter_names()) == NAMES
        assert list(SimulationMetrics().counters()) == NAMES
        assert list(TraceReport().counters()) == NAMES
        assert list(SimulationMetrics().summary())[: len(NAMES)] == NAMES

    def test_fingerprint_drops_only_zero_harvest_counters(self):
        zeros = dict.fromkeys(NAMES, 0)
        assert fingerprint_counters(zeros) == {
            name: 0 for name in sorted(NAMES) if name not in HARVEST
        }
        ones = dict.fromkeys(NAMES, 1)
        assert fingerprint_counters(ones) == dict(sorted(ones.items()))
        assert list(fingerprint_counters(ones)) == sorted(NAMES)

    def test_a_new_row_reaches_every_view(self, monkeypatch):
        # One row, plus one storage field on SimulationMetrics (a class
        # attribute stands in for the dataclass field): nothing else.
        row = Counter("arrivals", "invocation_arrived")
        monkeypatch.setattr(counter_table, "COUNTERS", COUNTERS + (row,))
        monkeypatch.setattr(SimulationMetrics, "arrivals", 0, raising=False)
        trace = skewed_frequency_trace(seed=3)
        sink = ReportSink()
        result = simulate(trace, "GD", 2048.0, tracer=Tracer(sink))
        report = sink.report
        assert list(result.metrics.counters()) == NAMES + ["arrivals"]
        assert report.counters()["arrivals"] == len(trace.invocations)
        assert {**report.counters(), "arrivals": 0} == result.metrics.counters()
        point = point_from_result("GD", 2.0, result)
        assert list(point.counters) == NAMES + ["arrivals"]
        service = LivePoolService(trace, "GD", 2048.0, clock=SimClock())
        assert list(service.stats()["counters"]) == NAMES + ["arrivals"]
        assert list(service.counters()) == NAMES + ["arrivals"]


HARVEST_CHAOS = FaultSpec(
    seed=5,
    crash_rate=0.05,
    spawn_failure_rate=0.02,
    server_mtbf_s=900.0,
    server_recovery_s=60.0,
    harvest_interval_s=120.0,
    harvest_min_frac=0.1,
    harvest_max_frac=0.6,
    spot_mtbf_s=700.0,
    spot_notice_s=20.0,
)


def _assert_member_sums(result):
    totals = result.counters()
    assert list(totals) == NAMES
    for name in NAMES:
        members = sum(m.counters()[name] for m in result.per_server)
        assert totals[name] == members, name
        if name != "sheds":  # ClusterResult.sheds adds shed_unavailable
            assert getattr(result, name) == members, name
    assert result.served == totals["warm_starts"] + totals["cold_starts"]
    with pytest.raises(AttributeError):
        result.no_such_counter
    return totals


class TestClusterTotals:
    """Before the table, ``ClusterResult`` summed 7 of the 14 counters
    and ``ElasticClusterResult`` 11; both now report all of them."""

    def test_cluster_result_sums_every_counter(self):
        trace = skewed_frequency_trace(seed=2)
        result = ClusterSimulator(
            trace,
            "round-robin",
            num_servers=3,
            server_memory_mb=512.0,
            fault_spec=HARVEST_CHAOS,
        ).run()
        totals = _assert_member_sums(result)
        assert result.sheds == totals["sheds"] + result.shed_unavailable
        # The run exercises what used to be unreachable here.
        assert totals["deflations"] > 0 and totals["capacity_shrinks"] > 0
        assert totals["evictions"] > 0 and totals["faults_injected"] > 0

    def test_elastic_result_sums_every_counter(self):
        trace = skewed_frequency_trace(seed=2)
        result = ElasticClusterSimulation(
            trace,
            server_memory_mb=512.0,
            min_servers=2,
            max_servers=4,
            requests_per_server_per_s=0.05,
            control_period_s=300.0,
            fault_spec=HARVEST_CHAOS,
        ).run()
        totals = _assert_member_sums(result)
        # Retired and evicted servers stay in the sum.
        assert len(result.per_server) > 2
        assert totals["evictions"] > 0  # was not folded at all


class TestTenantFairness:
    def test_metrics_and_report_share_the_helper(self, monkeypatch):
        trace = noisy_neighbor_trace(duration_s=600.0, seed=4)
        sink = ReportSink()
        metrics = simulate(trace, "GD", 2048.0, tracer=Tracer(sink)).metrics
        report = sink.report
        assert metrics.tenant_counters() == report.tenant_counters()
        assert len(metrics.tenant_counters()) > 1
        assert metrics.jain_fairness_index == report.jain_fairness_index < 1.0
        seen = []
        monkeypatch.setattr(
            sim_metrics, "tenant_fairness", lambda c: seen.append(c) or -1.0
        )
        assert metrics.jain_fairness_index == -1.0
        assert report.jain_fairness_index == -1.0
        assert seen == [metrics.tenant_counters(), report.tenant_counters()]
