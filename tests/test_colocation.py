"""Tests for the colocated-application memory-pressure model."""

import pytest

from repro.checks.sanitize import check_counter_equality
from repro.obs.report import ReportSink
from repro.obs.tracer import Tracer
from repro.provisioning.colocation import (
    ColocatedDemand,
    ColocationSimulation,
    tradeoff_curve,
)
from repro.traces.columnar import ColumnarTrace
from repro.traces.synth import cyclic_trace
from tests.conftest import make_trace


class TestColocatedDemand:
    def test_piecewise_lookup(self):
        demand = ColocatedDemand([(0.0, 100.0), (50.0, 400.0), (90.0, 200.0)])
        assert demand.at(0.0) == 100.0
        assert demand.at(49.9) == 100.0
        assert demand.at(50.0) == 400.0
        assert demand.at(1000.0) == 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ColocatedDemand([])
        with pytest.raises(ValueError):
            ColocatedDemand([(10.0, 100.0)])  # undefined before t=10
        with pytest.raises(ValueError):
            ColocatedDemand([(0.0, 100.0), (0.0, 200.0)])  # duplicate
        with pytest.raises(ValueError):
            ColocatedDemand([(0.0, -5.0)])

    def test_peak(self):
        demand = ColocatedDemand([(0.0, 100.0), (10.0, 700.0)])
        assert demand.peak_mb == 700.0


class TestColocationSimulation:
    def make_sim(self, demand_steps, server_mb=4096.0):
        trace = cyclic_trace(num_functions=10, cycle_gap_s=2.0, num_cycles=100)
        return ColocationSimulation(
            trace,
            ColocatedDemand(demand_steps),
            server_memory_mb=server_mb,
            policy="GD",
        )

    def test_rejects_infeasible_demand(self):
        with pytest.raises(ValueError):
            self.make_sim([(0.0, 4096.0)])

    def test_constant_demand_matches_plain_simulation(self):
        from repro.sim.scheduler import simulate

        trace = cyclic_trace(num_functions=10, cycle_gap_s=2.0, num_cycles=100)
        sim = ColocationSimulation(
            trace,
            ColocatedDemand([(0.0, 1024.0)]),
            server_memory_mb=4096.0,
        )
        result = sim.run()
        plain = simulate(trace, "GD", 3072.0).metrics
        assert result.metrics.cold_starts == plain.cold_starts
        assert result.deflations == []

    def test_demand_spike_triggers_deflation(self):
        sim = self.make_sim([(0.0, 512.0), (500.0, 2560.0)])
        result = sim.run()
        assert result.deflations
        assert sim.simulator.pool.capacity_mb == pytest.approx(
            4096.0 - 2560.0
        )
        assert result.total_deflation_latency_s > 0.0

    def test_demand_release_reinflates(self):
        sim = self.make_sim(
            [(0.0, 512.0), (400.0, 2560.0), (1200.0, 512.0)]
        )
        result = sim.run()
        assert sim.simulator.pool.capacity_mb == pytest.approx(
            4096.0 - 512.0
        )
        times = [t for t, __ in result.capacity_timeline]
        assert times == sorted(times)

    def test_resizes_are_on_the_books_for_any_trace_form(self):
        """Demand changes are events on the simulator's timeline and go
        through its capacity seam: counted, traced, and the same over a
        columnar trace (the parent's own loop took ``Trace`` only and
        left ``capacity_shrinks`` / ``deflations`` at 0)."""
        steps = [(0.0, 512.0), (400.0, 3072.0), (1200.0, 512.0)]
        plain = self.make_sim(steps)
        expected = plain.run()
        sink = ReportSink()
        result = ColocationSimulation(
            ColumnarTrace.from_trace(plain.trace),
            ColocatedDemand(steps),
            server_memory_mb=4096.0,
            tracer=Tracer(sink),
        ).run()
        counters = result.metrics.counters()
        assert counters == expected.metrics.counters()
        assert result.capacity_timeline == expected.capacity_timeline
        check_counter_equality(sink.report, counters)
        assert (counters["capacity_shrinks"], counters["capacity_grows"]) == (1, 1)
        evicted = sum(r.evicted_containers for r in result.deflations)
        assert counters["deflations"] == evicted > 0

    def test_more_colocation_means_more_cold_starts(self):
        light = self.make_sim([(0.0, 512.0)]).run()
        heavy = self.make_sim([(0.0, 3072.0)]).run()
        assert heavy.metrics.cold_starts >= light.metrics.cold_starts


class TestTradeoffCurve:
    def test_monotone_frontier(self):
        trace = make_trace("ABCDEFGH" * 30, gap_s=2.0)
        rows = tradeoff_curve(
            trace,
            server_memory_mb=4096.0,
            colocated_levels_mb=[0.0, 1024.0, 2048.0, 3072.0],
        )
        cold_ratios = [cold for __, cold, __ in rows]
        predictions = [miss for __, __, miss in rows]
        assert cold_ratios == sorted(cold_ratios)
        assert predictions == sorted(predictions)
        # Prediction tracks measurement.
        for __, cold, predicted in rows:
            assert abs(cold - predicted) < 0.25

    def test_rejects_oversubscription(self):
        trace = make_trace("AB")
        with pytest.raises(ValueError):
            tradeoff_curve(trace, 1000.0, [1000.0])
