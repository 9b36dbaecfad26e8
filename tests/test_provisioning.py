"""Tests for static provisioning, the controller, deflation, and autoscale."""

import pytest

from repro.checks.sanitize import check_counter_equality
from repro.core.policies import create_policy
from repro.faults import FaultSpec
from repro.obs.report import ReportSink
from repro.obs.tracer import Tracer
from repro.provisioning.autoscale import AutoscaledSimulation
from repro.provisioning.controller import ProportionalController
from repro.provisioning.deflation import DeflationEngine
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.static_provisioning import (
    StaticProvisioner,
    curve_from_trace,
)
from repro.sim.config import RunConfig
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import churn_trace, cyclic_trace
from tests.conftest import from_columns, make_container, make_function, make_trace


def simple_curve():
    """HR: 0.25@100, 0.5@200, 0.75@300, 1.0@400."""
    return HitRatioCurve.from_distances([100.0, 200.0, 300.0, 400.0])


class TestStaticProvisioner:
    def test_target_hit_ratio_strategy(self):
        p = StaticProvisioner(simple_curve(), target_hit_ratio=0.75)
        decision = p.decide()
        assert decision.memory_mb == 300.0
        assert decision.predicted_hit_ratio == pytest.approx(0.75)
        assert decision.strategy == "target-hit-ratio"

    def test_unreachable_target_falls_back_to_working_set(self):
        curve = HitRatioCurve.from_distances([100.0, float("inf")])
        p = StaticProvisioner(curve, target_hit_ratio=0.9)
        assert p.decide().memory_mb == 100.0

    def test_inflection_strategy(self):
        distances = [10.0] * 50 + [5000.0, 9000.0]
        curve = HitRatioCurve.from_distances(distances)
        p = StaticProvisioner(curve, strategy="inflection")
        decision = p.decide()
        assert decision.memory_mb < 5000.0
        assert decision.predicted_hit_ratio > 0.9

    def test_headroom(self):
        p = StaticProvisioner(
            simple_curve(), target_hit_ratio=0.5, headroom_fraction=0.1
        )
        assert p.decide().memory_mb == pytest.approx(220.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            StaticProvisioner(simple_curve(), strategy="vibes")

    def test_curve_from_trace(self):
        curve = curve_from_trace(make_trace("ABAB"))
        assert 0.0 < curve.max_hit_ratio <= 1.0

    def test_decision_memory_gb(self):
        p = StaticProvisioner(simple_curve(), target_hit_ratio=0.5)
        assert p.decide().memory_gb == pytest.approx(200.0 / 1024.0)


class TestProportionalController:
    def make_controller(self, **kwargs):
        defaults = dict(
            curve=simple_curve(),
            target_miss_speed=1.0,
            initial_size_mb=200.0,
            control_period_s=100.0,
            ewma_alpha=1.0,  # no smoothing: deterministic tests
        )
        defaults.update(kwargs)
        return ProportionalController(**defaults)

    def test_within_deadband_no_resize(self):
        c = self.make_controller(deadband=0.3)
        # miss speed 1.2/s vs target 1.0/s: 20% error, inside deadband.
        decision = c.step(100.0, arrivals_in_period=400, cold_starts_in_period=120)
        assert not decision.resized
        assert c.cache_size_mb == 200.0

    def test_miss_speed_above_target_grows_cache(self):
        c = self.make_controller()
        # arrivals 400 -> rate 4/s; colds 200 -> miss speed 2/s (2x target).
        decision = c.step(100.0, 400, 200)
        assert decision.resized
        # Equation 3: HR(c') = 1 - 1.0/4.0 = 0.75 -> 300 MB.
        assert c.cache_size_mb == 300.0

    def test_miss_speed_below_target_shrinks_cache(self):
        c = self.make_controller(initial_size_mb=400.0)
        # rate 4/s, colds 10 -> 0.1/s, well below target 1/s.
        decision = c.step(100.0, 400, 10)
        assert decision.resized
        assert c.cache_size_mb == 300.0  # HR target 0.75 again

    def test_low_arrival_rate_allows_minimum(self):
        c = self.make_controller(min_size_mb=50.0)
        # rate 0.5/s < target miss speed 1/s: even size 0 misses slowly
        # enough, so clamp to the minimum.
        decision = c.step(100.0, 50, 40)
        assert decision.resized
        assert c.cache_size_mb == 50.0

    def test_clamped_to_max(self):
        c = self.make_controller(max_size_mb=250.0)
        c.step(100.0, 400, 399)  # wants a huge cache
        assert c.cache_size_mb <= 250.0

    def test_history_records_every_step(self):
        c = self.make_controller()
        for i in range(5):
            c.step(100.0 * (i + 1), 100, 50)
        assert len(c.history) == 5

    def test_mean_cache_size(self):
        c = self.make_controller()
        c.step(100.0, 400, 200)  # resize to 300
        c.step(200.0, 400, 100)  # 1/s == target: no resize
        assert c.mean_cache_size_mb() == pytest.approx(300.0)

    def test_from_miss_ratio_target(self):
        c = ProportionalController.from_miss_ratio_target(
            simple_curve(),
            desired_miss_ratio=0.1,
            mean_arrival_rate=10.0,
            initial_size_mb=200.0,
        )
        assert c.target_miss_speed == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProportionalController(simple_curve(), 0.0, 100.0)
        with pytest.raises(ValueError):
            ProportionalController(
                simple_curve(), 1.0, 100.0, min_size_mb=200.0, max_size_mb=100.0
            )
        with pytest.raises(ValueError):
            ProportionalController.from_miss_ratio_target(
                simple_curve(), 1.5, 10.0, 100.0
            )


class TestDeflationEngine:
    """The capacity seam (``KeepAliveSimulator.set_capacity``) makes the
    resize; the engine prices what it did."""

    def setup_server(self, capacity=1000.0, idle_sizes=(200.0, 200.0, 200.0)):
        """One idle container per size on an LRU server, oldest first."""
        functions = [
            make_function(f"f{i}", memory_mb=mb, warm_time_s=100.0, cold_time_s=100.0)
            for i, mb in enumerate(idle_sizes)
        ]
        sim = KeepAliveSimulator(Trace(functions, []), create_policy("LRU"), capacity)
        containers = []
        for i, function in enumerate(functions):
            c = make_container(function, float(i))
            c.last_used_s = float(i)
            sim.pool.add(c)
            containers.append(c)
        return sim, containers

    def resize(self, sim, target_mb, engine=None, now_s=10.0):
        old_mb = sim.pool.capacity_mb
        victims = sim.set_capacity(now_s, target_mb)
        return (engine or DeflationEngine()).report(
            target_mb, old_mb, sim.pool.capacity_mb, victims
        )

    def test_inflation_is_free(self):
        sim, __ = self.setup_server()
        report = self.resize(sim, 2000.0)
        assert report.latency_s == 0.0
        assert sim.pool.capacity_mb == 2000.0
        assert report.achieved_mb == report.requested_mb == 2000.0
        assert report.evicted_containers == 0 and report.hot_unplug_mb == 0.0

    def test_deflation_evicts_in_priority_order(self):
        sim, containers = self.setup_server()
        report = self.resize(sim, 350.0)
        pool = sim.pool
        assert pool.capacity_mb == pytest.approx(350.0)
        assert pool.used_mb <= 350.0
        # LRU: the two oldest idle containers die first.
        assert containers[0] not in pool
        assert containers[1] not in pool
        assert containers[2] in pool
        assert report.evicted_containers == 2
        assert report.pool_shrink_mb == 400.0
        assert sim.metrics.deflations == 2 and sim.metrics.capacity_shrinks == 1

    def test_running_containers_set_the_floor(self):
        """Below what busy containers hold the shrink is deferred: the
        report carries the size at actuation, the pool reaches the
        *requested* size as the invocations finish (the parent clamped
        the target to 600 MB and stayed there)."""
        sim, __ = self.setup_server(idle_sizes=())
        for i in range(3):
            function = make_function(f"busy{i}", memory_mb=200.0, cold_time_s=100.0)
            assert sim.process_invocation(function, 5.0) == "cold"
        report = self.resize(sim, 100.0)
        assert report.achieved_mb == pytest.approx(600.0)
        assert report.evicted_containers == 0
        assert sim.pool.capacity_mb == pytest.approx(600.0)
        assert sim.pool.deflation_deferred_mb == pytest.approx(500.0)
        sim.housekeeping(200.0)  # all three finished at 105 s
        assert sim.pool.capacity_mb == pytest.approx(100.0)
        assert sim.pool.used_mb <= 100.0
        assert sim.pool.deflation_target_mb is None
        assert sim.metrics.deflations == 3 and sim.metrics.capacity_shrinks == 1

    def test_latency_model(self):
        sim, __ = self.setup_server()
        engine = DeflationEngine(
            hot_unplug_s_per_gb=1.0, page_swap_s_per_gb=10.0, unplug_fraction=0.5
        )
        report = self.resize(sim, 1000.0 - 1024.0 * 0.5, engine)
        # Half a GB reclaimed: 0.25 GB unplug (0.25 s) + 0.25 GB swap (2.5 s).
        assert report.latency_s == pytest.approx(0.25 * 1.0 + 0.25 * 10.0)
        assert report.hot_unplug_mb == pytest.approx(256.0)
        assert report.page_swap_mb == pytest.approx(256.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeflationEngine(unplug_fraction=1.5)
        sim, __ = self.setup_server()
        with pytest.raises(ValueError):
            sim.set_capacity(1.0, 0.0)


class TestAutoscaledSimulation:
    def test_end_to_end_controller_tracks_target(self):
        trace = cyclic_trace(num_functions=20, cycle_gap_s=2.0, num_cycles=120)
        curve = curve_from_trace(trace)
        controller = ProportionalController(
            curve,
            target_miss_speed=0.05,
            initial_size_mb=2048.0,
            control_period_s=300.0,
            max_size_mb=16_384.0,
        )
        result = AutoscaledSimulation(trace, controller, policy="GD").run()
        assert result.decisions  # controller ran
        assert result.metrics.served > 0
        # Sizes stay within the configured bounds.
        for decision in result.decisions:
            assert 128.0 <= decision.cache_size_mb <= 16_384.0

    def test_resize_applies_to_pool(self):
        trace = cyclic_trace(num_functions=10, cycle_gap_s=5.0, num_cycles=200)
        curve = curve_from_trace(trace)
        controller = ProportionalController(
            curve,
            target_miss_speed=10.0,  # absurdly lax: shrink hard
            initial_size_mb=8192.0,
            control_period_s=100.0,
            deadband=0.0,
        )
        sim = AutoscaledSimulation(trace, controller, policy="GD")
        result = sim.run()
        assert result.deflations  # at least one actuation happened
        assert sim.simulator.pool.capacity_mb < 8192.0

    def test_savings_vs_static(self):
        trace = cyclic_trace(num_functions=10, cycle_gap_s=5.0, num_cycles=100)
        curve = curve_from_trace(trace)
        controller = ProportionalController(
            curve,
            target_miss_speed=10.0,
            initial_size_mb=8192.0,
            control_period_s=100.0,
            deadband=0.0,
        )
        result = AutoscaledSimulation(trace, controller).run()
        assert result.savings_vs_static(8192.0) > 0.0
        with pytest.raises(ValueError):
            result.savings_vs_static(0.0)

    def test_counters_account_for_every_controller_resize(self):
        trace = churn_trace()
        curve = curve_from_trace(trace)
        static_mb = curve.required_size(min(0.95, curve.max_hit_ratio))
        controller = ProportionalController.from_miss_ratio_target(
            curve,
            desired_miss_ratio=0.2,
            mean_arrival_rate=trace.arrival_rate(),
            initial_size_mb=static_mb,
            max_size_mb=static_mb,
            control_period_s=600.0,
        )
        result = AutoscaledSimulation(trace, controller, policy="GD").run()
        resizes = sum(1 for decision in result.decisions if decision.resized)
        evicted = sum(report.evicted_containers for report in result.deflations)
        assert resizes > 0 and evicted > 0
        metrics = result.metrics
        assert metrics.capacity_shrinks + metrics.capacity_grows == resizes
        assert metrics.deflations == evicted


class TestControllerOnTheOneTimeline:
    """The controller is a periodic event on the simulator's timeline
    and resizes through its capacity seam, so everything the simulator
    offers — the event stream, the sanitizer, every trace form, tenant
    modes, deferral — reaches the Figure 9 experiment."""

    def trace(self):
        return churn_trace(300, 6000.0)  # 11,630 arrivals, 3 resizes

    def autoscaled(self, trace, curve_of=None, **simulation):
        curve = curve_from_trace(curve_of or trace)
        static_mb = curve.required_size(min(0.95, curve.max_hit_ratio))
        controller = ProportionalController.from_miss_ratio_target(
            curve,
            desired_miss_ratio=0.2,
            mean_arrival_rate=(curve_of or trace).arrival_rate(),
            initial_size_mb=static_mb,
            max_size_mb=static_mb,
            control_period_s=600.0,
        )
        return AutoscaledSimulation(trace, controller, policy="GD", **simulation).run()

    def test_traced_run_passes_the_trace_report_check(self):
        sink = ReportSink()
        result = self.autoscaled(self.trace(), tracer=Tracer(sink))
        # What ``trace-report --check`` runs.
        check_counter_equality(sink.report, result.metrics.counters())
        resizes = sum(1 for decision in result.decisions if decision.resized)
        evicted = sum(report.evicted_containers for report in result.deflations)
        events = sink.report.event_counts
        assert (resizes, evicted) == (3, 76)
        assert events["capacity_shrunk"] + events["capacity_grown"] == resizes
        assert events["container_deflated"] == evicted

    def test_green_under_the_sanitizer(self, sanitized):
        result = self.autoscaled(self.trace())
        assert result.metrics.capacity_shrinks + result.metrics.capacity_grows == 3

    def test_closing_partial_period_resize_is_on_the_books(self):
        """It lands after ``finalize`` (so after the sanitizer's own
        check): held to the same equality here."""
        functions = [make_function(f"f{i}", 200.0, 1.0, 2.0) for i in range(4)]
        trace = Trace(functions, [Invocation(float(i), f"f{i}") for i in range(4)])
        sink = ReportSink()
        sim = AutoscaledSimulation(
            trace, self.lax_controller(1000.0, 300.0), tracer=Tracer(sink)
        )
        result = sim.run()
        assert [d.time_s for d in result.decisions if d.resized] == [100.0]
        # f2 and f3 still read as running (release is lazy): deferred.
        assert (result.metrics.capacity_shrinks, result.metrics.deflations) == (1, 2)
        check_counter_equality(sink.report, result.metrics.counters())

    @pytest.mark.parametrize(
        "config",
        [RunConfig(warmup_s=60.0), RunConfig(fault_spec=FaultSpec(spawn_failure_rate=0.1))],
        ids=["warmup", "faults"],
    )
    def test_a_config_the_counters_cannot_serve_is_refused(self, config):
        """The controller reads ``metrics.total_requests`` /
        ``cold_starts``: both skip warm-up arrivals (it would see an
        idle server and shrink) and shed or late-counted retries."""
        with pytest.raises(ValueError, match="warmup_s or fault_spec"):
            AutoscaledSimulation(self.trace(), self.lax_controller(1000.0, 300.0), config=config)

    def test_columnar_trace_replays_to_the_same_decisions(self):
        trace = self.trace()
        over_objects = self.autoscaled(trace)
        over_columns = self.autoscaled(from_columns(trace), curve_of=trace)
        assert over_columns.decisions == over_objects.decisions
        assert over_columns.deflations == over_objects.deflations
        assert over_columns.metrics.counters() == over_objects.metrics.counters()

    def lax_controller(self, initial_mb, min_mb):
        """Shrinks to ``min_mb`` at its first tick (100 s): any cache
        misses slowly enough for a target this lax."""
        return ProportionalController(
            simple_curve(), target_miss_speed=10.0, initial_size_mb=initial_mb,
            min_size_mb=min_mb, control_period_s=100.0, deadband=0.0,
        )

    def test_quota_mode_shrink_evicts_over_quota_tenants_first(self):
        """LRU alone would take tenant 2's b0 and b1, the oldest; tenant
        1 holds 400 MB against a 200 MB quota, so its containers go
        first (``DeflationEngine.resize`` never saw a tenant)."""
        functions = [
            TraceFunction(f"{name}{i}", 100.0, 1.0, 2.0, tenant_id=tenant)
            for name, tenant, count in (("b", 2, 2), ("a", 1, 4))
            for i in range(count)
        ]
        arrivals = [(float(i), f.name) for i, f in enumerate(functions)]
        # a3 again at 60 s releases the rest; at the tick it still reads
        # as running (release is lazy), so five containers are idle.
        arrivals += [(60.0, "a3"), (150.0, "b1")]
        trace = Trace(functions, [Invocation(t, name) for t, name in arrivals])
        sim = AutoscaledSimulation(
            trace, self.lax_controller(1000.0, 400.0), policy="LRU",
            config=RunConfig(tenant_mode="quota", tenant_quotas={1: 200.0, 2: 600.0}),
        )
        result = sim.run()
        assert [r.evicted_containers for r in result.deflations] == [2]
        assert sorted(sim.simulator.pool.function_names()) == ["a2", "a3", "b0", "b1"]

    def test_shrink_below_the_running_floor_is_deferred_not_clamped(self):
        functions = [make_function(f"f{i}", 200.0, 500.0, 600.0) for i in range(4)]
        arrivals = [(float(i), f"f{i}") for i in range(4)] + [(150.0, "f0")]
        trace = Trace(functions, [Invocation(t, name) for t, name in arrivals])
        controller = self.lax_controller(1000.0, 300.0)
        sim = AutoscaledSimulation(trace, controller)
        result = sim.run()
        (report,) = result.deflations
        # The size at actuation; the controller keeps what it asked for
        # (the parent wrote 800 back into it and never shrank further).
        assert (report.requested_mb, report.achieved_mb) == (300.0, 800.0)
        assert controller.cache_size_mb == 300.0
        assert result.metrics.dropped == 1  # f0 at 150 s: every MB busy, none to admit
        pool = sim.simulator.pool
        assert pool.capacity_mb == 800.0 and pool.deflation_target_mb == 300.0
        sim.simulator.housekeeping(1000.0)
        assert pool.capacity_mb == 300.0 and pool.used_mb <= 300.0
        assert result.metrics.capacity_shrinks == 1
        assert result.metrics.deflations == 3
