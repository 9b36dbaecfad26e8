"""Tests for static provisioning, the controller, deflation, and autoscale."""

import pytest

from repro.core.container import Container
from repro.core.policies import create_policy
from repro.core.pool import ContainerPool
from repro.provisioning.autoscale import AutoscaledSimulation
from repro.provisioning.controller import ProportionalController
from repro.provisioning.deflation import DeflationEngine
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.static_provisioning import (
    StaticProvisioner,
    curve_from_trace,
)
from repro.traces.synth import cyclic_trace
from tests.conftest import make_function, make_trace


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
        assert c.resize_count() <= 5

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
    def setup_pool(self, capacity=1000.0, idle_sizes=(200.0, 200.0, 200.0)):
        pool = ContainerPool(capacity)
        policy = create_policy("LRU")
        containers = []
        for i, mb in enumerate(idle_sizes):
            c = Container(make_function(f"f{i}", memory_mb=mb), float(i))
            c.last_used_s = float(i)
            pool.add(c)
            containers.append(c)
        return pool, policy, containers

    def test_inflation_is_free(self):
        pool, policy, __ = self.setup_pool()
        report = DeflationEngine().resize(pool, policy, 2000.0, 10.0)
        assert report.latency_s == 0.0
        assert pool.capacity_mb == 2000.0
        assert report.fully_achieved

    def test_deflation_evicts_in_priority_order(self):
        pool, policy, containers = self.setup_pool()
        report = DeflationEngine().resize(pool, policy, 350.0, 10.0)
        assert pool.capacity_mb == pytest.approx(350.0)
        assert pool.used_mb <= 350.0
        # LRU: the two oldest idle containers die first.
        assert containers[0] not in pool
        assert containers[1] not in pool
        assert containers[2] in pool
        assert report.evicted_containers == 2

    def test_running_containers_set_the_floor(self):
        pool, policy, containers = self.setup_pool()
        for c in containers:
            c.start_invocation(5.0, 100.0)
        report = DeflationEngine().resize(pool, policy, 100.0, 10.0)
        assert report.achieved_mb == pytest.approx(600.0)
        assert not report.fully_achieved
        assert pool.capacity_mb == pytest.approx(600.0)

    def test_latency_model(self):
        pool, policy, __ = self.setup_pool()
        engine = DeflationEngine(
            hot_unplug_s_per_gb=1.0, page_swap_s_per_gb=10.0, unplug_fraction=0.5
        )
        report = engine.resize(pool, policy, 1000.0 - 1024.0 * 0.5, 10.0)
        # Half a GB reclaimed: 0.25 GB unplug (0.25 s) + 0.25 GB swap (2.5 s).
        assert report.latency_s == pytest.approx(0.25 * 1.0 + 0.25 * 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeflationEngine(unplug_fraction=1.5)
        pool, policy, __ = self.setup_pool()
        with pytest.raises(ValueError):
            DeflationEngine().resize(pool, policy, 0.0, 1.0)


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

    def test_timelines_align_with_decisions(self):
        trace = cyclic_trace(num_functions=8, cycle_gap_s=2.0, num_cycles=100)
        curve = curve_from_trace(trace)
        controller = ProportionalController(
            curve, target_miss_speed=0.1, initial_size_mb=2048.0,
            control_period_s=120.0,
        )
        result = AutoscaledSimulation(trace, controller).run()
        assert len(result.size_timeline()) == len(result.decisions)
        assert len(result.miss_speed_timeline()) == len(result.decisions)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2 (one timeline): the controller resizes through "
        "DeflationEngine.resize, a third deflation path past the scheduler's one "
        "_evict, so its 7 resizes and 363 evictions on this run leave "
        "capacity_shrinks / capacity_grows / deflations at 0 and emit no event. "
        "The PR that makes the controller an event source on the replay loop "
        "flips this test instead of rediscovering the fault.",
    )
    def test_counters_account_for_every_controller_resize(self):
        from repro.bench import churn_trace

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
