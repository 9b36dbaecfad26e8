"""Edge-case coverage for metrics, server config, and boundary paths."""

import pytest

from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.server import GB_MB, ServerConfig
from tests.conftest import make_function, make_trace


class TestFunctionOutcome:
    def test_counters_and_ratios(self):
        o = FunctionOutcome(warm=3, cold=1, dropped=2)
        assert o.served == 4
        assert o.total == 6
        assert o.hit_ratio == pytest.approx(0.75)

    def test_empty_outcome(self):
        o = FunctionOutcome()
        assert o.hit_ratio == 0.0
        assert o.total == 0


class TestSimulationMetricsDirect:
    def test_empty_metrics(self):
        m = SimulationMetrics()
        assert m.cold_start_ratio == 0.0
        assert m.hit_ratio == 0.0
        assert m.global_hit_ratio == 0.0
        assert m.drop_ratio == 0.0
        assert m.exec_time_increase_pct == 0.0
        assert m.mean_memory_mb == 0.0

    def test_record_warm_with_actual_time(self):
        m = SimulationMetrics()
        m.record_warm("f", warm_time_s=1.0, actual_time_s=3.0)
        assert m.ideal_exec_time_s == 1.0
        assert m.actual_exec_time_s == 3.0
        assert m.warm_starts == 1

    def test_record_cold_accounting(self):
        m = SimulationMetrics()
        m.record_cold("f", warm_time_s=1.0, cold_time_s=4.0)
        assert m.added_exec_time_s == pytest.approx(3.0)
        assert m.exec_time_increase_pct == pytest.approx(300.0)

    def test_mean_memory_time_weighted(self):
        m = SimulationMetrics()
        m.memory_timeline = [(0.0, 100.0), (10.0, 300.0), (30.0, 0.0)]
        # 100 MB for 10 s, 300 MB for 20 s -> (1000 + 6000) / 30.
        assert m.mean_memory_mb == pytest.approx(7000.0 / 30.0)

    def test_mean_memory_single_sample(self):
        m = SimulationMetrics()
        m.memory_timeline = [(5.0, 123.0)]
        assert m.mean_memory_mb == 123.0

    def test_mean_memory_zero_span(self):
        m = SimulationMetrics()
        m.memory_timeline = [(5.0, 100.0), (5.0, 200.0)]
        assert m.mean_memory_mb == 200.0

    def test_per_function_isolated(self):
        m = SimulationMetrics()
        m.record_warm("a", 1.0)
        m.record_dropped("b")
        assert m.per_function["a"].warm == 1
        assert m.per_function["b"].dropped == 1
        assert "c" not in m.per_function


class TestServerConfig:
    def test_gb_round_trip(self):
        config = ServerConfig.with_memory_gb(48.0)
        assert config.memory_mb == 48.0 * GB_MB
        assert config.memory_gb == pytest.approx(48.0)

    def test_paper_default_cores(self):
        assert ServerConfig(memory_mb=1024.0).cpu_cores == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(memory_mb=0.0)
        with pytest.raises(ValueError):
            ServerConfig(memory_mb=1024.0, cpu_cores=0)


class TestControllerBoundaries:
    def make(self, deadband):
        from repro.provisioning.controller import ProportionalController
        from repro.provisioning.hit_ratio import HitRatioCurve

        curve = HitRatioCurve.from_distances([100.0, 200.0, 300.0, 400.0])
        return ProportionalController(
            curve,
            target_miss_speed=1.0,
            initial_size_mb=200.0,
            control_period_s=100.0,
            ewma_alpha=1.0,
            deadband=deadband,
        )

    def test_error_inside_deadband_does_not_resize(self):
        controller = self.make(deadband=0.3)
        # miss speed 1.29/s -> error fraction 0.29, inside the band.
        decision = controller.step(100.0, 400, 129)
        assert decision.error_fraction == pytest.approx(0.29)
        assert not decision.resized

    def test_error_just_past_deadband_resizes(self):
        controller = self.make(deadband=0.3)
        decision = controller.step(100.0, 400, 140)  # 40% error
        assert decision.resized

    def test_zero_deadband_always_acts_on_error(self):
        controller = self.make(deadband=0.0)
        decision = controller.step(100.0, 400, 101)
        assert decision.error_fraction > 0.0
        # Equation 3 may still land on the same size, but the step
        # must have evaluated (non-resize only if size is unchanged).
        assert decision.cache_size_mb >= 100.0

    def test_no_arrivals_period(self):
        controller = self.make(deadband=0.3)
        decision = controller.step(100.0, 0, 0)
        # Miss speed 0 vs target 1: 100% error, but the smoothed rate
        # is 0, so Equation 3 cannot be applied — size must not blow up.
        assert decision.cache_size_mb == 200.0


class TestControlPeriod:
    """A control period that is not > 0 would divide by zero (0), run
    the timeline backwards (< 0) or poison the rates (NaN)."""

    @pytest.mark.parametrize("period_s", [0.0, -5.0, float("nan")])
    def test_rejected_at_construction(self, period_s):
        from repro.provisioning.controller import ProportionalController
        from repro.provisioning.hit_ratio import HitRatioCurve

        curve = HitRatioCurve.from_distances([100.0, 200.0])
        with pytest.raises(ValueError, match="control period"):
            ProportionalController(
                curve, target_miss_speed=1.0, initial_size_mb=200.0,
                control_period_s=period_s,
            )


class TestNanCapacity:
    """A NaN pool passes a ``<= 0`` test, and the TTL kernel's routing
    (``footprint > nan`` is False) and the loop then answered the same
    run differently; every path refuses it as it refuses 0."""

    NAN = float("nan")

    @pytest.mark.parametrize("policy", ["GD", "LRU", "TTL", "HIST"])
    @pytest.mark.parametrize("engine", ["columnar", "object"])
    def test_simulate_raises(self, policy, engine):
        from repro.sim.scheduler import simulate
        from repro.traces.synth import cyclic_trace

        with pytest.raises(ValueError, match="capacity must be positive"):
            simulate(cyclic_trace(), policy, self.NAN, engine=engine)

    def test_pool_and_resize_raise(self):
        from repro.core.pool import ContainerPool

        with pytest.raises(ValueError, match="capacity must be positive"):
            ContainerPool(self.NAN)
        pool = ContainerPool(1024.0)
        with pytest.raises(ValueError, match="capacity must be positive"):
            pool.set_capacity(self.NAN)
        with pytest.raises(ValueError, match="capacity must be positive"):
            pool.deflate_to(self.NAN, [])

    def test_gd_kernel_and_live_service_raise(self):
        from repro.core.policies.greedy_dual import GreedyDualPolicy
        from repro.live.service import LivePoolService
        from repro.sim.columnar import run_gd_kernel
        from repro.traces.synth import cyclic_trace

        with pytest.raises(ValueError, match="capacity must be positive"):
            run_gd_kernel(cyclic_trace(), GreedyDualPolicy(), self.NAN)
        with pytest.raises(ValueError, match="capacity must be positive"):
            LivePoolService(cyclic_trace(), "GD", self.NAN)

    def test_infinite_capacity_still_runs(self):
        from repro.sim.scheduler import simulate
        from repro.traces.synth import cyclic_trace

        trace = cyclic_trace()
        fast = simulate(trace, "GD", float("inf"))
        loop = simulate(trace, "GD", float("inf"), engine="object")
        assert fast.metrics.counters() == loop.metrics.counters()


class TestInvokerQueueEdges:
    def test_zero_capacity_queue_drops_everything_unservable(self):
        from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
        from repro.traces.model import Invocation, Trace

        f = make_function("A", memory_mb=10.0, warm_time_s=100.0,
                          cold_time_s=110.0)
        trace = Trace(
            [f], [Invocation(0.0, "A"), Invocation(0.1, "A"), Invocation(0.2, "A")]
        )
        result = SimulatedInvoker(
            InvokerConfig(memory_mb=1024.0, cpu_cores=1, queue_capacity=0,
                          max_concurrent_launches=1),
            policy="GD",
        ).run(trace)
        assert result.served == 1
        assert result.dropped == 2

    def test_empty_trace(self):
        from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
        from repro.traces.model import Trace

        trace = Trace([make_function("A")], [])
        result = SimulatedInvoker(
            InvokerConfig(memory_mb=1024.0), policy="GD"
        ).run(trace)
        assert result.total == 0
        assert result.mean_latency_s() == 0.0
        assert result.percentile_latency_s(99.0) == 0.0
        assert result.mean_queue_wait_s() == 0.0

    def test_function_larger_than_pool_drops(self):
        from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
        from repro.traces.model import Invocation, Trace

        f = make_function("A", memory_mb=4096.0)
        trace = Trace([f], [Invocation(0.0, "A")])
        result = SimulatedInvoker(
            InvokerConfig(memory_mb=1024.0, request_timeout_s=5.0),
            policy="GD",
        ).run(trace)
        assert result.dropped == 1


class TestSimulatorMisbehaviourContracts:
    def test_policy_returning_running_victim_raises(self):
        """The pool's no-running-evictions invariant is enforced even
        against a buggy policy."""
        from repro.core.policies.base import KeepAlivePolicy
        from repro.sim.scheduler import KeepAliveSimulator
        from repro.traces.model import Invocation, Trace

        class EvilPolicy(KeepAlivePolicy):
            name = "EVIL"

            def priority(self, container, now_s):
                return 0.0

            def select_victims(self, pool, needed_mb, now_s):
                running = pool.running_containers()
                return list(running) if running else []

        a = make_function("A", memory_mb=600.0, warm_time_s=50.0,
                          cold_time_s=60.0)
        b = make_function("B", memory_mb=600.0)
        trace = Trace([a, b], [Invocation(0.0, "A"), Invocation(1.0, "B")])
        sim = KeepAliveSimulator(trace, EvilPolicy(), 1000.0)
        with pytest.raises(RuntimeError):
            sim.run()
