"""Tests for the Figure 4 loop: controller attached to the invoker."""

from types import SimpleNamespace

import pytest

from repro.checks.sanitize import check_counter_equality
from repro.core.policies import create_policy
from repro.obs.report import ReportSink
from repro.obs.tracer import Tracer
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.provisioning.controller import ProportionalController
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.traces.model import Invocation, Trace
from repro.traces.synth import multitenant_trace
from tests.conftest import make_function


@pytest.fixture(scope="module")
def trace():
    return multitenant_trace(duration_s=3600.0, num_tenants=24)


@pytest.fixture(scope="module")
def curve(trace):
    return HitRatioCurve.from_distances(reuse_distances(trace))


def make_controller(curve, trace, initial_mb, **kwargs):
    defaults = dict(
        desired_miss_ratio=0.05,
        mean_arrival_rate=trace.arrival_rate(),
        initial_size_mb=initial_mb,
        max_size_mb=initial_mb,
        control_period_s=300.0,
    )
    defaults.update(kwargs)
    return ProportionalController.from_miss_ratio_target(curve, **defaults)


class TestAutoscaledInvoker:
    def test_controller_runs_and_records_history(self, trace, curve):
        controller = make_controller(curve, trace, 8192.0)
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=8192.0, cpu_cores=16),
            policy="GD",
            controller=controller,
        )
        result = invoker.run(trace)
        assert result.total == len(trace)
        # Roughly one decision per 300 s period over the hour.
        assert 10 <= len(controller.history) <= 14

    def test_oversized_pool_gets_deflated(self, trace, curve):
        controller = make_controller(curve, trace, 16_384.0, deadband=0.1)
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=16_384.0, cpu_cores=16),
            policy="GD",
            controller=controller,
        )
        invoker.run(trace)
        # The workload needs far less than 16 GB; the controller must
        # have shrunk the pool at least once.
        assert invoker.deflations
        assert invoker.simulator.pool.capacity_mb < 16_384.0

    def test_static_invoker_unaffected(self, trace):
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=8192.0, cpu_cores=16), policy="GD"
        )
        invoker.run(trace)
        assert invoker.deflations == []
        assert invoker.simulator.pool.capacity_mb == 8192.0

    @pytest.mark.parametrize("max_mb", [None, 8192.5])
    def test_controller_above_the_invokers_memory_refused(self, curve, trace, max_mb):
        """An uncapped controller once grew a 4,096 MB invoker's pool to
        32,960 MB: the pool cannot outgrow the invoker's memory."""
        controller = make_controller(curve, trace, 4096.0, max_size_mb=max_mb)
        with pytest.raises(ValueError, match="max_size_mb must be at most the invoker's memory_mb"):
            SimulatedInvoker(InvokerConfig(memory_mb=8192.0), policy="GD", controller=controller)

    def test_default_deflation_engine_created(self, curve, trace):
        controller = make_controller(curve, trace, 8192.0)
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=8192.0), policy="GD",
            controller=controller,
        )
        assert invoker.deflation_engine is not None

    def test_service_continues_after_deflation(self, trace, curve):
        controller = make_controller(curve, trace, 16_384.0, deadband=0.1)
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=16_384.0, cpu_cores=16),
            policy="GD",
            controller=controller,
        )
        result = invoker.run(trace)
        # Deflation must not strand requests: everything is accounted
        # for and the drop share stays small on this over-provisioned
        # server.
        assert result.served + result.dropped == result.total
        assert result.dropped < 0.05 * result.total


class _ShrinkOnce:
    """A controller that asks for ``size_mb`` once, at its first tick."""

    control_period_s = 1.0
    max_size_mb = 1000.0

    def __init__(self, size_mb):
        self.size_mb = size_mb
        self.ticks = 0

    def reset(self):
        self.ticks = 0

    def step(self, now_s, arrivals, colds):
        self.ticks += 1
        return SimpleNamespace(resized=self.ticks == 1, cache_size_mb=self.size_mb)


class TestInvokerPoolResize:
    def test_shrink_below_busy_memory_lands_at_release(self):
        """The invoker's seam is the simulator's: deferral, not the
        clamp ``DeflationEngine.resize`` applied."""
        functions = [
            make_function(f"f{i}", memory_mb=200.0, warm_time_s=1.0, cold_time_s=5.0)
            for i in range(3)
        ]
        arrivals = [Invocation(0.0, f"f{i}") for i in range(3)] + [Invocation(6.0, "f2")]
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=1000.0, max_concurrent_launches=8),
            create_policy("LRU"),
            cold_start_model=ColdStartModel(0.0, 0.0, 0.0),
            controller=_ShrinkOnce(300.0),
        )
        result = invoker.run(Trace(functions, arrivals))
        # At 1 s everything is busy: nothing evicted, capacity clamped to
        # the 600 MB in use; the rest lands as the three finish at 5 s.
        (shrink,) = invoker.deflations
        assert (shrink.evicted_containers, shrink.achieved_mb) == (0, 600.0)
        pool = invoker.simulator.pool
        assert pool.capacity_mb == 300.0 and pool.used_mb <= 300.0
        assert result.metrics.deflations == 2
        assert result.metrics.capacity_shrinks == 1
        assert result.records[-1].outcome == "hit"  # LRU order, ties by creation

    def test_controller_resizes_are_on_the_books(self, trace, curve):
        sink = ReportSink()
        controller = make_controller(curve, trace, 16_384.0, deadband=0.1)
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=16_384.0, cpu_cores=16),
            policy="GD",
            controller=controller,
            tracer=Tracer(sink),
        )
        metrics = invoker.run(trace).metrics
        check_counter_equality(sink.report, metrics.counters())
        resizes = sum(1 for decision in controller.history if decision.resized)
        evicted = sum(report.evicted_containers for report in invoker.deflations)
        assert resizes and metrics.capacity_shrinks + metrics.capacity_grows == resizes
        assert metrics.deflations >= evicted
