"""Tests for the Figure 4 loop: controller attached to the invoker."""

import pytest

from repro.core.policies import create_policy
from repro.openwhisk.containerpool import InvokerContainerPool
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.provisioning.controller import ProportionalController
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
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
        assert invoker.pool.pool.capacity_mb < 16_384.0

    def test_static_invoker_unaffected(self, trace):
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=8192.0, cpu_cores=16), policy="GD"
        )
        invoker.run(trace)
        assert invoker.deflations == []
        assert invoker.pool.pool.capacity_mb == 8192.0

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


class TestInvokerPoolResize:
    def test_shrink_below_busy_memory_lands_at_release(self):
        """The invoker's seam is the simulator's mechanism: deferral,
        not the clamp ``DeflationEngine.resize`` applied."""
        pool = InvokerContainerPool(1000.0, create_policy("LRU"))
        containers = []
        for i in range(3):
            function = make_function(f"f{i}", memory_mb=200.0)
            pool.record_arrival(function, 0.0)
            container, kind = pool.acquire(function, 0.0)
            container.start_invocation(0.0, 5.0)
            pool.notify_start(container, kind, 0.0)
            containers.append(container)
        assert pool.resize(300.0, 1.0) == []  # nothing idle to evict
        assert pool.pool.capacity_mb == 600.0  # clamped to use meanwhile
        for container in containers:
            pool.release(container, 5.0, "miss", 5.0)
        assert pool.pool.capacity_mb == 300.0
        assert pool.pool.used_mb <= 300.0
        assert pool.evictions == 2
        assert containers[2] in pool.pool  # LRU order, ties by creation
