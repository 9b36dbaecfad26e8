"""Tests for the simulated OpenWhisk invoker substrate."""

import pytest

from repro.core.function import FunctionStatsTable
from repro.openwhisk.containerpool import (
    InvokerContainerPool,
    OnlineGreedyDualPolicy,
)
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.openwhisk.loadgen import (
    compare_keepalive_systems,
    faascache_invoker,
    openwhisk_invoker,
)
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import cyclic_trace, figure8_trace
from tests.conftest import make_function


class TestColdStartModel:
    def test_cold_breakdown_phases(self):
        model = ColdStartModel()
        f = make_function(warm_time_s=1.0, cold_time_s=3.5)
        breakdown = model.cold_breakdown(f)
        phases = breakdown.as_dict()
        assert phases["explicit-init"] == pytest.approx(2.5)
        assert phases["function-execution"] == pytest.approx(1.0)
        assert breakdown.total_s == pytest.approx(
            model.platform_overhead_s + 3.5
        )

    def test_warm_breakdown_is_short(self):
        model = ColdStartModel()
        f = make_function(warm_time_s=1.0, cold_time_s=3.5)
        assert model.warm_duration_s(f) == pytest.approx(1.0 + model.pool_check_s)

    def test_overhead_excludes_execution(self):
        model = ColdStartModel()
        f = make_function(warm_time_s=1.0, cold_time_s=3.5)
        breakdown = model.cold_breakdown(f)
        assert breakdown.overhead_s == pytest.approx(breakdown.total_s - 1.0)

    def test_platform_overhead_matches_figure1_scale(self):
        # Figure 1: ~2 s of compulsory platform latency.
        assert 1.0 < ColdStartModel().platform_overhead_s < 3.0

    def test_launch_shorter_than_cold(self):
        model = ColdStartModel()
        f = make_function(warm_time_s=1.0, cold_time_s=3.5)
        assert model.launch_duration_s(f) < model.cold_duration_s(f)


class TestInvokerContainerPool:
    def make_pool(self, capacity=1000.0, threshold=0.0, **kwargs):
        stats = FunctionStatsTable()
        policy = OnlineGreedyDualPolicy(stats)
        return InvokerContainerPool(
            capacity, policy, free_threshold_mb=threshold, stats=stats, **kwargs
        )

    def test_miss_then_hit(self):
        pool = self.make_pool()
        f = make_function("A", memory_mb=100.0)
        pool.record_arrival(f, 0.0)
        container, kind = pool.acquire(f, 0.0)
        assert kind == "miss"
        container.start_invocation(0.0, 1.0)
        pool.notify_start(container, kind, 0.0)
        pool.release(container, 1.0, kind, 1.0)
        pool.record_arrival(f, 2.0)
        again, kind2 = pool.acquire(f, 2.0)
        assert kind2 == "hit"
        assert again is container

    def test_queued_start_scores_with_the_cost_learned_meanwhile(self):
        """A request announced, queued, and started after a completion
        moved the learned cost is scored with the cost at its start,
        not the value term of its announcement."""
        pool = self.make_pool(capacity=100.0)
        f = make_function("A", memory_mb=100.0)
        pool.record_arrival(f, 0.0)
        first, kind = pool.acquire(f, 0.0)
        first.start_invocation(0.0, 4.0)
        pool.notify_start(first, kind, 0.0)
        assert first.priority == 0.0  # nothing observed yet: cost 0
        pool.record_arrival(f, 1.0)
        assert pool.acquire(f, 1.0) == (None, "full")  # queued
        pool.release(first, 4.0, kind, 4.0)  # learns cold time 4 s
        again, kind2 = pool.acquire(f, 4.0)  # the queued request
        assert again is first and kind2 == "hit"
        again.start_invocation(4.0, 1.0)
        pool.notify_start(again, kind2, 4.0)
        assert again.priority == again.clock_stamp + 2 * 4.0 / 100.0

    def test_full_when_everything_running(self):
        pool = self.make_pool(capacity=100.0)
        f = make_function("A", memory_mb=100.0)
        pool.record_arrival(f, 0.0)
        c, __ = pool.acquire(f, 0.0)
        c.start_invocation(0.0, 100.0)
        pool.record_arrival(f, 1.0)
        c2, kind = pool.acquire(f, 1.0)
        assert c2 is None and kind == "full"

    def test_eviction_frees_room(self):
        pool = self.make_pool(capacity=100.0)
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        pool.record_arrival(a, 0.0)
        ca, __ = pool.acquire(a, 0.0)
        ca.start_invocation(0.0, 1.0)
        pool.notify_start(ca, "miss", 0.0)
        pool.release(ca, 1.0, "miss", 1.0)
        pool.record_arrival(b, 2.0)
        cb, kind = pool.acquire(b, 2.0)
        assert kind == "miss"
        assert pool.evictions == 1

    def test_batched_eviction_reaches_threshold(self):
        pool = self.make_pool(capacity=400.0, threshold=300.0)
        functions = [
            make_function(f"f{i}", memory_mb=100.0) for i in range(4)
        ]
        for i, f in enumerate(functions):
            pool.record_arrival(f, float(i))
            c, __ = pool.acquire(f, float(i))
            c.start_invocation(float(i), 0.5)
            pool.notify_start(c, "miss", float(i))
            pool.release(c, float(i) + 0.5, "miss", 0.5)
        # Pool full of 4 idle containers; a new 100 MB miss triggers a
        # batch that frees up to the 300 MB threshold.
        g = make_function("g", memory_mb=100.0)
        pool.record_arrival(g, 10.0)
        c, kind = pool.acquire(g, 10.0)
        assert kind == "miss"
        assert pool.pool.free_mb >= 200.0  # 300 threshold minus g itself

    def test_eviction_latency_charged_once(self):
        pool = self.make_pool(
            capacity=100.0,
            eviction_event_latency_s=0.5,
            eviction_per_container_s=0.25,
        )
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        pool.record_arrival(a, 0.0)
        ca, __ = pool.acquire(a, 0.0)
        ca.start_invocation(0.0, 0.5)
        pool.release(ca, 0.5, "miss", 0.5)
        pool.record_arrival(b, 1.0)
        pool.acquire(b, 1.0)
        assert pool.take_eviction_latency() == pytest.approx(0.75)
        assert pool.take_eviction_latency() == 0.0  # consumed

    def test_online_gd_uses_learned_cost(self):
        stats = FunctionStatsTable()
        policy = OnlineGreedyDualPolicy(stats)
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=9.0)
        policy.on_invocation(f, 0.0)
        # Before any observation the learned cost is 0.
        assert policy._value_term(f) == 0.0
        stats.get("A").observe_cold(9.0)
        assert policy._value_term(f) == pytest.approx(9.0 / 100.0)
        stats.get("A").observe_warm(1.0)
        assert policy._value_term(f) == pytest.approx(8.0 / 100.0)

    def test_expire_delegates_to_policy(self):
        from repro.core.policies.ttl import TTLPolicy

        pool = InvokerContainerPool(1000.0, TTLPolicy(ttl_s=10.0))
        f = make_function("A", memory_mb=100.0)
        pool.record_arrival(f, 0.0)
        c, __ = pool.acquire(f, 0.0)
        c.start_invocation(0.0, 1.0)
        pool.release(c, 1.0, "miss", 1.0)
        assert pool.expire(5.0) == 0
        assert pool.expire(12.0) == 1
        assert pool.expirations == 1


class TestSimulatedInvoker:
    def run_trace(self, trace, policy="TTL", **config_kwargs):
        defaults = dict(memory_mb=2048.0, cpu_cores=8)
        defaults.update(config_kwargs)
        invoker = SimulatedInvoker(InvokerConfig(**defaults), policy=policy)
        return invoker.run(trace)

    def test_single_request_is_cold(self):
        f = make_function("A", memory_mb=100.0)
        trace = Trace([f], [Invocation(0.0, "A")])
        result = self.run_trace(trace)
        assert result.cold_starts == 1
        assert result.warm_starts == 0
        record = result.records[0]
        assert record.latency_s == pytest.approx(
            ColdStartModel().cold_duration_s(f)
        )

    def test_reuse_is_warm_and_faster(self):
        f = make_function("A", memory_mb=100.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(20.0, "A")])
        result = self.run_trace(trace)
        assert result.warm_starts == 1
        warm_record = result.records[1]
        cold_record = result.records[0]
        assert warm_record.latency_s < cold_record.latency_s

    def test_cpu_saturation_queues_requests(self):
        f = make_function("A", memory_mb=10.0, warm_time_s=10.0, cold_time_s=11.0)
        invocations = [Invocation(0.0 + 0.01 * i, "A") for i in range(4)]
        trace = Trace([f], invocations)
        result = self.run_trace(trace, cpu_cores=2, max_concurrent_launches=8,
                                request_timeout_s=100.0)
        served_starts = sorted(
            r.start_s for r in result.records if r.start_s is not None
        )
        # Only two can run at once; the rest start after a completion.
        assert served_starts[2] > 1.0

    def test_queue_timeout_drops(self):
        f = make_function("A", memory_mb=10.0, warm_time_s=50.0, cold_time_s=55.0)
        invocations = [Invocation(float(i), "A") for i in range(10)]
        trace = Trace([f], invocations)
        result = self.run_trace(
            trace, cpu_cores=1, request_timeout_s=5.0,
            max_concurrent_launches=1,
        )
        assert result.dropped > 0

    def test_queue_capacity_drops_immediately(self):
        f = make_function("A", memory_mb=10.0, warm_time_s=100.0, cold_time_s=110.0)
        invocations = [Invocation(0.01 * i, "A") for i in range(20)]
        trace = Trace([f], invocations)
        result = self.run_trace(
            trace, cpu_cores=1, queue_capacity=3, request_timeout_s=1000.0,
            max_concurrent_launches=1,
        )
        assert result.dropped >= 20 - 1 - 3 - 2  # roughly: 1 running + 3 queued

    def test_launch_concurrency_bounds_cold_storms(self):
        functions = [
            make_function(f"f{i}", memory_mb=10.0, warm_time_s=0.1, cold_time_s=2.0)
            for i in range(8)
        ]
        invocations = [Invocation(0.01 * i, f"f{i}") for i in range(8)]
        trace = Trace(functions, invocations)
        result = self.run_trace(
            trace, cpu_cores=16, max_concurrent_launches=2,
            request_timeout_s=100.0,
        )
        starts = sorted(r.start_s for r in result.records)
        # With only 2 concurrent launches, the 8 cold starts stagger.
        assert starts[-1] > 1.0

    def test_per_function_accounting(self):
        trace = figure8_trace(duration_s=60.0)
        result = self.run_trace(trace, memory_mb=4096.0)
        per_fn = result.per_function()
        assert set(per_fn) == set(trace.functions)
        total = sum(o.total for o in per_fn.values())
        assert total == len(trace)

    def test_all_requests_accounted(self):
        trace = figure8_trace(duration_s=120.0)
        result = self.run_trace(trace, memory_mb=1024.0, cpu_cores=2)
        assert result.total == len(trace)
        assert result.served + result.dropped == result.total
        for record in result.records:
            assert record.outcome in ("hit", "miss", "dropped")


class TestLoadgen:
    def test_openwhisk_invoker_uses_ttl(self):
        invoker = openwhisk_invoker(InvokerConfig(memory_mb=1024.0))
        assert invoker.policy.name == "TTL"
        assert invoker.policy.ttl_s == 600.0

    def test_faascache_invoker_uses_online_gd(self):
        invoker = faascache_invoker(InvokerConfig(memory_mb=1024.0))
        assert isinstance(invoker.policy, OnlineGreedyDualPolicy)
        assert invoker.pool.stats is invoker.stats

    def test_comparison_on_cyclic_workload(self):
        trace = cyclic_trace(num_functions=12, cycle_gap_s=2.0, num_cycles=60)
        config = InvokerConfig(memory_mb=1664.0, cpu_cores=8)
        comparison = compare_keepalive_systems(trace, config)
        # The LRU-adversarial cycle: FaasCache must win decisively.
        assert comparison.faascache.warm_starts > comparison.openwhisk.warm_starts
        assert comparison.warm_start_gain > 1.5
        assert comparison.served_gain >= 1.0

    def test_comparison_metrics_safe_on_zero(self):
        from repro.openwhisk.loadgen import LoadTestComparison
        from repro.openwhisk.invoker import InvokerResult

        empty = LoadTestComparison(
            "t", InvokerResult("TTL"), InvokerResult("GD")
        )
        assert empty.warm_start_gain == 1.0
        assert empty.served_gain == 1.0
        assert empty.latency_improvement == 1.0
