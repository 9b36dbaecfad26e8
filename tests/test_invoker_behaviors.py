"""Deeper invoker scenarios: ordering, fairness, feature interactions."""

import pytest

from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.traces.model import Invocation, Trace, TraceFunction
from tests.conftest import make_function


def run(trace, **config_kwargs):
    defaults = dict(memory_mb=2048.0, cpu_cores=8)
    defaults.update(config_kwargs)
    invoker = SimulatedInvoker(InvokerConfig(**defaults), policy="GD")
    return invoker.run(trace), invoker


class TestQueueFairness:
    def test_blocked_large_function_does_not_block_small_ones(self):
        """Per-action buffering: a big function waiting for memory
        must not head-of-line-block small warm-servable requests."""
        big = make_function("big", memory_mb=1500.0, warm_time_s=60.0,
                            cold_time_s=70.0)
        small = make_function("small", memory_mb=100.0, warm_time_s=0.1,
                              cold_time_s=0.5)
        invocations = [
            Invocation(0.0, "big"),      # occupies most of the pool
            Invocation(1.0, "big"),      # cannot fit: queues
            Invocation(2.0, "small"),    # must be served promptly
        ]
        trace = Trace([big, small], invocations)
        result, __ = run(trace, memory_mb=2000.0, request_timeout_s=200.0)
        small_record = next(
            r for r in result.records if r.function_name == "small"
        )
        assert small_record.outcome in ("hit", "miss")
        assert small_record.start_s == pytest.approx(2.0)

    def test_queued_requests_served_in_arrival_order_when_possible(self):
        f = make_function("A", memory_mb=100.0, warm_time_s=5.0,
                          cold_time_s=6.0)
        invocations = [Invocation(0.1 * i, "A") for i in range(4)]
        trace = Trace([f], invocations)
        result, __ = run(trace, cpu_cores=1, request_timeout_s=100.0,
                         max_concurrent_launches=4)
        starts = [r.start_s for r in result.records]
        assert starts == sorted(starts)


class TestFeatureInteractions:
    def test_stems_and_eviction_latency_compose(self):
        """A cold start that both takes a stem and triggered an
        eviction pays the eviction stall but not the Docker phase."""
        model = ColdStartModel()
        a = make_function("A", memory_mb=900.0, warm_time_s=0.5,
                          cold_time_s=2.0)
        b = make_function("B", memory_mb=900.0, warm_time_s=0.5,
                          cold_time_s=2.0)
        invocations = [Invocation(0.0, "A"), Invocation(10.0, "B")]
        trace = Trace([a, b], invocations)
        result, invoker = run(
            trace,
            memory_mb=1256.0,  # 1000 MB pool after 1 stem of 256
            stem_cell_count=1,
            eviction_event_latency_s=1.0,
            eviction_per_container_s=0.5,
            request_timeout_s=100.0,
        )
        b_record = next(r for r in result.records if r.function_name == "B")
        # B evicted A (stall 1.5 s) but found a stem (saves 0.45 s);
        # its stem was consumed by A's start though — A took the stem,
        # then it was replenished after docker_startup_s, well before
        # t=10. So B also stems.
        expected = (
            model.cold_duration_s(b)
            - model.docker_startup_s  # stem
            + 1.5  # eviction stall
        )
        assert b_record.latency_s == pytest.approx(expected)
        assert invoker.stem_hits == 2

    def test_controller_with_stems(self):
        """The Figure 4 controller coexists with the stem pool."""
        from repro.provisioning.controller import ProportionalController
        from repro.provisioning.hit_ratio import HitRatioCurve
        from repro.provisioning.reuse_distance import reuse_distances
        from repro.traces.synth import multitenant_trace

        trace = multitenant_trace(duration_s=1800.0, num_tenants=12)
        curve = HitRatioCurve.from_distances(reuse_distances(trace))
        controller = ProportionalController.from_miss_ratio_target(
            curve,
            desired_miss_ratio=0.05,
            mean_arrival_rate=trace.arrival_rate(),
            initial_size_mb=7680.0,
            max_size_mb=7680.0,
            control_period_s=300.0,
        )
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=8192.0, cpu_cores=16, stem_cell_count=2),
            policy="GD",
            controller=controller,
        )
        result = invoker.run(trace)
        assert result.served + result.dropped == len(trace)
        assert controller.history

    def test_async_reclaim_with_expiring_policy(self):
        """kswapd-style reclaim composes with TTL expiry."""
        from repro.traces.synth import cyclic_trace

        trace = cyclic_trace(
            num_functions=10, cycle_gap_s=2.0, num_cycles=30,
            memory_choices_mb=(256.0,), init_choices_s=(1.0,),
        )
        invoker = SimulatedInvoker(
            InvokerConfig(
                memory_mb=1536.0,
                cpu_cores=8,
                free_threshold_mb=256.0,
                async_reclaim=True,
            ),
            policy="TTL",
        )
        result = invoker.run(trace)
        assert result.served + result.dropped == len(trace)
        assert invoker.background_evictions > 0


class TestLatencyComposition:
    def test_latency_equals_queue_wait_plus_service(self):
        f = make_function("A", memory_mb=100.0, warm_time_s=5.0,
                          cold_time_s=6.0)
        invocations = [Invocation(0.0, "A"), Invocation(0.5, "A")]
        trace = Trace([f], invocations)
        result, __ = run(trace, cpu_cores=1, request_timeout_s=100.0)
        for record in result.records:
            if record.completion_s is None:
                continue
            assert record.latency_s == pytest.approx(
                record.queue_wait_s + record.service_s
            )

    def test_per_function_percentiles(self):
        from repro.traces.synth import figure8_trace

        trace = figure8_trace(duration_s=120.0)
        result, __ = run(trace, memory_mb=4096.0)
        for name in trace.functions:
            p50 = result.percentile_latency_s(50.0, name)
            p99 = result.percentile_latency_s(99.0, name)
            assert 0.0 < p50 <= p99
