"""Tests for the simulated OpenWhisk invoker substrate."""

import pytest

from repro.bench import churn_trace
from repro.checks.sanitize import check_counter_equality
from repro.core.function import FunctionStatsTable
from repro.core.policies import available_policies, create_policy
from repro.openwhisk.containerpool import OnlineGreedyDualPolicy
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.openwhisk.loadgen import (
    compare_keepalive_systems,
    faascache_invoker,
    openwhisk_invoker,
)
from repro.obs.report import ReportSink
from repro.obs.tracer import Tracer
from repro.sim.scheduler import simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import (
    cyclic_trace, figure8_trace, multitenant_trace, skewed_size_trace,
)
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


#: A platform that adds nothing to the engine's durations.
ZERO = ColdStartModel(0.0, 0.0, 0.0)


def run_invoker(functions, arrivals, policy="GD", **config):
    """Run ``arrivals`` ((time, name) pairs) through an invoker over the
    zero-overhead platform; FaasCache's online GD by default."""
    config = InvokerConfig(**{
        "memory_mb": 1000.0, "eviction_event_latency_s": 0.0,
        "eviction_per_container_s": 0.0, **config,
    })
    if policy == "GD":
        invoker = faascache_invoker(config, ZERO)
    else:
        invoker = SimulatedInvoker(config, policy, cold_start_model=ZERO)
    trace = Trace(functions, [Invocation(t, name) for t, name in arrivals])
    return invoker.run(trace), invoker


class TestInvokerContainerPool:
    """The pool behaviour the §7 invoker asks of the keep-alive engine."""

    def test_miss_then_hit(self):
        f = make_function("A", memory_mb=100.0)
        result, invoker = run_invoker([f], [(0.0, "A"), (5.0, "A")])
        assert [r.outcome for r in result.records] == ["miss", "hit"]
        assert len(invoker.simulator.pool.containers_of("A")) == 1

    def test_queued_start_scores_with_the_cost_learned_meanwhile(self):
        """A request announced, queued, and started after a completion
        moved the learned cost is scored with the cost at its start,
        not the value term of its announcement."""
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=4.0)
        result, invoker = run_invoker(
            [f], [(0.0, "A"), (1.0, "A")], memory_mb=100.0, request_timeout_s=100.0
        )
        # Queued at 1 s (the pool is full and busy), started warm at 4 s
        # once the completion taught the policy the 4 s cold time.
        assert [(r.outcome, r.start_s) for r in result.records] == [
            ("miss", 0.0), ("hit", 4.0)
        ]
        (again,) = invoker.simulator.pool.containers_of("A")
        assert again.priority == again.clock_stamp + 2 * 4.0 / 100.0

    def test_full_when_everything_running(self):
        f = make_function("A", memory_mb=100.0, cold_time_s=100.0)
        result, __ = run_invoker(
            [f], [(0.0, "A"), (1.0, "A")], memory_mb=100.0, queue_capacity=0
        )
        assert [r.outcome for r in result.records] == ["miss", "dropped"]
        assert result.metrics.dropped == 1 and result.metrics.evictions == 0

    def test_eviction_frees_room(self):
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        result, __ = run_invoker([a, b], [(0.0, "A"), (5.0, "B")], memory_mb=100.0)
        assert result.records[1].outcome == "miss"
        assert result.metrics.evictions == 1

    def test_batched_eviction_reaches_threshold(self):
        functions = [make_function(f"f{i}", memory_mb=100.0) for i in range(4)]
        g = make_function("g", memory_mb=100.0)
        arrivals = [(float(i), f"f{i}") for i in range(4)] + [(10.0, "g")]
        # Pool full of 4 idle containers; the 100 MB miss triggers a
        # batch that frees up to the 300 MB threshold.
        result, invoker = run_invoker(
            functions + [g], arrivals, memory_mb=400.0, free_threshold_mb=300.0
        )
        assert result.records[-1].outcome == "miss"
        assert invoker.simulator.pool.free_mb >= 200.0  # 300 threshold minus g itself
        assert result.metrics.evictions == 3 and invoker.eviction_events == 1

    def test_eviction_latency_charged_once(self):
        a = make_function("A", memory_mb=100.0, warm_time_s=0.25, cold_time_s=0.5)
        b = make_function("B", memory_mb=100.0, warm_time_s=0.25, cold_time_s=0.5)
        result, __ = run_invoker(
            [a, b], [(0.0, "A"), (1.0, "B"), (5.0, "B")], memory_mb=100.0,
            eviction_event_latency_s=0.5, eviction_per_container_s=0.25,
        )
        # B's cold start evicted A: one round plus one removal, 0.75 s;
        # its next (warm) start owes nothing.
        assert [r.service_s for r in result.records] == [0.5, 0.5 + 0.75, 0.25]

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

        f = make_function("A", memory_mb=100.0)
        # Expiry 10 s after each finish: the 5 s gap is warm, the 24 s
        # gap is not.
        result, __ = run_invoker(
            [f], [(0.0, "A"), (5.0, "A"), (30.0, "A")], policy=TTLPolicy(ttl_s=10.0)
        )
        assert [r.outcome for r in result.records] == ["miss", "hit", "miss"]
        assert result.metrics.expirations == 1


def _footprint_mb(trace):
    return sum(f.memory_mb for f in trace.functions.values())


def _tie_trace():
    """Each second arrival lands exactly on its function's completion
    (a 3 s cold start at 0 s, and at 0.5 s)."""
    functions = [make_function(name, memory_mb=100.0) for name in "AB"]
    arrivals = [(0.0, "A"), (0.5, "B"), (3.0, "A"), (3.5, "B")]
    return Trace(functions, [Invocation(t, name) for t, name in arrivals], name="tie")


#: name -> (trace, pool MB as a multiple of the registry's footprint).
DIFFERENTIAL = {
    "churn-0.4x": (lambda: churn_trace(120, 7200.0, seed=3), 0.4),
    "churn-2x": (lambda: churn_trace(120, 7200.0, seed=3), 2.0),
    "multitenant": (lambda: multitenant_trace(duration_s=900.0), 0.4),
    "skewed-size": (lambda: skewed_size_trace(duration_s=1200.0), 0.4),
    "tie": (_tie_trace, 1.0),
}


@pytest.fixture(scope="module")
def differential_traces():
    return {name: (build(), scale) for name, (build, scale) in DIFFERENTIAL.items()}


class TestTheInvokerIsTheEngine:
    """With every platform mechanism switched off — cores and launch
    slots for every request, no buffer, no phase latency, no eviction
    stall, no batching — the invoker is the keep-alive engine: the same
    outcomes, per function, and the same counters as the arrival loop."""

    @pytest.mark.parametrize("workload", sorted(DIFFERENTIAL))
    @pytest.mark.parametrize("name", available_policies())
    def test_degenerate_invoker_equals_the_arrival_loop(
        self, differential_traces, workload, name
    ):
        trace, scale = differential_traces[workload]
        memory_mb = scale * _footprint_mb(trace)

        def policy():  # the oracles read their future from the trace
            return create_policy(name, **({"trace": trace} if name.startswith("ORACLE") else {}))

        config = InvokerConfig(
            memory_mb=memory_mb, cpu_cores=len(trace), max_concurrent_launches=len(trace),
            queue_capacity=0, eviction_event_latency_s=0.0, eviction_per_container_s=0.0,
        )
        got = SimulatedInvoker(config, policy(), cold_start_model=ZERO).run(trace)
        want = simulate(trace, policy(), memory_mb, engine="object").metrics
        assert got.metrics.counters() == want.counters()
        assert got.metrics.per_function == want.per_function
        assert (got.warm_starts, got.cold_starts, got.dropped) == (
            want.warm_starts, want.cold_starts, want.dropped
        )

    def test_an_arrival_on_a_completion_finds_the_container_released(self, differential_traces):
        trace, __ = differential_traces["tie"]
        config = InvokerConfig(memory_mb=200.0, queue_capacity=0)
        result = SimulatedInvoker(config, "LRU", cold_start_model=ZERO).run(trace)
        assert [r.outcome for r in result.records] == ["miss", "miss", "hit", "hit"]

    def test_simultaneous_completions_free_together(self):
        """Two invocations finishing at one instant are both released
        before the buffer is served, so the oldest buffered request
        gets the memory they free together."""
        a, b = make_function("A", memory_mb=100.0), make_function("B", memory_mb=100.0)
        big = make_function("C", memory_mb=200.0)
        arrivals = [(0.0, "A"), (0.0, "B"), (1.0, "C"), (2.0, "A")]
        result, __ = run_invoker(
            [a, b, big], arrivals, policy="LRU", memory_mb=200.0, request_timeout_s=100.0
        )
        # At 3 s: C (buffered first) evicts both; A's request waits on C.
        assert [(r.outcome, r.start_s) for r in result.records] == [
            ("miss", 0.0), ("miss", 0.0), ("miss", 3.0), ("miss", 6.0)
        ]

    def test_traced_run_passes_the_trace_report_check(self):
        sink = ReportSink()
        trace = multitenant_trace(duration_s=900.0)
        invoker = faascache_invoker(
            InvokerConfig(memory_mb=4096.0, cpu_cores=8), free_threshold_mb=256.0
        )
        invoker.tracer = Tracer(sink)
        result = invoker.run(trace)
        # What ``trace-report --check`` runs.
        check_counter_equality(sink.report, result.metrics.counters())
        outcomes = [r.outcome for r in result.records]
        assert (result.warm_starts, result.cold_starts, result.dropped) == (
            outcomes.count("hit"), outcomes.count("miss"), outcomes.count("dropped")
        )
        assert result.metrics.evictions > 0 and result.dropped > 0


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
        assert invoker.policy._stats is invoker.stats

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
