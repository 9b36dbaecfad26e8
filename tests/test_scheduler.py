"""Unit and behavioural tests for the keep-alive simulator."""

import dataclasses
import pickle

import pytest

from repro.core.policies import create_policy
from repro.faults import FaultSpec
from repro.sim.config import RunConfig
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from tests.conftest import make_function, make_trace


class TestBasicReplay:
    def test_first_invocation_is_cold(self):
        result = simulate(make_trace("A"), "LRU", 1024.0)
        assert result.metrics.cold_starts == 1
        assert result.metrics.warm_starts == 0

    def test_reuse_is_warm(self):
        result = simulate(make_trace("AA"), "LRU", 1024.0)
        assert result.metrics.cold_starts == 1
        assert result.metrics.warm_starts == 1

    def test_each_function_pays_one_compulsory_miss(self):
        result = simulate(make_trace("ABCABC"), "LRU", 10_000.0)
        assert result.metrics.cold_starts == 3
        assert result.metrics.warm_starts == 3

    def test_result_labels(self):
        result = simulate(make_trace("A"), "GD", 2048.0)
        assert result.policy_name == "GD"
        assert result.memory_mb == 2048.0
        assert result.trace_name == "seq"

    def test_policy_instance_accepted(self):
        policy = create_policy("LRU")
        result = simulate(make_trace("AA"), policy, 1024.0)
        assert result.metrics.warm_starts == 1

    def test_policy_kwargs_with_instance_rejected(self):
        with pytest.raises(ValueError):
            simulate(make_trace("A"), create_policy("LRU"), 1024.0, ttl_s=5.0)


class TestConcurrency:
    def test_concurrent_invocations_need_extra_containers(self):
        # Two invocations of A at the same instant: the second cannot
        # reuse the busy container and goes cold.
        f = make_function("A", memory_mb=100.0, warm_time_s=10.0, cold_time_s=12.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(1.0, "A")])
        result = simulate(trace, "GD", 1024.0)
        assert result.metrics.cold_starts == 2

    def test_container_free_after_completion(self):
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(5.0, "A")])
        result = simulate(trace, "GD", 1024.0)
        assert result.metrics.warm_starts == 1

    def test_completion_uses_cold_time_for_cold_start(self):
        # Cold run is 5 s; a second arrival at t=4 finds it still busy.
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=5.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(4.0, "A")])
        result = simulate(trace, "GD", 1024.0)
        assert result.metrics.cold_starts == 2


class TestDrops:
    def test_request_dropped_when_all_containers_busy(self):
        a = make_function("A", memory_mb=600.0, warm_time_s=30.0, cold_time_s=40.0)
        b = make_function("B", memory_mb=600.0, warm_time_s=1.0, cold_time_s=2.0)
        trace = Trace([a, b], [Invocation(0.0, "A"), Invocation(1.0, "B")])
        result = simulate(trace, "GD", 1000.0)
        assert result.metrics.dropped == 1
        assert result.metrics.per_function["B"].dropped == 1

    def test_function_bigger_than_server_always_drops(self):
        f = make_function("A", memory_mb=4096.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(1.0, "A")])
        result = simulate(trace, "GD", 1024.0)
        assert result.metrics.dropped == 2

    def test_idle_containers_are_evicted_not_dropped(self):
        a = make_function("A", memory_mb=600.0, warm_time_s=1.0, cold_time_s=2.0)
        b = make_function("B", memory_mb=600.0, warm_time_s=1.0, cold_time_s=2.0)
        trace = Trace([a, b], [Invocation(0.0, "A"), Invocation(10.0, "B")])
        result = simulate(trace, "GD", 1000.0)
        assert result.metrics.dropped == 0
        assert result.metrics.evictions == 1


class TestTTLBehaviour:
    def test_ttl_expires_idle_containers(self):
        f = make_function("A")
        trace = Trace(
            [f], [Invocation(0.0, "A"), Invocation(700.0, "A")]
        )
        result = simulate(trace, "TTL", 10_000.0)
        assert result.metrics.cold_starts == 2
        assert result.metrics.expirations == 1

    def test_reuse_within_ttl_is_warm(self):
        f = make_function("A")
        trace = Trace(
            [f], [Invocation(0.0, "A"), Invocation(500.0, "A")]
        )
        result = simulate(trace, "TTL", 10_000.0)
        assert result.metrics.warm_starts == 1

    def test_resource_conserving_policies_never_expire(self):
        f = make_function("A")
        trace = Trace(
            [f], [Invocation(0.0, "A"), Invocation(100_000.0, "A")]
        )
        for policy in ("GD", "LRU", "FREQ", "SIZE", "LND"):
            result = simulate(trace, policy, 10_000.0)
            assert result.metrics.warm_starts == 1, policy
            assert result.metrics.expirations == 0, policy


class TestMetricsAccounting:
    def test_exec_time_increase(self):
        # One cold (3 s) + one warm (1 s): ideal 2 s, actual 4 s.
        result = simulate(make_trace("AA"), "LRU", 1024.0)
        m = result.metrics
        assert m.ideal_exec_time_s == pytest.approx(2.0)
        assert m.actual_exec_time_s == pytest.approx(4.0)
        assert m.exec_time_increase_pct == pytest.approx(100.0)

    def test_cold_start_pct(self):
        result = simulate(make_trace("AAAA"), "LRU", 1024.0)
        assert result.metrics.cold_start_pct == pytest.approx(25.0)

    def test_global_hit_ratio_counts_drops_as_misses(self):
        a = make_function("A", memory_mb=600.0, warm_time_s=30.0, cold_time_s=40.0)
        b = make_function("B", memory_mb=600.0, warm_time_s=1.0, cold_time_s=2.0)
        trace = Trace([a, b], [Invocation(0.0, "A"), Invocation(1.0, "B")])
        metrics = simulate(trace, "GD", 1000.0).metrics
        assert metrics.global_hit_ratio == 0.0
        assert metrics.drop_ratio == pytest.approx(0.5)

    def test_memory_timeline_tracking(self):
        result = simulate(
            make_trace("ABAB", gap_s=120.0), "GD", 10_000.0,
            track_memory_timeline=True,
        )
        timeline = result.metrics.memory_timeline
        assert timeline
        times = [t for t, __ in timeline]
        assert times == sorted(times)
        assert all(used >= 0 for __, used in timeline)

    def test_summary_keys(self):
        summary = simulate(make_trace("AA"), "GD", 1024.0).metrics.summary()
        for key in (
            "warm_starts",
            "cold_starts",
            "dropped",
            "cold_start_pct",
            "exec_time_increase_pct",
        ):
            assert key in summary


class TestEvictionCorrectness:
    def test_pool_never_exceeds_capacity(self):
        trace = make_trace("ABCABCCBA" * 20, gap_s=1.0)
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), memory_mb=500.0
        )
        functions = trace.functions
        for inv in trace:
            sim.process_invocation(functions[inv.function_name], inv.time_s)
            assert sim.pool.used_mb <= sim.pool.capacity_mb + 1e-9

    def test_gd_keeps_high_value_function(self):
        # gem: small and expensive; bloat: large and cheap. Under
        # pressure GD must sacrifice the bloat.
        gem = TraceFunction("gem", 100.0, warm_time_s=1.0, cold_time_s=6.0)
        bloat = TraceFunction("bloat", 800.0, warm_time_s=1.0, cold_time_s=1.2)
        other = TraceFunction("other", 900.0, warm_time_s=1.0, cold_time_s=1.2)
        invocations = []
        t = 0.0
        for __ in range(30):
            invocations += [
                Invocation(t, "gem"),
                Invocation(t + 3.0, "bloat"),
                Invocation(t + 6.0, "other"),
            ]
            t += 9.0
        trace = Trace([gem, bloat, other], invocations)
        gd = simulate(trace, "GD", 1024.0).metrics
        # After warmup the gem should essentially always hit.
        assert gd.per_function["gem"].warm >= 28


class TestWarmupExclusion:
    def test_validation(self):
        from repro.core.policies import create_policy

        with pytest.raises(ValueError):
            KeepAliveSimulator(
                make_trace("A"), create_policy("GD"), 1024.0, warmup_s=-1.0
            )

    def test_compulsory_misses_excluded(self):
        from repro.core.policies import create_policy

        # Arrivals at 0, 10, 20, ... Warmup 15 s hides the first two.
        trace = make_trace("AAAA", gap_s=10.0)
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 1024.0, warmup_s=15.0
        )
        metrics = sim.run().metrics
        assert metrics.cold_starts == 0  # the cold start was at t=0
        assert metrics.warm_starts == 2

    def test_warmup_still_populates_cache(self):
        from repro.core.policies import create_policy

        trace = make_trace("ABAB", gap_s=10.0)
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 1024.0, warmup_s=15.0
        )
        metrics = sim.run().metrics
        # Post-warmup arrivals hit containers created during warmup.
        assert metrics.warm_starts == 2
        assert metrics.cold_start_pct == 0.0

    def test_zero_warmup_matches_default(self):
        from repro.core.policies import create_policy

        trace = make_trace("ABCABC" * 5, gap_s=5.0)
        default = KeepAliveSimulator(
            trace, create_policy("GD"), 1024.0
        ).run().metrics
        explicit = KeepAliveSimulator(
            trace, create_policy("GD"), 1024.0, warmup_s=0.0
        ).run().metrics
        assert default.summary() == explicit.summary()


class TestThroughputObservability:
    def test_wall_time_recorded(self):
        metrics = simulate(make_trace("ABCABC" * 5), "GD", 1024.0).metrics
        assert metrics.wall_time_s > 0.0
        assert metrics.invocations_per_s > 0.0

    def test_invocations_per_s_consistent(self):
        metrics = simulate(make_trace("ABAB" * 10), "LRU", 1024.0).metrics
        expected = metrics.total_requests / metrics.wall_time_s
        assert metrics.invocations_per_s == pytest.approx(expected)

    def test_throughput_summary_keys(self):
        metrics = simulate(make_trace("AA"), "GD", 1024.0).metrics
        assert set(metrics.throughput_summary()) == {
            "wall_time_s",
            "invocations_per_s",
        }

    def test_summary_excludes_wall_time(self):
        """summary() equality between runs is how the conformance and
        equivalence suites compare simulations; wall time must not
        poison it."""
        metrics = simulate(make_trace("AA"), "GD", 1024.0).metrics
        assert "wall_time_s" not in metrics.summary()
        assert "invocations_per_s" not in metrics.summary()


class TestTimelineClosingSample:
    def test_final_sample_at_trace_end(self):
        trace = make_trace("AB" + "A" * 10, gap_s=30.0)
        result = simulate(
            trace, "GD", 10_000.0,
            track_memory_timeline=True, timeline_interval_s=60.0,
        )
        timeline = result.metrics.memory_timeline
        assert timeline[-1][0] == pytest.approx(trace.invocations[-1].time_s)

    def test_mean_memory_weights_tail_dwell(self):
        # Two functions, then a long quiet tail: without the closing
        # sample the mean would ignore the dwell at 512 MB entirely.
        a = make_function("A", memory_mb=256.0)
        b = make_function("B", memory_mb=256.0)
        trace = Trace(
            [a, b],
            [
                Invocation(0.0, "A"),
                Invocation(10.0, "B"),
                Invocation(1000.0, "A"),
            ],
        )
        result = simulate(
            trace, "GD", 10_000.0,
            track_memory_timeline=True, timeline_interval_s=5.0,
        )
        metrics = result.metrics
        # From t=10 on, both containers are resident (512 MB); the
        # closing sample at t=1000 makes that dwell dominate.
        assert metrics.memory_timeline[-1][0] == pytest.approx(1000.0)
        assert metrics.mean_memory_mb > 500.0

    def test_no_duplicate_sample_when_interval_aligns(self):
        trace = make_trace("AAAA", gap_s=60.0)
        result = simulate(
            trace, "GD", 10_000.0,
            track_memory_timeline=True, timeline_interval_s=60.0,
        )
        times = [t for t, __ in result.metrics.memory_timeline]
        assert times == sorted(set(times))


class TestGuardedPrologue:
    """An arrival runs the housekeeping phases behind "anything due?"
    guards instead of through :meth:`housekeeping`; the guards must
    never skip work that is due."""

    def test_doorkeeper_still_refuses_unproven_functions_on_release(self):
        from repro.core.policies.doorkeeper import DoorkeeperPolicy

        policy = DoorkeeperPolicy(inner="GD", admission_threshold=2)
        metrics = simulate(make_trace("ABAB"), policy, 10_000.0).metrics
        # First A and first B are unproven: released, not retained, so
        # the second A and B are cold again and only then admitted.
        assert policy.rejections == 2
        assert metrics.expirations == 2
        assert metrics.cold_starts == 4 and metrics.warm_starts == 0

    def test_overridden_should_retain_is_consulted_per_release(self):
        class Counting(type(create_policy("LRU"))):
            asked = 0

            def should_retain(self, container, now_s, pool):
                self.asked += 1
                return True

        policy = Counting()
        simulate(make_trace("ABAB"), policy, 10_000.0)
        # Every invocation but the last finishes before the trace ends.
        assert policy.asked == 3

    def test_base_should_retain_is_never_called(self, monkeypatch):
        from repro.core.policies.base import KeepAlivePolicy

        calls = []

        def counting(self, container, now_s, pool):
            calls.append(container)
            return True

        monkeypatch.setattr(KeepAlivePolicy, "should_retain", counting)
        metrics = simulate(make_trace("ABAB"), "GD", 10_000.0).metrics
        assert metrics.warm_starts == 2
        assert calls == []

    def test_housekeeping_releases_with_no_arrival_due(self):
        sim = KeepAliveSimulator(make_trace("A"), create_policy("GD"), 1024.0)
        sim.process_invocation(sim.trace.functions["A"], 0.0)
        assert sim.outstanding == 1 and sim.pool.evictable_mb() == 0.0
        sim.housekeeping(2.0)  # cold run lasts 3 s: nothing due yet
        assert sim.outstanding == 1
        sim.housekeeping(10.0)  # the live tick, no arrival
        assert sim.outstanding == 0
        assert sim.pool.evictable_mb() == 256.0

    def test_housekeeping_resumes_a_deferred_deflation(self):
        a = make_function("A", memory_mb=400.0)
        b = make_function("B", memory_mb=400.0)
        trace = Trace([a, b], [Invocation(0.0, "A"), Invocation(0.5, "B")])
        sim = KeepAliveSimulator(trace, create_policy("GD"), 1000.0)
        sim.process_invocation(a, 0.0)
        sim.process_invocation(b, 0.5)
        sim.set_harvest_capacity(1.0, 0.5)  # both busy: nothing to evict
        assert sim.pool.deflation_target_mb == 500.0
        assert sim.pool.capacity_mb == 800.0
        sim.housekeeping(10.0)  # both finished; no arrival since
        assert sim.pool.deflation_target_mb is None
        assert sim.pool.capacity_mb == 500.0
        assert len(sim.pool) == 1 and sim.metrics.deflations == 1

    def test_arrival_resumes_a_deferred_deflation_with_nothing_finishing(self):
        """The release guard also opens for a pending deflation, as the
        unguarded prologue did: containers an external driver idled
        itself are deflated at the next arrival even though the
        scheduler has no invocation finishing at it."""
        a = make_function("A", memory_mb=400.0)
        b = make_function("B", memory_mb=400.0)
        c = make_function("C", memory_mb=100.0)
        trace = Trace([a, b, c], [Invocation(0.0, "A")])
        sim = KeepAliveSimulator(trace, create_policy("GD"), 1000.0)
        sim.process_invocation(a, 0.0)
        sim.process_invocation(b, 0.5)
        sim.set_harvest_capacity(1.0, 0.5)
        # Idle both behind the scheduler's back: its running heap is
        # empty, so only the pending deflation can open the guard.
        sim._running.clear()
        for container in sim.pool.all_containers():
            container.finish_invocation(4.0)
        assert sim.process_invocation(c, 20.0) == "cold"
        assert sim.pool.deflation_target_mb is None
        assert sim.pool.capacity_mb == 500.0

    @pytest.mark.parametrize("policy_name", ["GD", "TTL", "HIST"])
    def test_timeline_sampled_after_every_due_arrival(self, policy_name):
        """The timeline of ``run()`` equals the one rebuilt from outside
        by stepping an untracked simulator: a sample of ``used_mb``
        after every arrival at least an interval past the previous
        sample — warm, cold and dropped alike — plus the closing one."""
        from repro.traces.synth import skewed_frequency_trace

        trace = skewed_frequency_trace(seed=5)
        interval_s = 7.0
        tracked = simulate(
            trace, policy_name, 512.0,
            track_memory_timeline=True, timeline_interval_s=interval_s,
        ).metrics
        assert tracked.dropped and tracked.warm_starts and tracked.cold_starts
        stepped = KeepAliveSimulator(trace, create_policy(policy_name), 512.0)
        expected, last_s, now_s = [], float("-inf"), 0.0
        for now_s, function in trace.arrivals():
            stepped.process_invocation(function, now_s)
            if now_s - last_s >= interval_s:
                expected.append((now_s, stepped.pool.used_mb))
                last_s = now_s
        if now_s > last_s:
            expected.append((now_s, stepped.pool.used_mb))
        assert tracked.memory_timeline == expected
        assert len(expected) > 20


class TestSimulateForwarding:
    """simulate() must forward every simulator knob (a bug once
    swallowed them into policy kwargs)."""

    def test_forwards_warmup(self):
        trace = make_trace("ABAB", gap_s=10.0)
        result = simulate(trace, "GD", 1024.0, warmup_s=15.0)
        assert result.metrics.total_requests == 2

    def test_forwards_reserved_concurrency(self):
        trace = make_trace("AAA", gap_s=10.0)
        result = simulate(
            trace, "GD", 1024.0, reserved_concurrency={"A": 1}
        )
        assert result.metrics.cold_starts == 0

    def test_forwards_prewarm_effectiveness_validation(self):
        with pytest.raises(ValueError, match="effectiveness"):
            simulate(make_trace("A"), "GD", 1024.0, prewarm_effectiveness=2.0)

    def test_policy_kwargs_still_reach_policy(self):
        trace = make_trace("AB" + "B" * 5, gap_s=60.0)
        result = simulate(trace, "TTL", 10_000.0, ttl_s=30.0)
        assert result.metrics.expirations > 0

    def test_policy_kwargs_rejected_for_instances(self):
        with pytest.raises(ValueError, match="policy_kwargs"):
            simulate(
                make_trace("A"), create_policy("GD"), 1024.0, ttl_s=30.0
            )

    def test_unknown_keyword_still_fails_loudly(self):
        # With a policy name it reaches create_policy, which rejects it.
        with pytest.raises(TypeError, match="warmup"):
            simulate(make_trace("A"), "GD", 1024.0, warmup=15.0)
        with pytest.raises(ValueError, match="policy_kwargs"):
            simulate(make_trace("A"), create_policy("GD"), 1024.0, warmup=15.0)
        with pytest.raises(TypeError, match="warmup"):
            KeepAliveSimulator(
                make_trace("A"), create_policy("GD"), 1024.0, warmup=15.0
            )


class TestRunConfig:
    def test_fields_are_exactly_the_simulator_knobs(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "track_memory_timeline",
            "timeline_interval_s",
            "prewarm_effectiveness",
            "reserved_concurrency",
            "warmup_s",
            "fault_spec",
            "server_index",
            "tenant_mode",
            "tenant_quotas",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            {"prewarm_effectiveness": -0.1},
            {"prewarm_effectiveness": 1.5},
            {"warmup_s": -1.0},
            {"tenant_mode": "exclusive"},
        ],
    )
    def test_validates_at_construction(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_pickles(self):
        config = RunConfig(
            warmup_s=5.0,
            fault_spec=FaultSpec(seed=3, crash_rate=0.1),
            reserved_concurrency={"A": 2},
            tenant_mode="quota",
            tenant_quotas={1: 512.0},
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_config_and_keywords_are_one_configuration(self):
        trace = make_trace("ABAB", gap_s=10.0)
        by_keyword = simulate(trace, "GD", 1024.0, warmup_s=15.0)
        by_config = simulate(trace, "GD", 1024.0, RunConfig(warmup_s=15.0))
        overridden = simulate(
            trace, "GD", 1024.0, RunConfig(warmup_s=0.0), warmup_s=15.0
        )
        assert (
            by_keyword.metrics.counters()
            == by_config.metrics.counters()
            == overridden.metrics.counters()
        )
        assert by_config.metrics.total_requests == 2
