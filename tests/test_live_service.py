"""Live serving mode: clocks, the thread-safe service, and sim/live
equivalence (docs/live-serving.md)."""

from __future__ import annotations

import threading

import pytest

from repro.core.clock import Clock, RealTimeClock, SimClock
from repro.core.policies.base import create_policy
from repro.live.latency import LatencyHistogram
from repro.live.service import (
    AdmitDecision,
    LivePoolService,
    UnknownFunctionError,
)
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.columnar import ColumnarTrace
from repro.traces.synth import skewed_frequency_trace


class SteppingSource:
    """A mocked time source the test advances by hand."""

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def __call__(self) -> float:
        return self.value


class TestClocks:
    def test_sim_clock_monotone(self):
        clock = SimClock()
        clock.advance_to(2.5)
        assert clock.now() == 2.5
        clock.advance_to(1.0)  # never rewinds
        assert clock.now() == 2.5

    def test_sim_clock_round_trips_instants_exactly(self):
        # The byte-identical-fingerprints property: advance_to/now must
        # return each arrival's float unchanged.
        clock = SimClock()
        for value in (0.1, 1e-9 + 0.3, 12345.678901, 86_400.0):
            clock.advance_to(value)
            assert clock.now() == value

    def test_real_time_clock_with_mocked_source(self):
        source = SteppingSource(10.0)
        clock = RealTimeClock(time_source=source, epoch_s=0.0)
        assert clock.now() == 10.0
        source.value = 17.5
        assert clock.now() == 17.5

    def test_real_time_clock_rebases_to_start(self):
        source = SteppingSource(100.0)
        clock = RealTimeClock(time_source=source, start_s=5.0)
        assert clock.now() == 5.0
        source.value = 103.0
        assert clock.now() == 8.0

    def test_clock_protocol(self):
        assert isinstance(SimClock(), Clock)
        assert isinstance(RealTimeClock(), Clock)

    def test_default_real_time_clock_advances(self):
        clock = RealTimeClock()
        first = clock.now()
        second = clock.now()
        assert second >= first >= 0.0

    def test_simulator_owns_a_sim_clock(self):
        trace = skewed_frequency_trace(seed=5)
        last = max(inv.time_s for inv in trace)
        # Every trace form goes through the one clock-advancing loop.
        for form in (trace, ColumnarTrace.from_trace(trace)):
            sim = KeepAliveSimulator(form, create_policy("GD"), 1024.0)
            assert isinstance(sim.clock, SimClock)
            sim.run()
            # After a replay the clock sits at the last arrival.
            assert sim.clock.now() == last


class TestSimLiveEquivalence:
    """The tentpole invariant: one policy engine, two drivers."""

    MEMORY_MB = 1024.0  # tight enough to force evictions and drops

    def _sim_outcomes(self, trace, policy_name):
        sim = KeepAliveSimulator(
            trace, create_policy(policy_name), self.MEMORY_MB
        )
        functions = trace.functions
        outcomes = [
            sim.process_invocation(functions[inv.function_name], inv.time_s)
            for inv in trace
        ]
        return outcomes, sim.metrics.counters()

    @pytest.mark.parametrize("policy_name", ["GD", "TTL", "HIST"])
    def test_real_clock_with_mocked_source_matches_sim(self, policy_name):
        trace = skewed_frequency_trace(seed=7)
        sim_outcomes, sim_counters = self._sim_outcomes(trace, policy_name)

        source = SteppingSource()
        clock = RealTimeClock(time_source=source, epoch_s=0.0)
        service = LivePoolService(
            trace, policy_name, self.MEMORY_MB, clock=clock
        )
        live_outcomes = []
        for inv in trace:
            source.value = inv.time_s  # the mocked wall clock ticks
            decision = service.admit(inv.function_name)
            assert decision.now_s == inv.time_s
            live_outcomes.append(decision.outcome)

        assert live_outcomes == sim_outcomes
        assert service.counters() == sim_counters

    def test_sim_clock_service_matches_sim(self):
        trace = skewed_frequency_trace(seed=11)
        sim_outcomes, sim_counters = self._sim_outcomes(trace, "GD")
        service = LivePoolService(
            trace, "GD", self.MEMORY_MB, clock=SimClock()
        )
        live_outcomes = [
            service.admit(inv.function_name, inv.time_s).outcome
            for inv in trace
        ]
        assert live_outcomes == sim_outcomes
        assert service.counters() == sim_counters

    def test_matches_one_shot_simulate(self):
        trace = skewed_frequency_trace(seed=13)
        result = simulate(trace, "GD", self.MEMORY_MB)
        service = LivePoolService(
            trace, "GD", self.MEMORY_MB, clock=SimClock()
        )
        for inv in trace:
            service.admit(inv.function_name, inv.time_s)
        # finalize() adds no decisions on a fault-free run, so the
        # live counters equal the full simulate() counters.
        assert service.counters() == result.metrics.counters()


class TestLivePoolService:
    def test_unknown_function_raises(self):
        trace = skewed_frequency_trace(seed=1)
        service = LivePoolService(trace, "GD", 4096.0, clock=SimClock())
        with pytest.raises(UnknownFunctionError):
            service.admit("no-such-function")

    def test_real_clock_ignores_client_now(self):
        # Clients must not be able to time-travel a real-time pool.
        trace = skewed_frequency_trace(seed=1)
        source = SteppingSource(5.0)
        service = LivePoolService(
            trace,
            "GD",
            4096.0,
            clock=RealTimeClock(time_source=source, epoch_s=0.0),
        )
        name = next(iter(trace.functions))
        decision = service.admit(name, now_s=999.0)
        assert decision.now_s == 5.0

    def test_admit_decision_is_positional_named_and_immutable(self):
        decision = AdmitDecision("warm", "f", 1.5, 2e-6)
        assert decision == AdmitDecision(
            outcome="warm", function="f", now_s=1.5, decision_latency_s=2e-6
        )
        assert (decision.outcome, decision.function) == ("warm", "f")
        assert (decision.now_s, decision.decision_latency_s) == (1.5, 2e-6)
        with pytest.raises(AttributeError):
            decision.outcome = "cold"

    def test_release_returns_completions(self):
        trace = skewed_frequency_trace(seed=1)
        service = LivePoolService(trace, "GD", 4096.0, clock=SimClock())
        name = next(iter(trace.functions))
        service.admit(name, now_s=0.0)
        assert service.stats()["outstanding"] == 1
        released = service.release(now_s=10_000.0)
        assert released == 1
        assert service.stats()["outstanding"] == 0

    def test_expire_tick_drains_ttl_expirations(self):
        trace = skewed_frequency_trace(seed=1)
        policy = create_policy("TTL", ttl_s=60.0)
        service = LivePoolService(trace, policy, 4096.0, clock=SimClock())
        name = next(iter(trace.functions))
        service.admit(name, now_s=0.0)
        # The timer path: no arrival ever fires again, yet the idle
        # container must still expire once its TTL passes.
        expired = service.expire_tick(now_s=10_000.0)
        assert expired == 1
        assert service.counters()["expirations"] == 1
        assert service.stats()["pool"]["containers"] == 0

    def test_stats_shape(self):
        trace = skewed_frequency_trace(seed=1)
        service = LivePoolService(trace, "GD", 4096.0, clock=SimClock())
        for inv in trace:
            if inv.time_s > 600.0:
                break
            service.admit(inv.function_name, inv.time_s)
        stats = service.stats()
        assert set(stats["decisions"]) <= {
            "warm", "cold", "dropped", "retried", "shed",
        }
        total = sum(stats["decisions"].values())
        assert stats["decision_latency"]["count"] == float(total)
        assert stats["decision_latency"]["p99_us"] > 0.0
        assert stats["pool"]["capacity_mb"] == 4096.0
        assert stats["counters"]["warm_starts"] >= 0

    def test_concurrent_admits_are_serialized(self):
        # Many threads, one lock: every admission lands exactly once.
        trace = skewed_frequency_trace(seed=2)
        service = LivePoolService(trace, "GD", 8192.0)
        names = list(trace.functions)
        per_thread = 200
        errors = []

        def hammer(name):
            try:
                for __ in range(per_thread):
                    service.admit(name)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(names[i % len(names)],))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = service.stats()
        assert sum(stats["decisions"].values()) == 8 * per_thread
        counters = stats["counters"]
        assert (
            counters["warm_starts"]
            + counters["cold_starts"]
            + counters["dropped"]
            == 8 * per_thread
        )


class TestLatencyHistogram:
    def test_percentiles_ordered(self):
        hist = LatencyHistogram()
        for i in range(1, 1001):
            hist.record(i * 1e-6)
        p50 = hist.percentile(0.5)
        p99 = hist.percentile(0.99)
        p999 = hist.percentile(0.999)
        assert 0.0 < p50 <= p99 <= p999 <= hist.percentile(1.0)
        # Log-bucket relative error stays modest at the median.
        assert 3e-4 < p50 < 8e-4

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0.0
        assert hist.summary()["count"] == 0.0

    def test_extremes_clamped(self):
        hist = LatencyHistogram()
        hist.record(0.0)  # below the first bucket
        hist.record(1e9)  # beyond the last bucket
        assert hist.count == 2
        # Out-of-range samples land in the edge buckets; the recorded
        # extremes stay exact in the summary.
        assert hist.percentile(1.0) > 10.0
        assert hist.summary()["max_us"] == 1e15

    def test_record_files_each_sample_in_its_log_bucket(self):
        # 13 buckets, two per decade from 1 us: bucket = the clamped
        # int((log10(v) + 6) * 2).
        hist = LatencyHistogram(min_s=1e-6, max_s=1.0, buckets_per_decade=2)
        for value_s in (-1.0, 0.0, 1e-9, 1e-6, 3.2e-6, 1e-3, 0.999, 1.0, 50.0):
            hist.record(value_s)
        assert hist._buckets == [4, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2]
        with pytest.raises(ValueError):
            hist.record(float("nan"))
        assert hist.count == 9  # refused before anything was counted

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for i in range(100):
            a.record(1e-5)
            b.record(1e-3)
        a.merge(b)
        assert a.count == 200
        assert a.percentile(0.25) < 1e-4 < a.percentile(0.75)
