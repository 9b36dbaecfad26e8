"""Tests for the clairvoyant oracle policies and the doorkeeper wrapper."""

import math

import pytest

from repro.core.policies import create_policy
from repro.core.policies.doorkeeper import DoorkeeperPolicy
from repro.core.policies.oracle import CostAwareOraclePolicy, OraclePolicy
from repro.core.pool import ContainerPool
from repro.sim.scheduler import simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import cyclic_trace
from tests.conftest import make_container, make_function, make_trace


class TestOracle:
    def make_oracle_pool(self, sequence, gap_s=10.0):
        trace = make_trace(sequence, gap_s=gap_s)
        policy = OraclePolicy(trace)
        pool = ContainerPool(10_000.0)
        return trace, policy, pool

    def test_never_used_again_evicted_first(self):
        trace, policy, pool = self.make_oracle_pool("ABAB")
        # At t=15 (after A B A), B returns at t=30; a dead function
        # never returns.
        dead = make_container(make_function("Z", memory_mb=100.0), 0.0)
        assert policy.priority(dead, 15.0) == -math.inf

    def test_sooner_next_use_has_higher_priority(self):
        trace, policy, pool = self.make_oracle_pool("ABBA")
        # Arrivals: A@0, B@10, B@20, A@30. At t=11: B next at 20,
        # A next at 30 -> A is the better victim.
        ca = make_container(trace.function("A"), 0.0)
        cb = make_container(trace.function("B"), 10.0)
        assert policy.priority(ca, 11.0) < policy.priority(cb, 11.0)

    def test_oracle_at_least_matches_lru_on_cyclic(self):
        trace = cyclic_trace(num_functions=10, num_cycles=50)
        oracle = simulate(
            trace, create_policy("ORACLE", trace=trace), 1500.0
        ).metrics
        lru = simulate(trace, "LRU", 1500.0).metrics
        assert oracle.warm_starts >= lru.warm_starts

    def test_oracle_optimal_on_unit_size_pattern(self):
        """Belady on a unit-size pattern: the oracle must beat LRU and
        match the known optimal hit count."""
        # Classic: cache of 2, pattern A B C A B C... LRU gets 0 hits;
        # MIN keeps one of the two most recently seen.
        f = {n: TraceFunction(n, 100.0, 1.0, 2.0) for n in "ABC"}
        sequence = "ABCABCABCABC"
        invocations = [
            Invocation(10.0 * i, n) for i, n in enumerate(sequence)
        ]
        trace = Trace(f.values(), invocations)
        oracle = simulate(
            trace, create_policy("ORACLE", trace=trace), 200.0
        ).metrics
        lru = simulate(trace, "LRU", 200.0).metrics
        assert lru.warm_starts == 0
        # MIN on ABC repeated with cache 2 hits every other reuse:
        # hit ratio approaches 1/2 of reuses.
        assert oracle.warm_starts >= 4

    def test_cost_aware_oracle_on_heterogeneous_trace(self):
        """With size/cost heterogeneity, the cost-aware oracle should
        not lose to the plain one on total overhead."""
        trace = cyclic_trace(num_functions=12, num_cycles=60)
        plain = simulate(
            trace, create_policy("ORACLE", trace=trace), 2304.0
        ).metrics
        aware = simulate(
            trace, create_policy("ORACLE-CS", trace=trace), 2304.0
        ).metrics
        assert (
            aware.exec_time_increase_pct
            <= plain.exec_time_increase_pct + 1e-9
        )

    def test_cost_aware_upper_bounds_gd(self):
        """The clairvoyant cost-aware policy is the reference GD is
        judged against; it must not do worse than GD."""
        from repro.traces.synth import skewed_size_trace

        trace = skewed_size_trace(duration_s=1200.0)
        gd = simulate(trace, "GD", 4096.0).metrics
        oracle = simulate(
            trace, create_policy("ORACLE-CS", trace=trace), 4096.0
        ).metrics
        assert (
            oracle.exec_time_increase_pct <= gd.exec_time_increase_pct + 1e-9
        )


class TestDoorkeeper:
    def test_validation(self):
        with pytest.raises(ValueError):
            DoorkeeperPolicy(admission_threshold=0)
        with pytest.raises(ValueError):
            DoorkeeperPolicy(aging_interval=0)

    def test_wraps_named_policy(self):
        dk = DoorkeeperPolicy(inner="LRU")
        assert dk.inner.name == "LRU"

    def test_rejects_unproven_functions(self):
        dk = DoorkeeperPolicy(inner="GD", admission_threshold=2)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        dk.on_invocation(f, 0.0)
        c = make_container(f, 0.0)
        pool.add(c)
        assert not dk.should_retain(c, 1.0, pool)
        assert dk.rejections == 1

    def test_admits_after_threshold(self):
        dk = DoorkeeperPolicy(inner="GD", admission_threshold=2)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        dk.on_invocation(f, 0.0)
        dk.on_invocation(f, 5.0)
        c = make_container(f, 5.0)
        pool.add(c)
        assert dk.should_retain(c, 6.0, pool)

    def test_admission_history_survives_eviction(self):
        """The counter must persist across container death — that is
        what distinguishes a doorkeeper from the reset-on-eviction
        frequency of Section 4.1."""
        dk = DoorkeeperPolicy(inner="GD", admission_threshold=2)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        dk.on_invocation(f, 0.0)
        c = make_container(f, 0.0)
        pool.add(c)
        pool.evict(c)
        dk.on_evict(c, 1.0, pool, pressure=True)
        dk.on_invocation(f, 10.0)
        again = make_container(f, 10.0)
        pool.add(again)
        assert dk.should_retain(again, 11.0, pool)  # its second arrival

    def test_aging_halves_counts(self):
        dk = DoorkeeperPolicy(inner="GD", admission_threshold=3, aging_interval=4)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        for i in range(4):
            dk.on_invocation(f, float(i))
        c = make_container(f, 3.0)
        pool.add(c)
        assert not dk.should_retain(c, 4.0, pool)  # 4, halved at the 4th to 2
        dk.on_invocation(f, 5.0)
        assert dk.should_retain(c, 6.0, pool)  # 3

    def test_scan_resistance_end_to_end(self):
        """One-shot scan functions stop polluting the cache."""
        working = [TraceFunction(f"w{i}", 200.0, 1.0, 4.0) for i in range(4)]
        scans = [TraceFunction(f"s{i}", 200.0, 1.0, 4.0) for i in range(60)]
        invocations = []
        t = 0.0
        for round_ in range(12):
            for f in working:
                invocations.append(Invocation(t, f.name))
                t += 3.0
            for f in scans[round_ * 5 : (round_ + 1) * 5]:
                invocations.append(Invocation(t, f.name))
                t += 3.0
        trace = Trace(working + scans, invocations)
        plain = simulate(trace, "GD", 1000.0).metrics
        gated = simulate(
            trace, create_policy("DOORKEEPER", inner="GD"), 1000.0
        ).metrics
        working_warm_plain = sum(
            plain.per_function[f.name].warm for f in working
        )
        working_warm_gated = sum(
            gated.per_function[f.name].warm for f in working
        )
        assert working_warm_gated > working_warm_plain

    def test_expired_prewarm_delegation(self):
        """TTL-flavoured inner policies keep their expiry behaviour."""
        dk = DoorkeeperPolicy(inner=create_policy("TTL", ttl_s=50.0))
        pool = ContainerPool(1000.0)
        f = make_function("A")
        dk.on_invocation(f, 0.0)
        dk.on_invocation(f, 1.0)
        c = make_container(f, 0.0)
        pool.add(c)
        dk.on_cold_start(c, 0.0, pool)
        assert dk.expired_containers(pool, 100.0)
