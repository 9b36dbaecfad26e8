"""Unit tests for the Greedy-Dual-Size-Frequency policy (Equation 1)."""

import pytest

from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.pool import ContainerPool
from tests.conftest import make_container, make_function


def start_cold(policy, pool, function, now):
    """Simulate the scheduler's cold-start sequence for one invocation."""
    policy.on_invocation(function, now)
    container = make_container(function, now)
    pool.add(container)
    container.start_invocation(now, function.cold_time_s)
    policy.on_cold_start(container, now, pool)
    container.finish_invocation(now + function.cold_time_s)
    return container


def hit(policy, pool, container, now):
    function = container.function
    policy.on_invocation(function, now)
    container.start_invocation(now, function.warm_time_s)
    policy.on_warm_start(container, now, pool)
    container.finish_invocation(now + function.warm_time_s)


class TestPriorityFormula:
    def test_priority_is_clock_plus_value(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        c = start_cold(policy, pool, f, now=0.0)
        # clock=0, freq=1, cost=2, size=100
        assert c.priority == pytest.approx(0.0 + 1 * 2.0 / 100.0)

    def test_frequency_raises_priority(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        c = start_cold(policy, pool, f, now=0.0)
        p1 = c.priority
        hit(policy, pool, c, now=10.0)
        assert c.priority == pytest.approx(2 * p1)

    def test_larger_size_lowers_priority(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        small = make_function("S", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        large = make_function("L", memory_mb=1000.0, warm_time_s=1.0, cold_time_s=3.0)
        cs = start_cold(policy, pool, small, now=0.0)
        cl = start_cold(policy, pool, large, now=0.0)
        assert cs.priority > cl.priority

    def test_higher_cost_raises_priority(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        cheap = make_function("C", memory_mb=100.0, warm_time_s=1.0, cold_time_s=1.5)
        dear = make_function("D", memory_mb=100.0, warm_time_s=1.0, cold_time_s=9.0)
        cc = start_cold(policy, pool, cheap, now=0.0)
        cd = start_cold(policy, pool, dear, now=0.0)
        assert cd.priority > cc.priority

    def test_all_containers_of_function_share_value_term(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        c1 = start_cold(policy, pool, f, now=0.0)
        c2 = start_cold(policy, pool, f, now=1.0)  # concurrent second container
        # freq is now 2 for both; stamps both 0 (no evictions yet).
        assert c1.priority == pytest.approx(c2.priority)


class TestClockSemantics:
    def test_clock_starts_at_zero_and_only_advances_on_eviction(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        start_cold(policy, pool, f, now=0.0)
        assert policy.clock.value == 0.0  # hits/misses don't move it

    def test_eviction_advances_clock_to_victim_priority(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(200.0)
        a = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        b = make_function("B", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        big = make_function("BIG", memory_mb=200.0, warm_time_s=1.0, cold_time_s=2.0)
        ca = start_cold(policy, pool, a, now=0.0)
        cb = start_cold(policy, pool, b, now=2.0)
        policy.on_invocation(big, 10.0)
        victims = policy.select_victims(pool, big.memory_mb, 10.0)
        assert victims is not None and len(victims) == 2
        max_priority = max(v.priority for v in victims)
        for v in victims:
            pool.evict(v)
            policy.on_evict(v, 10.0, pool, pressure=True)
        assert policy.clock.value == pytest.approx(max_priority)

    def test_recently_used_containers_outlive_clock_advance(self):
        """After evictions raise the clock, fresh containers stamp higher."""
        policy = GreedyDualPolicy()
        pool = ContainerPool(300.0)
        f1 = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        f2 = make_function("B", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        f3 = make_function("C", memory_mb=200.0, warm_time_s=1.0, cold_time_s=2.0)
        c1 = start_cold(policy, pool, f1, now=0.0)
        c2 = start_cold(policy, pool, f2, now=1.0)
        # Evict to fit C: both A and B are candidates; one dies.
        policy.on_invocation(f3, 5.0)
        victims = policy.select_victims(pool, f3.memory_mb, 5.0)
        for v in victims:
            pool.evict(v)
            policy.on_evict(v, 5.0, pool, pressure=True)
        c3 = start_cold(policy, pool, f3, now=5.0)
        assert c3.clock_stamp == policy.clock.value
        assert c3.clock_stamp > 0.0


class TestFrequencyLifecycle:
    def test_frequency_resets_when_last_container_dies(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        c = start_cold(policy, pool, f, now=0.0)
        hit(policy, pool, c, now=1.0)
        assert policy.frequency_of("A") == 2
        pool.evict(c)
        policy.on_evict(c, 2.0, pool, pressure=True)
        assert policy.frequency_of("A") == 0

    def test_frequency_kept_while_peers_remain(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        c1 = start_cold(policy, pool, f, now=0.0)
        c2 = start_cold(policy, pool, f, now=0.5)
        pool.evict(c1)
        policy.on_evict(c1, 1.0, pool, pressure=True)
        assert policy.frequency_of("A") == 2


class TestVictimSelection:
    def test_returns_empty_when_space_is_free(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(1000.0)
        assert policy.select_victims(pool, 500.0, 0.0) == []

    def test_returns_none_when_unsatisfiable(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(300.0)
        f = make_function("A", memory_mb=200.0)
        c = make_container(f, 0.0)
        pool.add(c)
        c.start_invocation(0.0, 100.0)  # running: not evictable
        assert policy.select_victims(pool, 200.0, 1.0) is None

    def test_evicts_lowest_priority_first(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(300.0)
        # B has a much higher cost: A should be the victim.
        a = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=1.1)
        b = make_function("B", memory_mb=100.0, warm_time_s=1.0, cold_time_s=9.0)
        ca = start_cold(policy, pool, a, now=0.0)
        cb = start_cold(policy, pool, b, now=0.0)
        victims = policy.select_victims(pool, 150.0, 5.0)
        assert victims == [ca]

    @pytest.mark.parametrize("name", ["frequency_weight", "cost_weight"])
    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan"), -1.0])
    def test_nonfinite_or_negative_term_weight_rejected(self, name, weight):
        """As for tenant weights: an infinite weight times a zero-cost
        function's zero term scores NaN, and a NaN never compares."""
        with pytest.raises(ValueError, match=f"{name} must be a finite number >= 0"):
            GreedyDualPolicy(**{name: weight})

    def test_weights_allow_lru_degeneration(self):
        """Zeroing the value weights reduces GD to pure clock order."""
        policy = GreedyDualPolicy(frequency_weight=0.0)
        pool = ContainerPool(10_000.0)
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=5.0)
        c = start_cold(policy, pool, f, now=0.0)
        assert c.priority == pytest.approx(0.0)

    def test_reset_clears_clock_and_frequencies(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        start_cold(policy, pool, f, now=0.0)
        policy.clock.advance_to(5.0)
        policy.reset()
        assert policy.clock.value == 0.0
        assert policy.frequency_of("A") == 0


class TestArrivalRefresh:
    """Regression: every Freq-changing path must refresh the cached
    priorities of the function's resident containers. Arrivals that
    drop or shed before any start hook runs used to leave siblings
    scored with the pre-arrival frequency."""

    def _value(self, policy, function):
        """Equation 1's Freq*Cost/Size with default weights."""
        return (
            policy.frequency_of(function.name)
            * function.init_time_s
            / function.memory_mb
        )

    def test_pool_aware_arrival_refreshes_residents(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        c1 = start_cold(policy, pool, f, now=0.0)
        c2 = start_cold(policy, pool, f, now=1.0)
        # An arrival announced to the policy that never reaches a
        # start hook (the scheduler drops or sheds it):
        policy.on_invocation(f, 2.0, pool)
        value = self._value(policy, f)
        assert c1.priority == c1.clock_stamp + value
        assert c2.priority == c2.clock_stamp + value

    def test_evicting_last_container_resets_then_rescoring_is_fresh(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        fa = make_function("A")
        fb = make_function("B")
        a1 = start_cold(policy, pool, fa, now=0.0)
        a2 = start_cold(policy, pool, fa, now=1.0)
        b = start_cold(policy, pool, fb, now=2.0)
        hit(policy, pool, b, now=3.0)
        # Evict A's containers one by one under pressure; the second
        # is the function's last, which resets A's frequency.
        for victim in (a1, a2):
            pool.evict(victim)
            policy.on_evict(victim, 10.0, pool, pressure=True)
        assert policy.frequency_of("A") == 0
        # The surviving sibling function's cached priority still
        # matches its own (unreset) frequency exactly.
        assert b.priority == b.clock_stamp + self._value(policy, fb)
        # A's next arrival scores from the fresh count, not the stale
        # pre-reset frequency.
        a3 = start_cold(policy, pool, fa, now=20.0)
        assert policy.frequency_of("A") == 1
        assert a3.priority == a3.clock_stamp + self._value(policy, fa)


class TestArrivalValueTerm:
    """The value term computed when an arrival is announced is reused
    by the start hook of *that* arrival only; it must never score a
    container of another arrival, another function, or a frequency
    that has since reset."""

    def _value(self, policy, function):
        return (
            policy.frequency_of(function.name)
            * function.init_time_s
            / function.memory_mb
        )

    def _cold(self, policy, pool, function, now, announce=True):
        if announce:
            policy.on_invocation(function, now, pool)
        container = make_container(function, now)
        container.start_invocation(now, function.cold_time_s)
        pool.add(container)
        policy.on_cold_start(container, now, pool)
        container.finish_invocation(now + function.cold_time_s)
        return container

    def test_dropped_arrival_does_not_score_the_next_function(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        fa = make_function("A", memory_mb=100.0, cold_time_s=9.0)
        fb = make_function("B", memory_mb=400.0, cold_time_s=2.0)
        a = self._cold(policy, pool, fa, 0.0)
        # A's next arrival is dropped: announced, no start hook.
        policy.on_invocation(fa, 20.0, pool)
        assert a.priority == a.clock_stamp + self._value(policy, fa)
        b = self._cold(policy, pool, fb, 21.0)
        assert b.priority == b.clock_stamp + self._value(policy, fb)
        assert a.priority == a.clock_stamp + self._value(policy, fa)

    def test_pool_less_arrival_falls_back_to_the_sibling_sweep(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        fa = make_function("A", memory_mb=100.0, cold_time_s=9.0)
        fb = make_function("B", memory_mb=400.0, cold_time_s=2.0)
        a1 = self._cold(policy, pool, fa, 0.0)
        a2 = self._cold(policy, pool, fa, 1.0)
        self._cold(policy, pool, fb, 20.0)  # leaves B's term behind
        # Bare lifecycle driver: no pool on the announcement.
        policy.on_invocation(fa, 30.0)
        a1.start_invocation(30.0, fa.warm_time_s)
        policy.on_warm_start(a1, 30.0, pool)
        value = self._value(policy, fa)
        assert policy.frequency_of("A") == 3
        assert a1.priority == a1.clock_stamp + value
        assert a2.priority == a2.clock_stamp + value

    def test_start_hook_without_any_announcement_uses_current_frequency(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        fa = make_function("A", memory_mb=100.0, cold_time_s=9.0)
        a = self._cold(policy, pool, fa, 0.0)
        hit(policy, pool, a, now=20.0)  # pool-less announcement
        assert a.priority == a.clock_stamp + self._value(policy, fa)
        assert policy.frequency_of("A") == 2

    def test_frequency_reset_between_announcement_and_start(self):
        policy = GreedyDualPolicy()
        pool = ContainerPool(10_000.0)
        fa = make_function("A", memory_mb=100.0, cold_time_s=9.0)
        old = self._cold(policy, pool, fa, 0.0)
        policy.on_invocation(fa, 20.0, pool)  # Freq 2, term cached
        pool.evict(old)
        policy.on_evict(old, 20.0, pool, pressure=True)  # Freq resets
        fresh = self._cold(policy, pool, fa, 20.0, announce=False)
        assert policy.frequency_of("A") == 0
        assert fresh.priority == fresh.clock_stamp  # 0 * Cost / Size

    def test_gds_and_tenant_weights_score_through_the_same_term(self):
        from repro.core.policies import create_policy

        fa = make_function("A", memory_mb=100.0, cold_time_s=9.0)
        for policy, expected in (
            (create_policy("GDS"), fa.init_time_s / fa.memory_mb),
            (
                GreedyDualPolicy(tenant_weights={0: 3.0}),
                3.0 * fa.init_time_s / fa.memory_mb,
            ),
        ):
            pool = ContainerPool(10_000.0)
            a = self._cold(policy, pool, fa, 0.0)
            assert a.priority == pytest.approx(expected)
