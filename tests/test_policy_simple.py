"""Unit tests for TTL, LRU, LFU (FREQ), and SIZE policies."""

import pytest

from repro.core.policies.base import available_policies, create_policy
from repro.core.policies.lfu import LFUPolicy
from repro.core.policies.lru import LRUPolicy
from repro.core.policies.size import SizePolicy
from repro.core.policies.ttl import OPENWHISK_DEFAULT_TTL_S, TTLPolicy
from repro.core.pool import ContainerPool
from tests.conftest import make_container, make_function


def idle_container(pool, function, last_used_s):
    c = make_container(function, created_at_s=last_used_s)
    c.last_used_s = last_used_s
    pool.add(c)
    return c


def served(policy, pool, function, at_s):
    """A container that served one instant invocation at ``at_s``,
    started as the simulator starts one: the policy's cold-start hook
    sees it running."""
    c = make_container(function, created_at_s=at_s)
    pool.add(c)
    c.start_invocation(at_s, 0.0)
    policy.on_cold_start(c, at_s, pool)
    c.finish_invocation(at_s)
    return c


class TestRegistry:
    def test_all_paper_policies_registered(self):
        names = available_policies()
        for expected in ("GD", "TTL", "LRU", "HIST", "SIZE", "LND", "FREQ"):
            assert expected in names

    def test_create_by_lowercase_name(self):
        assert create_policy("lru").name == "LRU"

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            create_policy("NOPE")

    def test_policy_kwargs_forwarded(self):
        policy = create_policy("TTL", ttl_s=120.0)
        assert policy.ttl_s == 120.0


class TestTTL:
    def test_default_is_openwhisk_ten_minutes(self):
        assert TTLPolicy().ttl_s == OPENWHISK_DEFAULT_TTL_S == 600.0

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValueError):
            TTLPolicy(ttl_s=0.0)

    def test_expires_after_ttl(self):
        policy = TTLPolicy(ttl_s=100.0)
        pool = ContainerPool(1000.0)
        c = served(policy, pool, make_function("A"), 0.0)
        assert policy.next_expiry_s(pool) == 100.0
        assert policy.expired_containers(pool, 99.0) == []
        expired = policy.expired_containers(pool, 100.0)
        assert [pair[0] for pair in expired] == [c]
        assert expired[0][1] == pytest.approx(100.0)

    def test_does_not_expire_running(self):
        policy = TTLPolicy(ttl_s=100.0)
        pool = ContainerPool(1000.0)
        c = served(policy, pool, make_function("A"), 0.0)
        c.start_invocation(50.0, 500.0)  # busy past its deadline
        assert policy.expired_containers(pool, 200.0) == []

    def test_expiry_order_is_oldest_first(self):
        policy = TTLPolicy(ttl_s=10.0)
        pool = ContainerPool(1000.0)
        newer = served(policy, pool, make_function("A", memory_mb=10), 5.0)
        older = served(policy, pool, make_function("B", memory_mb=10), 0.0)
        expired = [c for c, __ in policy.expired_containers(pool, 100.0)]
        assert expired == [older, newer]

    def test_pressure_eviction_is_lru(self):
        policy = TTLPolicy()
        pool = ContainerPool(200.0)
        old = idle_container(pool, make_function("A", memory_mb=100.0), 0.0)
        new = idle_container(pool, make_function("B", memory_mb=100.0), 50.0)
        victims = policy.select_victims(pool, 100.0, 60.0)
        assert victims == [old]


class TestLRU:
    def test_priority_is_last_use(self):
        policy = LRUPolicy()
        pool = ContainerPool(1000.0)
        c = idle_container(pool, make_function("A"), last_used_s=42.0)
        assert policy.priority(c, 100.0) == 42.0

    def test_never_expires(self):
        policy = LRUPolicy()
        pool = ContainerPool(1000.0)
        idle_container(pool, make_function("A"), 0.0)
        assert policy.expired_containers(pool, 1e9) == []

    def test_evicts_least_recent(self):
        policy = LRUPolicy()
        pool = ContainerPool(300.0)
        c1 = idle_container(pool, make_function("A", memory_mb=100.0), 10.0)
        c2 = idle_container(pool, make_function("B", memory_mb=100.0), 5.0)
        c3 = idle_container(pool, make_function("C", memory_mb=100.0), 20.0)
        victims = policy.select_victims(pool, 200.0, 30.0)
        assert victims == [c2, c1]


class TestLFU:
    def test_priority_is_frequency(self):
        policy = LFUPolicy()
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = idle_container(pool, f, 0.0)
        policy.on_invocation(f, 0.0)
        policy.on_invocation(f, 1.0)
        assert policy.priority(c, 2.0) == 2.0

    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        pool = ContainerPool(200.0)
        hot = make_function("H", memory_mb=100.0)
        cold = make_function("C", memory_mb=100.0)
        ch = idle_container(pool, hot, 0.0)
        cc = idle_container(pool, cold, 5.0)  # more recent, but less frequent
        for t in range(5):
            policy.on_invocation(hot, float(t))
        policy.on_invocation(cold, 5.0)
        victims = policy.select_victims(pool, 100.0, 6.0)
        assert victims == [cc]

    def test_tie_broken_by_lru(self):
        policy = LFUPolicy()
        pool = ContainerPool(200.0)
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        ca = idle_container(pool, a, 0.0)
        cb = idle_container(pool, b, 10.0)
        policy.on_invocation(a, 0.0)
        policy.on_invocation(b, 10.0)
        victims = policy.select_victims(pool, 100.0, 20.0)
        assert victims == [ca]


class TestSize:
    def test_priority_is_inverse_size(self):
        policy = SizePolicy()
        pool = ContainerPool(1000.0)
        c = idle_container(pool, make_function("A", memory_mb=250.0), 0.0)
        assert policy.priority(c, 0.0) == pytest.approx(1.0 / 250.0)

    def test_evicts_largest_first(self):
        policy = SizePolicy()
        pool = ContainerPool(700.0)
        small = idle_container(pool, make_function("S", memory_mb=100.0), 10.0)
        big = idle_container(pool, make_function("B", memory_mb=500.0), 20.0)
        victims = policy.select_victims(pool, 200.0, 30.0)
        assert victims == [big]
