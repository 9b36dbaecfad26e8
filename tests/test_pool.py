"""Unit tests for the container pool."""

import random

import pytest

from repro.core.pool import CapacityError, ContainerPool
from tests.conftest import make_container, make_function


def pooled(pool, function, created_at=0.0):
    c = make_container(function, created_at)
    pool.add(c)
    return c


class TestCapacityAccounting:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ContainerPool(0.0)

    def test_add_updates_usage(self):
        pool = ContainerPool(1000.0)
        pooled(pool, make_function(memory_mb=300.0))
        assert pool.used_mb == 300.0
        assert pool.free_mb == 700.0

    def test_add_over_capacity_raises(self):
        pool = ContainerPool(250.0)
        with pytest.raises(CapacityError):
            pooled(pool, make_function(memory_mb=300.0))

    def test_evict_restores_capacity(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool, make_function(memory_mb=300.0))
        pool.evict(c)
        assert pool.used_mb == 0.0
        assert len(pool) == 0

    def test_can_fit(self):
        pool = ContainerPool(500.0)
        assert pool.can_fit(500.0)
        pooled(pool, make_function(memory_mb=300.0))
        assert pool.can_fit(200.0)
        assert not pool.can_fit(201.0)

    def test_repeated_add_evict_no_drift(self):
        pool = ContainerPool(1000.0)
        f = make_function(memory_mb=333.33)
        for __ in range(100):
            c = pooled(pool, f)
            pool.evict(c)
        assert pool.used_mb == 0.0

    def test_set_capacity_grow(self):
        pool = ContainerPool(500.0)
        pool.set_capacity(1000.0)
        assert pool.capacity_mb == 1000.0

    def test_set_capacity_below_usage_raises(self):
        pool = ContainerPool(1000.0)
        pooled(pool, make_function(memory_mb=600.0))
        with pytest.raises(CapacityError):
            pool.set_capacity(500.0)

    def test_set_capacity_to_exact_usage(self):
        pool = ContainerPool(1000.0)
        pooled(pool, make_function(memory_mb=600.0))
        pool.set_capacity(600.0)
        assert pool.free_mb == pytest.approx(0.0)


class TestMembership:
    def test_cannot_add_twice(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool, make_function())
        with pytest.raises(ValueError):
            pool.add(c)

    def test_cannot_add_dead_container(self):
        pool = ContainerPool(1000.0)
        c = make_container(make_function(), 0.0)
        c.terminate()
        with pytest.raises(ValueError):
            pool.add(c)

    def test_evict_unknown_raises(self):
        pool = ContainerPool(1000.0)
        c = make_container(make_function(), 0.0)
        with pytest.raises(KeyError):
            pool.evict(c)

    def test_evict_running_raises_and_keeps_container(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool, make_function())
        c.start_invocation(0.0, 5.0)
        with pytest.raises(RuntimeError):
            pool.evict(c)
        assert c in pool
        assert pool.used_mb == c.memory_mb

    def test_contains(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool, make_function())
        assert c in pool
        pool.evict(c)
        assert c not in pool


class TestQueries:
    def test_idle_warm_container_prefers_lru(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        old = pooled(pool, f, created_at=0.0)
        new = pooled(pool, f, created_at=50.0)
        found = pool.idle_warm_container("A")
        assert found is old

    def test_idle_warm_container_skips_running(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        c = pooled(pool, f)
        c.start_invocation(0.0, 10.0)
        assert pool.idle_warm_container("A") is None

    def test_idle_warm_container_unknown_function(self):
        pool = ContainerPool(1000.0)
        assert pool.idle_warm_container("missing") is None

    def test_containers_of_and_names(self):
        pool = ContainerPool(1000.0)
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        pooled(pool, a)
        pooled(pool, a)
        pooled(pool, b)
        assert len(pool.containers_of("A")) == 2
        assert pool.function_names() == ["A", "B"]
        assert pool.has_containers_of("A")
        assert not pool.has_containers_of("Z")

    def test_has_containers_cleared_after_last_eviction(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool, make_function("A"))
        pool.evict(c)
        assert not pool.has_containers_of("A")

    def test_idle_and_running_partition(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        idle = pooled(pool, f)
        running = pooled(pool, f)
        running.start_invocation(0.0, 10.0)
        assert pool.idle_containers() == [idle]
        assert pool.running_containers() == [running]
        assert set(pool.all_containers()) == {idle, running}

    def test_evictable_mb(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        pooled(pool, f)
        busy = pooled(pool, f)
        busy.start_invocation(0.0, 10.0)
        assert pool.evictable_mb() == pytest.approx(100.0)


class TestPerFunctionIndex:
    """The per-function index holds the containers themselves, in
    ascending id order, whatever order they were admitted in."""

    def built(self, function, count):
        # Externally built: ids ascend in construction order.
        return [make_container(function, 0.0) for __ in range(count)]

    def test_out_of_order_adds_keep_id_order(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        first, second, third, fourth = self.built(f, 4)
        for container in (third, first, fourth, second):
            pool.add(container)
        assert pool.containers_of("A") == [first, second, third, fourth]

    def test_idle_warm_container_is_lru_then_lowest_id(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        first, second, third = self.built(f, 3)
        for container in (third, second, first):
            pool.add(container)
        # All three last used at 0.0: the tie goes to the lowest id.
        assert pool.idle_warm_container("A") is first
        first.start_invocation(1.0, 1.0)
        first.finish_invocation(2.0)
        assert pool.idle_warm_container("A") is second
        second.start_invocation(3.0, 1.0)
        third.start_invocation(3.5, 1.0)
        # Only ``first`` is idle now, whatever its recency.
        assert pool.idle_warm_container("A") is first

    def test_mutating_containers_of_leaves_the_pool_alone(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        first, second = pooled(pool, f), pooled(pool, f)
        got = pool.containers_of("A")
        got.reverse()
        got.append(make_container(f, 0.0))
        assert pool.containers_of("A") == [first, second]
        got.clear()
        assert pool.idle_warm_container("A") is first
        empty = pool.containers_of("missing")
        empty.append(first)
        assert pool.containers_of("missing") == []

    def test_evicting_a_middle_container_keeps_the_order(self):
        pool = ContainerPool(1000.0)
        f = make_function("A", memory_mb=100.0)
        containers = self.built(f, 5)
        for container in reversed(containers):
            pool.add(container)
        pool.evict(containers[2])
        assert pool.containers_of("A") == containers[:2] + containers[3:]
        pool.evict(containers[0])
        pool.evict(containers[4])
        assert pool.containers_of("A") == [containers[1], containers[3]]

    def test_random_operations_match_a_naive_scan(self):
        rng = random.Random(34)
        functions = [make_function(f"fn-{i}", memory_mb=10.0) for i in range(4)]
        pool = ContainerPool(10_000.0)
        backlog, now = [], 0.0
        for __ in range(2_000):
            now += rng.uniform(0.0, 1.0)
            pooled_now = list(pool._containers.values())
            op = rng.random()
            if op < 0.15:
                # Built now, admitted later: an out-of-order add.
                backlog.append(make_container(rng.choice(functions), now))
            elif op < 0.35:
                if backlog and rng.random() < 0.5:
                    container = backlog.pop(rng.randrange(len(backlog)))
                else:
                    container = make_container(rng.choice(functions), now)
                pool.add(container)
            elif op < 0.6:
                idle = [c for c in pooled_now if c.is_idle]
                if idle:
                    rng.choice(idle).start_invocation(now, rng.uniform(0.1, 2.0))
            elif op < 0.85:
                running = [c for c in pooled_now if c.is_running]
                if running:
                    rng.choice(running).finish_invocation(now)
            else:
                idle = [c for c in pooled_now if c.is_idle]
                if idle:
                    pool.evict(rng.choice(idle))
            for function in functions:
                name = function.name
                naive = sorted(
                    (c for c in pool._containers.values() if c.function.name == name),
                    key=lambda c: c.container_id,
                )
                assert pool.containers_of(name) == naive
                idle = [c for c in naive if c.is_idle]
                expected = min(
                    idle, key=lambda c: (c.last_used_s, c.container_id), default=None
                )
                assert pool.idle_warm_container(name) is expected
            assert pool.function_names() == sorted(
                {c.function.name for c in pool._containers.values()}
            )
        assert len(pool) > 10  # the sequence kept a populated pool
