"""Tests for the extended policy family: GDS, ARC, SLRU, LRU-K, baselines."""

import pytest

from repro.core.policies import EXTENDED_POLICIES, available_policies, create_policy
from repro.core.policies.arc import ARCPolicy
from repro.core.policies.baselines import FIFOPolicy, RandomPolicy
from repro.core.policies.gds import GreedyDualSizePolicy
from repro.core.policies.lruk import LRUKPolicy
from repro.core.policies.slru import SegmentedLRUPolicy
from repro.core.pool import ContainerPool
from repro.sim.scheduler import simulate
from repro.traces.synth import cyclic_trace
from tests.conftest import make_container, make_function, make_trace


def cold_start(policy, pool, function, now):
    policy.on_invocation(function, now)
    container = make_container(function, now)
    pool.add(container)
    container.start_invocation(now, function.cold_time_s)
    policy.on_cold_start(container, now, pool)
    container.finish_invocation(now + function.cold_time_s)
    return container


def warm_hit(policy, pool, container, now):
    function = container.function
    policy.on_invocation(function, now)
    container.start_invocation(now, function.warm_time_s)
    policy.on_warm_start(container, now, pool)
    container.finish_invocation(now + function.warm_time_s)


class TestRegistry:
    def test_extended_policies_registered(self):
        names = available_policies()
        for expected in EXTENDED_POLICIES:
            assert expected in names

    def test_all_run_in_simulator(self):
        trace = make_trace("ABCABCBCA" * 5, gap_s=2.0)
        for name in EXTENDED_POLICIES:
            result = simulate(trace, name, 512.0)
            m = result.metrics
            assert m.warm_starts + m.cold_starts + m.dropped == len(trace)


class TestGDS:
    def test_value_term_ignores_frequency(self):
        policy = GreedyDualSizePolicy()
        pool = ContainerPool(10_000.0)
        f = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        c = cold_start(policy, pool, f, 0.0)
        p1 = c.priority
        warm_hit(policy, pool, c, 10.0)
        assert c.priority == pytest.approx(p1)  # frequency-blind

    def test_pins_like_gd_on_cyclic(self):
        trace = cyclic_trace(num_functions=12, num_cycles=50)
        gds = simulate(trace, "GDS", 2304.0).metrics
        lru = simulate(trace, "LRU", 2304.0).metrics
        assert gds.warm_starts > lru.warm_starts


class TestLRUK:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            LRUKPolicy(k=0)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), 1.5, 2.0])
    def test_k_must_be_an_integer(self, k):
        # Refused at construction, not by the deque mid-replay.
        with pytest.raises(ValueError, match="integer"):
            create_policy("LRUK", k=k)

    def test_one_timers_evicted_before_established(self):
        policy = LRUKPolicy(k=2)
        pool = ContainerPool(300.0)
        regular = make_function("R", memory_mb=100.0)
        scan = make_function("S", memory_mb=100.0)
        cr = cold_start(policy, pool, regular, 0.0)
        warm_hit(policy, pool, cr, 10.0)  # two references: established
        cs = cold_start(policy, pool, scan, 20.0)  # single reference
        # Scan is more recent, but LRU-K evicts it first.
        victims = policy.select_victims(pool, 150.0, 30.0)
        assert victims == [cs]

    def test_among_established_oldest_kth_reference_goes(self):
        policy = LRUKPolicy(k=2)
        pool = ContainerPool(300.0)
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        ca = cold_start(policy, pool, a, 0.0)
        cb = cold_start(policy, pool, b, 5.0)
        warm_hit(policy, pool, ca, 10.0)  # A's 2nd ref at t=0 -> K-dist 0
        warm_hit(policy, pool, cb, 20.0)  # B's 2nd ref at t=5 -> K-dist 5
        victims = policy.select_victims(pool, 150.0, 30.0)
        assert victims == [ca]

    def test_reset(self):
        policy = LRUKPolicy()
        policy.on_invocation(make_function("A"), 0.0)
        policy.reset()
        assert policy._history == {}


class TestSLRU:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SegmentedLRUPolicy(protected_fraction=1.0)

    def test_cold_admission_is_probationary(self):
        policy = SegmentedLRUPolicy()
        pool = ContainerPool(1000.0)
        c = cold_start(policy, pool, make_function("A"), 0.0)
        assert not policy.is_protected(c)

    def test_hit_promotes_to_protected(self):
        policy = SegmentedLRUPolicy()
        pool = ContainerPool(1000.0)
        c = cold_start(policy, pool, make_function("A"), 0.0)
        warm_hit(policy, pool, c, 10.0)
        assert policy.is_protected(c)

    def test_probationary_evicted_before_protected(self):
        policy = SegmentedLRUPolicy()
        pool = ContainerPool(300.0)
        hot = cold_start(policy, pool, make_function("H", memory_mb=100.0), 0.0)
        warm_hit(policy, pool, hot, 5.0)
        scan = cold_start(policy, pool, make_function("S", memory_mb=100.0), 50.0)
        # Scan is far more recent, yet probationary goes first.
        victims = policy.select_victims(pool, 150.0, 60.0)
        assert victims == [scan]

    def test_protected_overflow_demotes_lru_tail(self):
        policy = SegmentedLRUPolicy(protected_fraction=0.4)
        pool = ContainerPool(500.0)  # protected budget: 200 MB
        a = cold_start(policy, pool, make_function("A", memory_mb=100.0), 0.0)
        b = cold_start(policy, pool, make_function("B", memory_mb=100.0), 1.0)
        c = cold_start(policy, pool, make_function("C", memory_mb=100.0), 2.0)
        warm_hit(policy, pool, a, 10.0)
        warm_hit(policy, pool, b, 20.0)
        assert policy.is_protected(a) and policy.is_protected(b)
        warm_hit(policy, pool, c, 30.0)  # exceeds budget: A demoted
        assert not policy.is_protected(a)
        assert policy.is_protected(b) and policy.is_protected(c)

    def test_eviction_cleans_state(self):
        policy = SegmentedLRUPolicy()
        pool = ContainerPool(1000.0)
        c = cold_start(policy, pool, make_function("A"), 0.0)
        pool.evict(c)
        policy.on_evict(c, 1.0, pool, pressure=True)
        assert c.container_id not in policy._protected


class TestARC:
    def test_first_admission_goes_to_t1(self):
        policy = ARCPolicy()
        pool = ContainerPool(1000.0)
        cold_start(policy, pool, make_function("A"), 0.0)
        assert "A" in policy._t1
        assert "A" not in policy._t2

    def test_hit_promotes_to_t2(self):
        policy = ARCPolicy()
        pool = ContainerPool(1000.0)
        c = cold_start(policy, pool, make_function("A"), 0.0)
        warm_hit(policy, pool, c, 10.0)
        assert "A" in policy._t2
        assert "A" not in policy._t1

    def test_pressure_eviction_creates_ghost(self):
        policy = ARCPolicy()
        pool = ContainerPool(200.0)
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        ca = cold_start(policy, pool, a, 0.0)
        cb = cold_start(policy, pool, b, 1.0)
        big = make_function("BIG", memory_mb=200.0)
        policy.on_invocation(big, 5.0)
        victims = policy.select_victims(pool, 200.0, 5.0)
        assert victims is not None
        for v in victims:
            pool.evict(v)
            policy.on_evict(v, 5.0, pool, pressure=True)
        assert "A" in policy._b1 and "B" in policy._b1

    def test_ghost_hit_adapts_p(self):
        policy = ARCPolicy()
        pool = ContainerPool(200.0)
        a = make_function("A", memory_mb=100.0)
        b = make_function("B", memory_mb=100.0)
        ca = cold_start(policy, pool, a, 0.0)
        cold_start(policy, pool, b, 1.0)
        # Evict A under pressure -> ghost in B1.
        pool.evict(ca)
        policy.on_evict(ca, 2.0, pool, pressure=True)
        assert "A" in policy._b1
        p_before = policy.p_mb
        cold_start(policy, pool, a, 10.0)
        assert policy.p_mb > p_before
        assert "A" in policy._t2  # ghost re-admission lands in T2

    def test_b2_ghost_hit_shrinks_p(self):
        policy = ARCPolicy()
        pool = ContainerPool(1000.0)
        a = make_function("A", memory_mb=100.0)
        policy.p_mb = 500.0
        policy._b2["A"] = a.memory_mb
        cold_start(policy, pool, a, 0.0)
        assert policy.p_mb < 500.0

    def test_expiry_style_eviction_makes_no_ghost(self):
        policy = ARCPolicy()
        pool = ContainerPool(1000.0)
        c = cold_start(policy, pool, make_function("A"), 0.0)
        pool.evict(c)
        policy.on_evict(c, 1.0, pool, pressure=False)
        assert "A" not in policy._b1 and "A" not in policy._b2

    def test_scan_resistance(self):
        """A one-pass scan of many functions must not flush an
        established, frequently-hit working set."""
        from repro.traces.model import Invocation, Trace, TraceFunction

        working = [
            TraceFunction(f"w{i}", 100.0, 1.0, 3.0) for i in range(4)
        ]
        scan = [TraceFunction(f"s{i}", 100.0, 1.0, 3.0) for i in range(30)]
        invocations = []
        t = 0.0
        # Establish the working set (two rounds -> all in T2).
        for __ in range(4):
            for f in working:
                invocations.append(Invocation(t, f.name))
                t += 5.0
        # One-pass scan.
        for f in scan:
            invocations.append(Invocation(t, f.name))
            t += 5.0
        # Working set again.
        for f in working:
            invocations.append(Invocation(t, f.name))
            t += 5.0
        trace = Trace(working + scan, invocations)
        arc = simulate(trace, "ARC", 800.0).metrics
        lru = simulate(trace, "LRU", 800.0).metrics
        # ARC keeps the working set warm through the scan; LRU flushes it.
        final_warm_arc = sum(
            arc.per_function[f.name].warm for f in working
        )
        final_warm_lru = sum(
            lru.per_function[f.name].warm for f in working
        )
        assert final_warm_arc > final_warm_lru

    def test_reset(self):
        policy = ARCPolicy()
        pool = ContainerPool(1000.0)
        cold_start(policy, pool, make_function("A"), 0.0)
        policy.p_mb = 10.0
        policy.reset()
        assert not policy._t1 and not policy._t2
        assert policy.p_mb == 0.0


class TestBaselines:
    def test_fifo_evicts_by_creation_order(self):
        policy = FIFOPolicy()
        pool = ContainerPool(300.0)
        a = cold_start(policy, pool, make_function("A", memory_mb=100.0), 0.0)
        b = cold_start(policy, pool, make_function("B", memory_mb=100.0), 5.0)
        warm_hit(policy, pool, a, 50.0)  # recency must not matter
        victims = policy.select_victims(pool, 200.0, 60.0)
        assert victims == [a]

    def _random_order(self, seed):
        """Creation indices of 20 cold-started containers, in the victim
        order a ``RandomPolicy(seed)`` gives them."""
        policy, pool = RandomPolicy(seed=seed), ContainerPool(1000.0)
        containers = [
            cold_start(policy, pool, make_function(f"f{i}", memory_mb=10.0), 0.0)
            for i in range(20)
        ]
        ranked = sorted(containers, key=lambda c: policy.priority(c, 0.0))
        return [containers.index(c) for c in ranked]

    def test_random_is_deterministic_per_seed(self):
        assert self._random_order(3) == self._random_order(3)

    def test_random_seed_changes_order(self):
        assert self._random_order(1) != self._random_order(2)
