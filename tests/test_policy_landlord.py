"""Unit tests for the Landlord (LND) policy."""

import pytest

from repro.core.policies.landlord import LandlordPolicy
from repro.core.pool import ContainerPool
from tests.conftest import make_container, make_function


def admit(policy, pool, function, now=0.0):
    c = make_container(function, now)
    pool.add(c)
    policy.on_cold_start(c, now, pool)
    return c


class TestCredits:
    def test_credit_set_to_init_cost_on_cold_start(self):
        policy = LandlordPolicy()
        pool = ContainerPool(1000.0)
        f = make_function("A", warm_time_s=1.0, cold_time_s=4.0)
        c = admit(policy, pool, f)
        assert c.credit == pytest.approx(3.0)

    def test_credit_refreshed_on_hit(self):
        policy = LandlordPolicy()
        pool = ContainerPool(1000.0)
        f = make_function("A", warm_time_s=1.0, cold_time_s=4.0)
        c = admit(policy, pool, f)
        c.credit = 0.5
        policy.on_warm_start(c, 10.0, pool)
        assert c.credit == pytest.approx(3.0)

    def test_zero_cost_function_gets_positive_credit(self):
        policy = LandlordPolicy()
        pool = ContainerPool(1000.0)
        f = make_function("A", warm_time_s=2.0, cold_time_s=2.0)
        c = admit(policy, pool, f)
        assert c.credit > 0.0


class TestRentCharging:
    def test_rent_charged_to_all_idle_containers(self):
        policy = LandlordPolicy()
        pool = ContainerPool(300.0)
        # Same size; A has less credit, so A is the first victim.
        a = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        b = make_function("B", memory_mb=100.0, warm_time_s=1.0, cold_time_s=5.0)
        ca = admit(policy, pool, a)
        cb = admit(policy, pool, b)
        victims = policy.select_victims(pool, 200.0, 10.0)
        assert victims == [ca]
        # B paid rent delta * size = (1.0 / 100) * 100 = 1.0 credit.
        assert cb.credit == pytest.approx(4.0 - 1.0)

    def test_victim_credit_is_zero(self):
        policy = LandlordPolicy()
        pool = ContainerPool(200.0)
        a = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        ca = admit(policy, pool, a)
        victims = policy.select_victims(pool, 200.0, 10.0)
        assert victims == [ca]
        assert ca.credit == 0.0

    def test_rent_depends_on_size_density(self):
        policy = LandlordPolicy()
        pool = ContainerPool(600.0)
        # Big container: cost 4 over 500 MB -> density 0.008;
        # small container: cost 1 over 100 MB -> density 0.01.
        # The big one has the *lower* density, so it goes first.
        big = make_function("B", memory_mb=500.0, warm_time_s=1.0, cold_time_s=5.0)
        small = make_function("S", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        cb = admit(policy, pool, big)
        cs = admit(policy, pool, small)
        victims = policy.select_victims(pool, 450.0, 10.0)
        assert victims == [cb]
        assert cs.credit < 1.0  # rent was charged

    def test_multiple_rounds_until_enough_space(self):
        policy = LandlordPolicy()
        pool = ContainerPool(300.0)
        functions = [
            make_function(n, memory_mb=100.0, warm_time_s=1.0, cold_time_s=c)
            for n, c in (("A", 2.0), ("B", 3.0), ("C", 4.0))
        ]
        containers = [admit(policy, pool, f) for f in functions]
        victims = policy.select_victims(pool, 250.0, 10.0)
        assert len(victims) >= 2
        # Victims are the lowest-credit-density containers.
        assert containers[0] in victims
        assert containers[1] in victims

    def test_returns_none_when_unsatisfiable(self):
        policy = LandlordPolicy()
        pool = ContainerPool(100.0)
        c = admit(policy, pool, make_function("A", memory_mb=100.0))
        c.start_invocation(0.0, 100.0)
        assert policy.select_victims(pool, 100.0, 1.0) is None

    def test_no_eviction_needed_returns_empty(self):
        policy = LandlordPolicy()
        pool = ContainerPool(1000.0)
        admit(policy, pool, make_function("A", memory_mb=100.0))
        assert policy.select_victims(pool, 100.0, 1.0) == []

    def test_hit_refresh_keeps_surviving_rent_rounds(self):
        """A refreshed high-cost container outlives churned peers."""
        policy = LandlordPolicy()
        pool = ContainerPool(300.0)
        hot = make_function("H", memory_mb=100.0, warm_time_s=1.0, cold_time_s=6.0)
        churn = make_function("C", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
        ch = admit(policy, pool, hot)
        cc = admit(policy, pool, churn)
        for round_ in range(3):
            now = 10.0 * (round_ + 1)
            victims = policy.select_victims(pool, 200.0, now)
            assert victims == [cc]
            for v in victims:
                pool.evict(v)
                policy.on_evict(v, now, pool, pressure=True)
            # The survivor is hit (credit refreshed to full cost)...
            policy.on_warm_start(ch, now, pool)
            assert ch.credit == pytest.approx(5.0)
            # ...and the churned function comes back cold.
            cc = admit(policy, pool, churn, now)

    def test_evicts_only_enough_zero_credit_containers(self):
        """Equal-density peers zero together, but only the needed
        amount is evicted; survivors keep zero credit for next time."""
        policy = LandlordPolicy()
        pool = ContainerPool(300.0)
        a = make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        b = make_function("B", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0)
        ca = admit(policy, pool, a)
        cb = admit(policy, pool, b)
        victims = policy.select_victims(pool, 200.0, 10.0)
        assert len(victims) == 1
        survivor = cb if victims == [ca] else ca
        assert survivor.credit == pytest.approx(0.0)
