"""Tests for Che's approximation and the TTL cache model."""

import math
import random

import pytest

from repro.provisioning.analytical import (
    FunctionArrivalModel,
    characteristic_time,
    equivalent_ttl,
    lru_hit_ratio,
    models_from_trace,
    ttl_expected_memory_mb,
    ttl_hit_ratio,
)
from repro.sim.scheduler import simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import periodic_arrivals
from tests.conftest import make_trace


def poisson_trace(num_functions=30, duration_s=20_000.0, seed=5):
    """Poisson arrivals with heterogeneous rates and sizes; negligible
    execution times so concurrency effects vanish."""
    rng = random.Random(seed)
    functions = []
    invocations = []
    for i in range(num_functions):
        rate = 10 ** rng.uniform(-3.0, -1.0)  # 0.001 .. 0.1 per second
        size = rng.choice([64.0, 128.0, 256.0, 512.0])
        f = TraceFunction(f"f{i}", size, 1e-3, 2e-3)
        functions.append(f)
        invocations += periodic_arrivals(
            f.name, 1.0 / rate, duration_s, jitter=1.0, rng=rng
        )
    return Trace(functions, invocations, name="poisson")


class TestModelBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionArrivalModel("f", 0.0, 100.0)
        with pytest.raises(ValueError):
            FunctionArrivalModel("f", 1.0, 0.0)

    def test_models_from_trace(self):
        trace = make_trace("AABBBC", gap_s=10.0)
        models = {m.name: m for m in models_from_trace(trace)}
        assert set(models) == {"A", "B"}  # C has a single invocation
        assert models["B"].rate_per_s == pytest.approx(3 / 50.0)

    def test_models_from_empty_trace(self):
        trace = make_trace("AB")
        with pytest.raises(ValueError):
            models_from_trace(trace)


class TestTTLModel:
    def test_zero_ttl_zero_everything(self):
        models = [FunctionArrivalModel("f", 1.0, 100.0)]
        assert ttl_expected_memory_mb(models, 0.0) == 0.0
        assert ttl_hit_ratio(models, 0.0) == 0.0

    def test_memory_saturates_at_working_set(self):
        models = [
            FunctionArrivalModel("a", 1.0, 100.0),
            FunctionArrivalModel("b", 2.0, 200.0),
        ]
        assert ttl_expected_memory_mb(models, 1e9) == pytest.approx(300.0)

    def test_hit_ratio_monotone_in_ttl(self):
        models = [
            FunctionArrivalModel("a", 0.1, 100.0),
            FunctionArrivalModel("b", 0.01, 100.0),
        ]
        values = [ttl_hit_ratio(models, t) for t in (1.0, 10.0, 100.0)]
        assert values == sorted(values)

    def test_known_value(self):
        models = [FunctionArrivalModel("f", 1.0, 100.0)]
        assert ttl_hit_ratio(models, 1.0) == pytest.approx(1 - math.exp(-1))


class TestCharacteristicTime:
    def test_single_function_closed_form(self):
        models = [FunctionArrivalModel("f", 1.0, 100.0)]
        # 100 (1 - e^-T) = 50  ->  T = ln 2
        assert characteristic_time(models, 50.0) == pytest.approx(
            math.log(2.0), rel=1e-6
        )

    def test_infinite_when_cache_fits_working_set(self):
        models = [FunctionArrivalModel("f", 1.0, 100.0)]
        assert math.isinf(characteristic_time(models, 100.0))
        assert lru_hit_ratio(models, 100.0) == 1.0

    def test_monotone_in_cache_size(self):
        models = [
            FunctionArrivalModel(f"f{i}", 0.1 * (i + 1), 100.0)
            for i in range(5)
        ]
        times = [characteristic_time(models, c) for c in (100.0, 250.0, 400.0)]
        assert times == sorted(times)

    def test_occupancy_at_tc_equals_cache_size(self):
        models = [
            FunctionArrivalModel("a", 0.5, 300.0),
            FunctionArrivalModel("b", 0.05, 700.0),
        ]
        cache = 400.0
        t_c = characteristic_time(models, cache)
        assert ttl_expected_memory_mb(models, t_c) == pytest.approx(
            cache, rel=1e-6
        )

    def test_validation(self):
        models = [FunctionArrivalModel("f", 1.0, 100.0)]
        with pytest.raises(ValueError):
            characteristic_time(models, 0.0)


class TestEquivalence:
    def test_round_trip(self):
        models = [
            FunctionArrivalModel("a", 0.3, 100.0),
            FunctionArrivalModel("b", 0.03, 400.0),
            FunctionArrivalModel("c", 0.003, 900.0),
        ]
        cache = 500.0
        ttl = equivalent_ttl(models, cache)
        assert ttl_expected_memory_mb(models, ttl) == pytest.approx(
            cache, rel=1e-6
        )


class TestAgainstSimulation:
    def test_che_predicts_simulated_lru(self):
        """Che's approximation must track the simulator's LRU hit
        ratio across cache sizes on a Poisson workload."""
        trace = poisson_trace()
        models = models_from_trace(trace)
        working_set = sum(m.size_mb for m in models)
        for fraction in (0.3, 0.5, 0.7):
            cache = fraction * working_set
            predicted = lru_hit_ratio(models, cache)
            simulated = simulate(trace, "LRU", cache).metrics.hit_ratio
            assert predicted == pytest.approx(simulated, abs=0.08), fraction

    def test_ttl_model_predicts_simulated_ttl(self):
        trace = poisson_trace()
        models = models_from_trace(trace)
        ttl = 120.0
        predicted = ttl_hit_ratio(models, ttl)
        simulated = simulate(
            trace, "TTL", 10_000_000.0, ttl_s=ttl
        ).metrics.hit_ratio
        assert predicted == pytest.approx(simulated, abs=0.08)

    def test_ttl_lru_equivalence_in_simulation(self):
        """A TTL of T_C gives (approximately) the same hit ratio as an
        LRU cache of size C — the paper's Figure 5c explanation."""
        trace = poisson_trace()
        models = models_from_trace(trace)
        cache = 0.5 * sum(m.size_mb for m in models)
        t_c = equivalent_ttl(models, cache)
        lru_sim = simulate(trace, "LRU", cache).metrics.hit_ratio
        ttl_sim = simulate(
            trace, "TTL", 10_000_000.0, ttl_s=t_c
        ).metrics.hit_ratio
        assert lru_sim == pytest.approx(ttl_sim, abs=0.08)
