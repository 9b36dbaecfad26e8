"""Tests for hit-ratio curves and SHARDS estimation."""

import math

import pytest

from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.provisioning.shards import (
    shards_curve,
    shards_reuse_distances,
    shards_sample_functions,
)
from repro.traces.synth import cyclic_trace
from tests.conftest import make_trace


class TestHitRatioCurve:
    def test_is_cdf_of_distances(self):
        curve = HitRatioCurve.from_distances([100.0, 200.0, 300.0, 400.0])
        assert curve.hit_ratio(0.0) == 0.0
        assert curve.hit_ratio(100.0) == pytest.approx(0.25)
        assert curve.hit_ratio(250.0) == pytest.approx(0.5)
        assert curve.hit_ratio(400.0) == pytest.approx(1.0)

    def test_monotone_nondecreasing(self):
        curve = HitRatioCurve.from_distances([5.0, 1.0, 3.0, 3.0, 9.0])
        values = [curve.hit_ratio(x) for x in range(0, 12)]
        assert values == sorted(values)

    def test_compulsory_misses_cap_the_curve(self):
        curve = HitRatioCurve.from_distances([10.0, float("inf"), float("inf")])
        assert curve.max_hit_ratio == pytest.approx(1.0 / 3.0)
        assert curve.hit_ratio(1e12) == pytest.approx(1.0 / 3.0)

    def test_negative_size_is_zero(self):
        curve = HitRatioCurve.from_distances([1.0])
        assert curve.hit_ratio(-5.0) == 0.0

    def test_miss_ratio_complements(self):
        curve = HitRatioCurve.from_distances([1.0, 2.0])
        assert curve.miss_ratio(1.0) == pytest.approx(0.5)

    def test_required_size_inverts(self):
        curve = HitRatioCurve.from_distances([100.0, 200.0, 300.0, 400.0])
        assert curve.required_size(0.5) == 200.0
        assert curve.required_size(0.51) == 300.0
        assert curve.required_size(1.0) == 400.0
        assert curve.required_size(0.0) == 0.0

    def test_required_size_beyond_max_raises(self):
        curve = HitRatioCurve.from_distances([10.0, float("inf")])
        with pytest.raises(ValueError):
            curve.required_size(0.9)

    def test_required_size_validation(self):
        curve = HitRatioCurve.from_distances([10.0])
        with pytest.raises(ValueError):
            curve.required_size(1.5)

    def test_round_trip_size_to_ratio(self):
        distances = [float(x) for x in (50, 150, 150, 700, 900)]
        curve = HitRatioCurve.from_distances(distances)
        for target in (0.2, 0.4, 0.6, 0.8, 1.0):
            size = curve.required_size(target)
            assert curve.hit_ratio(size) >= target - 1e-12

    def test_weighted_construction(self):
        curve = HitRatioCurve.from_weighted_distances(
            [100.0, 200.0], [3.0, 1.0]
        )
        assert curve.hit_ratio(100.0) == pytest.approx(0.75)

    def test_rejects_infinite_finite_distance(self):
        with pytest.raises(ValueError):
            HitRatioCurve([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HitRatioCurve([], infinite_weight=0.0)

    def test_working_set(self):
        curve = HitRatioCurve.from_distances([10.0, 99.0])
        assert curve.working_set_mb == 99.0

    def test_inflection_point_on_long_tailed_curve(self):
        # Many small distances + a long tail: the knee sits near the
        # cluster of small distances, far below the working set.
        distances = [10.0] * 80 + [1000.0 * i for i in range(1, 21)]
        curve = HitRatioCurve.from_distances(distances)
        knee = curve.inflection_point_mb()
        assert knee < 0.25 * curve.working_set_mb
        assert curve.hit_ratio(knee) >= 0.6


class TestShards:
    def test_rate_one_selects_everything(self):
        trace = make_trace("ABCABC")
        assert set(shards_sample_functions(trace, 1.0)) == {"A", "B", "C"}

    def test_rate_validation(self):
        trace = make_trace("A")
        with pytest.raises(ValueError):
            shards_sample_functions(trace, 0.0)

    def test_sampling_is_deterministic_per_seed(self):
        trace = make_trace("ABCDEFGH")
        a = shards_sample_functions(trace, 0.5, seed=1)
        b = shards_sample_functions(trace, 0.5, seed=1)
        assert a == b

    def test_lower_rate_selects_subset(self):
        names = "".join(chr(ord("A") + i) for i in range(26))
        trace = make_trace(names)
        full = set(shards_sample_functions(trace, 1.0, seed=2))
        half = set(shards_sample_functions(trace, 0.5, seed=2))
        assert half <= full
        assert 0 < len(half) < len(full)

    def test_distances_scaled_by_inverse_rate(self):
        trace = make_trace("ABAB")
        full_d, full_w = shards_reuse_distances(trace, 1.0)
        assert all(w == 1.0 for w in full_w)
        finite = [d for d in full_d if not math.isinf(d)]
        assert finite  # both A and B reuse once

    def test_rate_one_curve_matches_exact(self):
        trace = cyclic_trace(num_functions=16, num_cycles=10)
        exact = HitRatioCurve.from_distances(reuse_distances(trace))
        sampled = shards_curve(trace, rate=1.0)
        for size in (0.0, 1000.0, 3000.0, 5000.0):
            assert sampled.hit_ratio(size) == pytest.approx(
                exact.hit_ratio(size)
            )

    def test_sampled_curve_approximates_exact(self):
        # A random-access workload yields a smooth curve the sampled
        # estimate should track. (A cyclic trace would give a single
        # sharp CDF step, where pointwise comparison is meaningless.)
        import random

        rng = random.Random(23)
        names = [f"fn{i}" for i in range(150)]
        sequence = [rng.choice(names) for __ in range(6000)]
        trace = make_trace(sequence, gap_s=1.0)
        exact = HitRatioCurve.from_distances(reuse_distances(trace))
        sampled = shards_curve(trace, rate=0.3, seed=3)
        probe_sizes = [
            exact.required_size(q) for q in (0.2, 0.4, 0.6, 0.8)
        ]
        for size in probe_sizes:
            assert sampled.hit_ratio(size) == pytest.approx(
                exact.hit_ratio(size), abs=0.1
            )

    def test_empty_sample_raises(self):
        trace = make_trace("AB")
        with pytest.raises(ValueError):
            shards_curve(trace, rate=1e-9, seed=0)

    def test_empty_sample_error_names_rate_and_count(self):
        """Regression: a zero-function sample used to return ([], [])
        from shards_reuse_distances, silently degenerating the curve.
        Both entry points must now raise, naming the rate and the
        sampled count so the failure is actionable."""
        trace = make_trace("AB")
        with pytest.raises(ValueError) as excinfo:
            shards_reuse_distances(trace, rate=1e-9, seed=0)
        message = str(excinfo.value)
        assert "1e-09" in message
        assert "0 of 2" in message
        with pytest.raises(ValueError) as curve_excinfo:
            shards_curve(trace, rate=1e-9, seed=0)
        assert "0 of 2" in str(curve_excinfo.value)
