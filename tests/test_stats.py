"""Unit tests for repro.analysis.stats."""

import math

import pytest

from repro.analysis.stats import EWMA, Welford, mean, percentile


class TestWelford:
    def test_empty(self):
        w = Welford()
        assert w.count == 0
        assert w.mean == 0.0
        assert w.variance == 0.0
        assert w.coefficient_of_variation == 0.0

    def test_single_value(self):
        w = Welford()
        w.update(5.0)
        assert w.count == 1
        assert w.mean == 5.0
        assert w.variance == 0.0

    def test_known_values(self):
        w = Welford()
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            w.update(x)
        assert w.mean == pytest.approx(5.0)
        assert w.variance == pytest.approx(32.0 / 7.0)

    def test_matches_two_pass_computation(self):
        data = [1.5, -2.0, 3.7, 0.0, 8.8, 8.8, -5.1]
        w = Welford()
        for x in data:
            w.update(x)
        m = sum(data) / len(data)
        var = sum((x - m) ** 2 for x in data) / (len(data) - 1)
        assert w.mean == pytest.approx(m)
        assert w.variance == pytest.approx(var)

    def test_constant_stream_zero_cov(self):
        w = Welford()
        for __ in range(10):
            w.update(3.0)
        assert w.variance == pytest.approx(0.0)
        assert w.coefficient_of_variation == pytest.approx(0.0)

    def test_cov_definition(self):
        w = Welford()
        for x in [1.0, 3.0]:
            w.update(x)
        assert w.coefficient_of_variation == pytest.approx(math.sqrt(w.variance) / 2.0)

    def test_cov_zero_mean_with_variance_is_inf(self):
        w = Welford()
        for x in [-1.0, 1.0]:
            w.update(x)
        assert math.isinf(w.coefficient_of_variation)

    def test_merge_equals_combined_stream(self):
        a, b, combined = Welford(), Welford(), Welford()
        for x in [1.0, 2.0, 3.0]:
            a.update(x)
            combined.update(x)
        for x in [10.0, 20.0]:
            b.update(x)
            combined.update(x)
        merged = a.merge(b)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)

    def test_merge_with_empty(self):
        a = Welford()
        a.update(4.0)
        merged = a.merge(Welford())
        assert merged.count == 1
        assert merged.mean == 4.0
        merged2 = Welford().merge(a)
        assert merged2.count == 1

    def test_repr(self):
        w = Welford()
        w.update(1.0)
        assert "Welford" in repr(w)


class TestEWMA:
    def test_requires_valid_alpha(self):
        with pytest.raises(ValueError):
            EWMA(alpha=0.0)
        with pytest.raises(ValueError):
            EWMA(alpha=1.5)

    def test_first_observation_sets_value(self):
        e = EWMA(alpha=0.5)
        e.update(10.0)
        assert e.value == 10.0

    def test_smoothing(self):
        e = EWMA(alpha=0.5, initial=0.0)
        e.update(10.0)
        assert e.value == pytest.approx(5.0)
        e.update(10.0)
        assert e.value == pytest.approx(7.5)

    def test_alpha_one_tracks_exactly(self):
        e = EWMA(alpha=1.0)
        for x in [3.0, 7.0, -2.0]:
            e.update(x)
            assert e.value == x

    def test_value_before_update_raises(self):
        with pytest.raises(ValueError):
            EWMA().value

    def test_converges_to_constant(self):
        e = EWMA(alpha=0.3, initial=100.0)
        for __ in range(200):
            e.update(5.0)
        assert e.value == pytest.approx(5.0, abs=1e-6)


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_nearest_rank(self):
        data = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert percentile(data, 30.0) == 20.0
        assert percentile(data, 40.0) == 20.0
        assert percentile(data, 100.0) == 50.0
        assert percentile(data, 0.0) == 15.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0


class TestMean:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
