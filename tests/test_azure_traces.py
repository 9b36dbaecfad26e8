"""Tests for the synthetic Azure dataset generator, preprocessing, and samplers."""

import math

import pytest

from repro.traces.azure import (
    AzureApplication,
    AzureFunctionRecord,
    AzureGeneratorConfig,
    generate_azure_dataset,
)
from repro.traces.preprocess import (
    dataset_to_trace,
    minute_bucket_times,
    trace_function_from_record,
)
from repro.traces.sampling import (
    TABLE2_TARGET_RATES,
    make_paper_traces,
    random_sample,
    rare_sample,
    representative_sample,
    scale_trace_rate,
)


class TestGenerator:
    def test_deterministic_for_seed(self):
        cfg = AzureGeneratorConfig(num_functions=40)
        a = generate_azure_dataset(cfg, seed=3)
        b = generate_azure_dataset(cfg, seed=3)
        assert a.total_invocations() == b.total_invocations()
        fa = a.functions["fn-00000"]
        fb = b.functions["fn-00000"]
        assert fa.minute_counts == fb.minute_counts
        assert fa.avg_duration_ms == fb.avg_duration_ms

    def test_seed_changes_output(self):
        cfg = AzureGeneratorConfig(num_functions=40)
        a = generate_azure_dataset(cfg, seed=3)
        b = generate_azure_dataset(cfg, seed=4)
        assert a.total_invocations() != b.total_invocations()

    def test_function_count(self, small_dataset):
        assert small_dataset.num_functions == 120

    def test_every_function_belongs_to_an_app(self, small_dataset):
        for record in small_dataset.functions.values():
            app = small_dataset.applications[record.app_id]
            assert record.function_id in app.function_ids

    def test_memory_within_bounds(self, small_dataset):
        cfg = AzureGeneratorConfig()
        for app in small_dataset.applications.values():
            assert cfg.memory_min_mb <= app.memory_mb <= cfg.memory_max_mb

    def test_max_duration_at_least_avg(self, small_dataset):
        for record in small_dataset.functions.values():
            assert record.max_duration_ms >= record.avg_duration_ms

    def test_popularity_is_heavy_tailed(self):
        dataset = generate_azure_dataset(
            AzureGeneratorConfig(num_functions=800), seed=5
        )
        counts = sorted(
            f.total_invocations for f in dataset.functions.values()
        )
        nonzero = [c for c in counts if c > 0]
        # Spread of at least two orders of magnitude.
        assert max(nonzero) / max(min(nonzero), 1) >= 100

    def test_diurnal_aggregate_shape(self):
        dataset = generate_azure_dataset(
            AzureGeneratorConfig(num_functions=300), seed=9
        )
        minutes = len(next(iter(dataset.functions.values())).minute_counts)
        totals = [0] * minutes
        for record in dataset.functions.values():
            for i, c in enumerate(record.minute_counts):
                totals[i] += c
        # Peak rate should be roughly 2x the mean (diurnal amplitude 1).
        mean_rate = sum(totals) / minutes
        window = 60
        smoothed = [
            sum(totals[i : i + window]) / window
            for i in range(0, minutes - window)
        ]
        assert max(smoothed) > 1.5 * mean_rate
        assert min(smoothed) < 0.5 * mean_rate

    def test_functions_by_popularity_sorted(self, small_dataset):
        ordered = small_dataset.functions_by_popularity()
        counts = [f.total_invocations for f in ordered]
        assert counts == sorted(counts)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            AzureFunctionRecord(
                function_id="f",
                app_id="a",
                minute_counts=(1,),
                avg_duration_ms=100.0,
                max_duration_ms=50.0,
            )

    def test_dataset_rejects_dangling_function_reference(self):
        record = AzureFunctionRecord("f1", "a1", (1,), 10.0, 20.0)
        app = AzureApplication("a1", 128.0, ("f1", "ghost"))
        from repro.traces.azure import AzureDataset

        with pytest.raises(ValueError):
            AzureDataset([record], [app])


class TestPreprocess:
    def test_single_invocation_at_minute_start(self):
        assert minute_bucket_times(3, 1) == [180.0]

    def test_multiple_spaced_equally(self):
        times = minute_bucket_times(0, 4)
        assert times == [0.0, 15.0, 30.0, 45.0]

    def test_zero_count(self):
        assert minute_bucket_times(5, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            minute_bucket_times(0, -1)

    def test_memory_split_across_app(self):
        record = AzureFunctionRecord("f", "a", (2,), 1000.0, 1500.0)
        tf = trace_function_from_record(record, functions_in_app=4, app_memory_mb=800.0)
        assert tf.memory_mb == pytest.approx(200.0)

    def test_cold_overhead_is_max_minus_avg(self):
        record = AzureFunctionRecord("f", "a", (2,), 1000.0, 1500.0)
        tf = trace_function_from_record(record, 1, 256.0)
        assert tf.warm_time_s == pytest.approx(1.0)
        assert tf.cold_time_s == pytest.approx(1.5)
        assert tf.init_time_s == pytest.approx(0.5)

    def test_functions_with_single_invocation_dropped(self, small_dataset):
        trace = dataset_to_trace(small_dataset)
        counts = trace.per_function_counts()
        assert all(c >= 2 for c in counts.values())

    def test_restricted_trace(self, small_dataset):
        popular = small_dataset.functions_by_popularity()[-1]
        trace = dataset_to_trace(small_dataset, [popular.function_id])
        assert trace.num_functions == 1
        assert len(trace) == popular.total_invocations

    def test_unknown_id_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            dataset_to_trace(small_dataset, ["ghost"])

    def test_invocation_count_preserved(self, small_dataset):
        trace = dataset_to_trace(small_dataset)
        expected = sum(
            f.total_invocations
            for f in small_dataset.functions.values()
            if f.total_invocations >= 2
        )
        assert len(trace) == expected


class TestSamplers:
    def test_rare_sample_comes_from_rarest_quartile(self, small_dataset):
        sample = rare_sample(small_dataset, n=10, seed=1)
        ordered = [
            f.function_id
            for f in small_dataset.functions_by_popularity()
            if f.total_invocations >= 2
        ]
        quartile = set(ordered[: max(len(ordered) // 4, 1)])
        assert set(sample) <= quartile

    def test_rare_sample_bounded_by_pool(self, small_dataset):
        sample = rare_sample(small_dataset, n=10_000, seed=1)
        assert len(sample) <= small_dataset.num_functions

    def test_representative_covers_quartiles(self, small_dataset):
        sample = representative_sample(small_dataset, n=40, seed=1)
        assert len(sample) == 40
        ordered = [
            f.function_id
            for f in small_dataset.functions_by_popularity()
            if f.total_invocations >= 2
        ]
        rank = {fid: i for i, fid in enumerate(ordered)}
        quartile = max(len(ordered) // 4, 1)
        hit_quartiles = {min(rank[fid] // quartile, 3) for fid in sample}
        assert hit_quartiles == {0, 1, 2, 3}

    def test_representative_topup_never_repeats(self, small_dataset):
        # n much larger than any quartile forces the top-up branch.
        sample = representative_sample(small_dataset, n=70, seed=5)
        assert len(sample) == len(set(sample)) == 70

    def test_random_sample_size_and_determinism(self, small_dataset):
        a = random_sample(small_dataset, n=20, seed=2)
        b = random_sample(small_dataset, n=20, seed=2)
        assert a == b
        assert len(a) == 20

    def test_samples_exclude_single_invocation_functions(self, small_dataset):
        for sampler in (rare_sample, representative_sample, random_sample):
            for fid in sampler(small_dataset, n=30, seed=0):
                assert small_dataset.functions[fid].total_invocations >= 2


class TestRateScaling:
    def test_scale_sets_target_rate(self, small_dataset):
        trace = dataset_to_trace(small_dataset)
        scaled = scale_trace_rate(trace, 50.0)
        assert scaled.arrival_rate() == pytest.approx(50.0, rel=1e-6)

    def test_scale_preserves_order_and_count(self, small_dataset):
        trace = dataset_to_trace(small_dataset)
        scaled = scale_trace_rate(trace, 50.0)
        assert len(scaled) == len(trace)
        names = [i.function_name for i in trace]
        scaled_names = [i.function_name for i in scaled]
        assert names == scaled_names

    def test_scale_rejects_bad_rate(self, small_dataset):
        trace = dataset_to_trace(small_dataset)
        with pytest.raises(ValueError):
            scale_trace_rate(trace, 0.0)

    def test_make_paper_traces_natural_time_by_default(self, small_dataset):
        traces = make_paper_traces(
            small_dataset, sizes={"rare": 10, "representative": 12, "random": 8}
        )
        assert set(traces) == {"rare", "representative", "random"}
        # Natural replay: a day-long dataset spans hours, not seconds.
        assert traces["representative"].duration_s > 3600.0

    def test_make_paper_traces_with_table2_rates(self, small_dataset):
        traces = make_paper_traces(
            small_dataset,
            sizes={"rare": 10, "representative": 12, "random": 8},
            target_rates=TABLE2_TARGET_RATES,
        )
        assert traces["random"].arrival_rate() == pytest.approx(600.0, rel=1e-6)


class TestMultiDayGeneration:
    def test_two_day_dataset(self):
        from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset

        config = AzureGeneratorConfig(
            num_functions=60, minutes=2880, max_daily_invocations=500
        )
        dataset = generate_azure_dataset(config, seed=5)
        record = next(iter(dataset.functions.values()))
        assert len(record.minute_counts) == 2880

    def test_two_day_trace_spans_two_days(self):
        from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
        from repro.traces.preprocess import dataset_to_trace

        config = AzureGeneratorConfig(
            num_functions=120, minutes=2880, max_daily_invocations=500
        )
        dataset = generate_azure_dataset(config, seed=5)
        trace = dataset_to_trace(dataset)
        assert trace.duration_s > 1.5 * 86_400.0

    def test_diurnal_pattern_repeats_across_days(self):
        from repro.analysis.workload import diurnal_peak_to_mean
        from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
        from repro.traces.preprocess import dataset_to_trace

        config = AzureGeneratorConfig(
            num_functions=200, minutes=2880, max_daily_invocations=2000
        )
        dataset = generate_azure_dataset(config, seed=6)
        trace = dataset_to_trace(dataset)
        # The sinusoid continues across the day boundary: both days
        # show the ~2x peak/mean swing.
        day1 = trace.truncated(86_400.0)
        ratio1 = diurnal_peak_to_mean(day1)
        ratio_full = diurnal_peak_to_mean(trace)
        assert 1.5 <= ratio1 <= 3.0
        assert 1.5 <= ratio_full <= 3.0
