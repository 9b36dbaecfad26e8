"""Smoke tests for the pinned-seed benchmark harness (repro.bench).

The full suite replays ~100k invocations per scenario; here every
scenario runs at a tiny ``--scale`` so CI proves the harness end to
end — workload construction, timing, fingerprinting, baseline
comparison, and the CLI wrapper — in seconds.
"""

import json
import subprocess
import sys
import pathlib

import pytest

from repro.bench import (
    SCENARIOS,
    churn_trace,
    compare_reports,
    eviction_trace,
    run_suite,
)

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestWorkloadBuilders:
    def test_churn_trace_is_seed_deterministic(self):
        a = churn_trace(num_functions=30, duration_s=600.0, seed=5)
        b = churn_trace(num_functions=30, duration_s=600.0, seed=5)
        assert [(i.time_s, i.function_name) for i in a.invocations] == [
            (i.time_s, i.function_name) for i in b.invocations
        ]

    def test_churn_trace_seed_matters(self):
        a = churn_trace(num_functions=30, duration_s=600.0, seed=5)
        b = churn_trace(num_functions=30, duration_s=600.0, seed=6)
        assert [(i.time_s, i.function_name) for i in a.invocations] != [
            (i.time_s, i.function_name) for i in b.invocations
        ]

    def test_eviction_trace_shape(self):
        trace = eviction_trace(num_functions=20, rounds=3)
        assert len(trace) == 60
        times = [i.time_s for i in trace.invocations]
        assert times == sorted(times)


class TestRunSuite:
    @pytest.fixture(scope="class")
    def report(self):
        return run_suite(repeats=1, scale=0.02)

    def test_covers_every_scenario(self, report):
        assert set(report["scenarios"]) == {s.name for s in SCENARIOS}

    def test_entries_are_complete(self, report):
        for entry in report["scenarios"].values():
            assert entry["invocations"] > 0
            assert entry["best_s"] > 0.0
            assert len(entry["fingerprint"]) == 64

    def test_fingerprints_reproduce(self, report):
        again = run_suite(repeats=1, scale=0.02)
        for name, entry in report["scenarios"].items():
            assert entry["fingerprint"] == again["scenarios"][name]["fingerprint"]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_suite(repeats=0)
        with pytest.raises(ValueError):
            run_suite(scale=0.0)


class TestCompareReports:
    def base(self):
        return {
            "scale": 1.0,
            "calibration_s": 1.0,
            "scenarios": {
                "ttl": {"best_s": 1.0, "fingerprint": "a" * 64},
            },
        }

    def test_identical_passes(self):
        assert compare_reports(self.base(), self.base()) == []

    def test_slowdown_fails(self):
        current = self.base()
        current["scenarios"]["ttl"]["best_s"] = 1.5
        failures = compare_reports(current, self.base(), tolerance=0.10)
        assert len(failures) == 1
        assert "slowdown" in failures[0]

    def test_slowdown_normalized_by_calibration(self):
        # Same nominal slowdown, but the machine is 2x slower overall:
        # the calibration ratio absorbs it.
        current = self.base()
        current["scenarios"]["ttl"]["best_s"] = 1.5
        current["calibration_s"] = 2.0
        assert compare_reports(current, self.base(), tolerance=0.10) == []

    def test_metrics_drift_fails(self):
        current = self.base()
        current["scenarios"]["ttl"]["fingerprint"] = "b" * 64
        failures = compare_reports(current, self.base())
        assert len(failures) == 1
        assert "drift" in failures[0]

    def test_drift_ignored_across_scales(self):
        # A smoke run at a different scale replays a different
        # workload; only the timing gate applies then.
        current = self.base()
        current["scale"] = 0.05
        current["scenarios"]["ttl"]["fingerprint"] = "b" * 64
        assert compare_reports(current, self.base()) == []

    def test_missing_scenario_fails(self):
        current = self.base()
        del current["scenarios"]["ttl"]
        failures = compare_reports(current, self.base())
        assert len(failures) == 1
        assert "missing" in failures[0]


class TestCliWrapper:
    def test_run_bench_script(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "run_bench.py"),
                "--out", str(out),
                "--repeats", "1",
                "--scale", "0.02",
                "--scenario", "sweep_cell",
            ],
            env={"PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert list(report["scenarios"]) == ["sweep_cell"]


class TestLedgerPairsVerdict:
    """``benchmarks/ledger_pairs.py`` turns ten pairs and a bound into
    one word per metric; ``WORSE`` is what fails ``make ledger-pairs``."""

    @pytest.fixture(scope="class")
    def verdict(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "ledger_pairs", REPO / "benchmarks" / "ledger_pairs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.verdict

    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 102.0, 98.0, 100.2, 99.8, 100.1]

    def test_gain_needs_nine_wins_in_ten_and_a_gap_past_the_quartiles(self, verdict):
        assert verdict(self.BASE, [3 * v for v in self.BASE], True, 0.2) == "gain"
        assert verdict(self.BASE, [v / 2 for v in self.BASE], False, 0.25) == "gain"
        # Eight wins of ten, however large, are not a gain ...
        mixed = [3 * v for v in self.BASE[:8]] + [v - 1 for v in self.BASE[8:]]
        assert verdict(self.BASE, mixed, True, 0.2) == "within bound"
        # ... nor are ten wins smaller than the base's own spread.
        assert verdict(self.BASE, [v + 0.01 for v in self.BASE], True, 0.2) == "within bound"

    def test_ties_count_for_neither_side(self, verdict):
        tied = self.BASE[:5] + [3 * v for v in self.BASE[5:]]
        assert verdict(self.BASE, tied, True, 0.2) == "gain"
        assert verdict(self.BASE, self.BASE, True, 0.2) == "within bound"

    def test_worse_is_a_median_beyond_the_bound(self, verdict):
        assert verdict(self.BASE, [0.79 * v for v in self.BASE], True, 0.2) == "WORSE"
        assert verdict(self.BASE, [0.81 * v for v in self.BASE], True, 0.2) == "within bound"
        assert verdict(self.BASE, [1.26 * v for v in self.BASE], False, 0.25) == "WORSE"

    def test_a_base_noisier_than_the_bound_resolves_nothing(self, verdict):
        noisy = [100.0, 60.0, 140.0, 80.0, 130.0, 70.0, 120.0, 90.0, 150.0, 50.0]
        assert verdict(noisy, noisy[::-1], True, 0.2) == "unresolved"
        # Unless every run of the change beats every run of the base.
        assert verdict(noisy, [151.0] * 10, True, 0.2) != "unresolved"
