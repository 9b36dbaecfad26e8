"""The benchmark tooling outside ``benchmarks/ledger``: the seeded
stress traces of :mod:`repro.traces.synth` that the pinned replays
(``tests/test_pinned_replays.py``) and the hot-path budgets replay, and
the pairs protocol's verdict (``benchmarks/ledger_pairs.py``).
"""

import pathlib

import pytest

from repro.traces.synth import churn_trace, eviction_trace

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
