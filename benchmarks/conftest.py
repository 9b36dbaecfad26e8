"""Shared state for the benchmark harness.

The benchmarks regenerate every table and figure of the paper. The
trace-driven ones (Table 2, Figures 3, 5, 6, 9) share one synthetic
Azure dataset and its three workload samples; the policy sweeps of
Figures 5 and 6 are computed once per trace and shared.

Scale: the paper-sized samples (1000 / 400 / 200 functions) are kept,
with the generator's heavy tail capped so a full harness run finishes
in minutes on a laptop rather than the hours the authors report for
their 500 MB-step sweeps. Results are printed and written to
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sim.sweep import run_sweep
from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.sampling import make_paper_traces

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Memory grids (GB) per workload, mirroring the x-axes of Figures 5/6.
MEMORY_GRIDS = {
    "representative": [10.0, 20.0, 30.0, 40.0, 60.0, 80.0],
    "rare": [20.0, 30.0, 40.0, 50.0, 60.0, 80.0],
    "random": [10.0, 20.0, 30.0, 40.0, 50.0],
}


def write_result(name: str, text: str) -> None:
    """Print a regenerated table/figure and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def azure_dataset():
    return generate_azure_dataset(
        AzureGeneratorConfig(num_functions=3000, max_daily_invocations=20_000),
        seed=42,
    )


@pytest.fixture(scope="session")
def paper_traces(azure_dataset):
    return make_paper_traces(azure_dataset, seed=42)


@pytest.fixture(scope="session")
def full_trace(azure_dataset):
    """Every reused function of the dataset — the population-scale
    trace the SHARDS sampling ablation needs (spatial sampling is only
    meaningful over thousands of functions)."""
    from repro.traces.preprocess import dataset_to_trace

    return dataset_to_trace(azure_dataset, name="full-day")


class _SweepCache:
    """Figure 5 and Figure 6 plot two metrics of the same sweeps."""

    def __init__(self, traces):
        self._traces = traces
        self._sweeps = {}

    def get(self, name):
        if name not in self._sweeps:
            self._sweeps[name] = run_sweep(
                self._traces[name], MEMORY_GRIDS[name]
            ).require_complete()
        return self._sweeps[name]


@pytest.fixture(scope="session")
def sweeps(paper_traces):
    return _SweepCache(paper_traces)
