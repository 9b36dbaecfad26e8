"""Regression tests: trace sampling must be seed-deterministic.

``representative_sample`` used to rebuild ``set(sample)`` per
comprehension element (the live FC003 instance this suite pins down).
The same-process check lives here; the top-up branch's no-repeat check
is in tests/test_azure_traces.py, and equality in a fresh process and
across ``PYTHONHASHSEED`` values is tests/test_determinism.py's table.
"""

import pytest

from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.sampling import (
    random_sample,
    rare_sample,
    representative_sample,
)


def small_dataset(seed=7):
    config = AzureGeneratorConfig(
        num_functions=80, max_daily_invocations=2000
    )
    return generate_azure_dataset(config, seed=seed)


@pytest.mark.parametrize(
    "sampler", [representative_sample, rare_sample, random_sample]
)
def test_same_seed_same_sample(sampler):
    dataset = small_dataset()
    first = sampler(dataset, n=40, seed=3)
    second = sampler(dataset, n=40, seed=3)
    assert first == second
    assert len(first) > 0
