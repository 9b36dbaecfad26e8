"""Synthetic Azure-Functions-like dataset generator.

The paper's trace-driven evaluation (Section 7) replays samples of the
Azure Functions 2019 trace [Shahrad et al.]. That dataset is not
available offline, so this module generates a statistically faithful
synthetic equivalent in the *same format* the real dataset uses —
per-function invocation counts in minute-wide buckets over one day,
per-function average/maximum execution durations, and per-application
memory allocations — so the paper's exact preprocessing pipeline
(:mod:`repro.traces.preprocess`) applies unchanged.

The generator reproduces the workload properties the paper's analysis
hinges on (Sections 2.1 and 3):

* **Heavy-tailed popularity** — per-function daily invocation counts
  are log-normal with a multi-decade spread, so "inter-arrival times
  ... vary by more than three orders of magnitude" and a few heavy
  hitters dominate total volume.
* **Heavy-tailed memory** — per-application memory is log-normal
  across roughly two orders of magnitude.
* **Diurnal dynamism** — arrival rates follow a sinusoidal day profile
  with the paper's "peak is about 2x the average" property.
* **Cold-start overheads** — the maximum duration exceeds the average
  duration by a heavy-tailed margin, which the paper's preprocessing
  turns into the cold-start penalty (max - avg).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "AzureFunctionRecord",
    "AzureApplication",
    "AzureDataset",
    "AzureGeneratorConfig",
    "generate_azure_dataset",
]

MINUTES_PER_DAY = 1440


@dataclass(frozen=True)
class AzureFunctionRecord:
    """One function's row in the (synthetic) Azure dataset."""

    function_id: str
    app_id: str
    #: Invocation count per minute bucket over the captured day.
    minute_counts: Tuple[int, ...]
    avg_duration_ms: float
    max_duration_ms: float

    @property
    def total_invocations(self) -> int:
        return sum(self.minute_counts)

    def __post_init__(self) -> None:
        if self.max_duration_ms < self.avg_duration_ms:
            raise ValueError(
                f"function {self.function_id}: max duration must be >= avg"
            )


@dataclass(frozen=True)
class AzureApplication:
    """An application: a memory allocation shared by its functions."""

    app_id: str
    memory_mb: float
    function_ids: Tuple[str, ...]


class AzureDataset:
    """A day of synthetic Azure Functions data."""

    def __init__(
        self,
        functions: Sequence[AzureFunctionRecord],
        applications: Sequence[AzureApplication],
    ) -> None:
        self.functions: Dict[str, AzureFunctionRecord] = {
            f.function_id: f for f in functions
        }
        self.applications: Dict[str, AzureApplication] = {
            a.app_id: a for a in applications
        }
        for app in applications:
            for fid in app.function_ids:
                if fid not in self.functions:
                    raise ValueError(
                        f"app {app.app_id} references unknown function {fid}"
                    )

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    def total_invocations(self) -> int:
        return sum(f.total_invocations for f in self.functions.values())

    def functions_by_popularity(self) -> List[AzureFunctionRecord]:
        """Functions sorted by total invocations, rarest first."""
        return sorted(self.functions.values(), key=lambda f: f.total_invocations)

    def __repr__(self) -> str:
        return (
            f"AzureDataset(functions={self.num_functions}, "
            f"apps={len(self.applications)}, "
            f"invocations={self.total_invocations()})"
        )


@dataclass(frozen=True)
class AzureGeneratorConfig:
    """Knobs of the synthetic generator; defaults match the paper's
    qualitative description of the Azure workload."""

    num_functions: int = 2000
    minutes: int = MINUTES_PER_DAY
    #: Log-normal daily invocation counts: exp(mu) is the median.
    popularity_median: float = 8.0
    popularity_sigma: float = 2.2
    max_daily_invocations: int = 300_000
    #: Log-normal per-application memory (MB).
    memory_median_mb: float = 170.0
    memory_sigma: float = 1.1
    memory_min_mb: float = 64.0
    memory_max_mb: float = 4096.0
    #: Log-normal average (warm) durations (ms).
    duration_median_ms: float = 400.0
    duration_sigma: float = 1.4
    duration_min_ms: float = 10.0
    duration_max_ms: float = 120_000.0
    #: Log-normal cold-start overhead (max - avg duration, ms); scaled
    #: by a weak power of the app memory (bigger images, longer inits).
    overhead_median_ms: float = 400.0
    overhead_sigma: float = 1.0
    overhead_min_ms: float = 50.0
    overhead_max_ms: float = 30_000.0
    overhead_memory_exponent: float = 0.4
    #: Diurnal modulation amplitude: 1.0 makes the peak 2x the mean.
    diurnal_amplitude: float = 1.0
    #: Mean functions per application (geometric distribution).
    mean_app_size: float = 1.8


def _lognormal(
    rng: np.random.Generator,
    median: float,
    sigma: float,
    size: int,
    low: float,
    high: float,
) -> np.ndarray:
    values = rng.lognormal(mean=np.log(median), sigma=sigma, size=size)
    return np.clip(values, low, high)


def generate_azure_dataset(
    config: AzureGeneratorConfig | None = None,
    seed: int = 0,
) -> AzureDataset:
    """Generate one synthetic day of Azure-like FaaS workload.

    Deterministic for a given (config, seed).

    >>> dataset = generate_azure_dataset(AzureGeneratorConfig(num_functions=50), seed=1)
    >>> dataset.num_functions
    50
    """
    if config is None:
        config = AzureGeneratorConfig()
    rng = np.random.default_rng(seed)
    n = config.num_functions

    # --- Applications: geometric sizes, functions assigned in order.
    app_sizes: List[int] = []
    remaining = n
    p = 1.0 / max(config.mean_app_size, 1.0)
    while remaining > 0:
        size = min(int(rng.geometric(p)), remaining)
        app_sizes.append(size)
        remaining -= size
    app_memories = _lognormal(
        rng,
        config.memory_median_mb,
        config.memory_sigma,
        len(app_sizes),
        config.memory_min_mb,
        config.memory_max_mb,
    )

    # --- Per-function marginals.
    daily_counts = _lognormal(
        rng,
        config.popularity_median,
        config.popularity_sigma,
        n,
        1.0,
        float(config.max_daily_invocations),
    )
    avg_durations = _lognormal(
        rng,
        config.duration_median_ms,
        config.duration_sigma,
        n,
        config.duration_min_ms,
        config.duration_max_ms,
    )
    overheads = _lognormal(
        rng,
        config.overhead_median_ms,
        config.overhead_sigma,
        n,
        config.overhead_min_ms,
        config.overhead_max_ms,
    )

    # --- Diurnal minute weights, shared day shape with per-function
    # phase jitter (individual workloads peak at slightly different
    # times, but the aggregate stays strongly diurnal).
    minutes = np.arange(config.minutes)
    phase_jitter = rng.normal(0.0, 45.0, size=n)  # minutes
    functions: List[AzureFunctionRecord] = []
    applications: List[AzureApplication] = []

    func_index = 0
    for app_index, size in enumerate(app_sizes):
        app_id = f"app-{app_index:05d}"
        function_ids: List[str] = []
        for __ in range(size):
            i = func_index
            function_id = f"fn-{i:05d}"
            weights = 1.0 + config.diurnal_amplitude * np.sin(
                2.0 * np.pi * (minutes - 480.0 - phase_jitter[i]) / MINUTES_PER_DAY
            )
            weights = np.maximum(weights, 0.0)
            weights_sum = weights.sum()
            if weights_sum <= 0:
                weights = np.ones_like(weights)
                weights_sum = weights.sum()
            expected = daily_counts[i] * weights / weights_sum
            counts = rng.poisson(expected)
            avg_ms = float(avg_durations[i])
            overhead_scale = float(
                (app_memories[app_index] / config.memory_median_mb)
                ** config.overhead_memory_exponent
            )
            max_ms = avg_ms + float(overheads[i]) * overhead_scale
            functions.append(
                AzureFunctionRecord(
                    function_id=function_id,
                    app_id=app_id,
                    minute_counts=tuple(int(c) for c in counts),
                    avg_duration_ms=avg_ms,
                    max_duration_ms=max_ms,
                )
            )
            function_ids.append(function_id)
            func_index += 1
        applications.append(
            AzureApplication(
                app_id=app_id,
                memory_mb=float(app_memories[app_index]),
                function_ids=tuple(function_ids),
            )
        )
    return AzureDataset(functions, applications)
