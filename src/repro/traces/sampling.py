"""Trace samplers reproducing the paper's three evaluation workloads.

Section 7 evaluates keep-alive policies on three samples of the Azure
trace, replayed at server-level intensities (Table 2):

* **RARE** — 1000 of the rarest, most infrequently invoked functions
  (sampled from the rarest quartile, matching the artifact's
  ``gen_rare.py``); ~30 requests/s, mean IAT 36 ms.
* **REPRESENTATIVE** — 400 functions sampled evenly from each
  popularity quartile, yielding higher diversity; ~190 requests/s,
  mean IAT 5.4 ms.
* **RANDOM** — 200 functions sampled uniformly; ~600 requests/s, mean
  IAT 1.8 ms.

The Table 2 request rates are far above the natural day-long rates of
such samples; :func:`scale_trace_rate` can time-compress a trace to a
target rate while preserving the relative reuse structure. Keep-alive
*policy comparisons* (Figures 5 and 6), however, must replay in
natural time: the 10-minute TTL baseline only expires containers when
real inter-arrival times straddle 600 s, so compression would erase
exactly the effect the paper measures. ``make_paper_traces`` therefore
does **not** compress by default — pass ``TABLE2_TARGET_RATES`` as
``target_rates`` to reproduce the Table 2 load intensities.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.domains import Domain, positive
from repro.traces.azure import AzureDataset
from repro.traces.model import Trace
from repro.traces.preprocess import dataset_to_trace

__all__ = [
    "rare_sample",
    "representative_sample",
    "random_sample",
    "scale_trace_rate",
    "make_paper_traces",
    "TABLE2_TARGET_RATES",
]

#: Requests per second of each Table 2 workload.
TABLE2_TARGET_RATES: Dict[str, float] = {
    "representative": 190.0,
    "rare": 30.0,
    "random": 600.0,
}


def _reused_functions(dataset: AzureDataset) -> List[str]:
    """Function ids with at least two invocations, rarest first."""
    return [
        record.function_id
        for record in dataset.functions_by_popularity()
        if record.total_invocations >= 2
    ]


def rare_sample(
    dataset: AzureDataset,
    n: int = 1000,
    rarest_fraction: float = 0.25,
    seed: int = 0,
) -> List[str]:
    """A random sample of ``n`` functions from the rarest quartile."""
    Domain(0.0, 1.0, low_open=True).check("rarest_fraction", rarest_fraction)
    candidates = _reused_functions(dataset)
    pool_size = max(int(len(candidates) * rarest_fraction), 1)
    pool = candidates[:pool_size]
    rng = random.Random(seed)
    if n >= len(pool):
        return list(pool)
    return rng.sample(pool, n)


def representative_sample(
    dataset: AzureDataset,
    n: int = 400,
    seed: int = 0,
) -> List[str]:
    """``n`` functions sampled evenly from each popularity quartile."""
    candidates = _reused_functions(dataset)
    if not candidates:
        return []
    rng = random.Random(seed)
    quartile = max(len(candidates) // 4, 1)
    per_quartile = n // 4
    sample: List[str] = []
    for q in range(4):
        lo = q * quartile
        hi = len(candidates) if q == 3 else (q + 1) * quartile
        pool = candidates[lo:hi]
        take = min(per_quartile, len(pool))
        sample += rng.sample(pool, take)
    # Top up from the whole population if quartiles were too small.
    if len(sample) < n:
        chosen = set(sample)
        leftovers = [fid for fid in candidates if fid not in chosen]
        take = min(n - len(sample), len(leftovers))
        sample += rng.sample(leftovers, take)
    return sample


def random_sample(
    dataset: AzureDataset,
    n: int = 200,
    seed: int = 0,
) -> List[str]:
    """``n`` functions sampled uniformly from all reused functions."""
    candidates = _reused_functions(dataset)
    rng = random.Random(seed)
    if n >= len(candidates):
        return list(candidates)
    return rng.sample(candidates, n)


def scale_trace_rate(trace: Trace, target_rate_per_s: float) -> Trace:
    """Time-compress (or dilate) a trace to a target request rate.

    Timestamps are multiplied by ``current_rate / target_rate``, which
    preserves arrival order and relative gaps exactly.
    """
    positive.check("target_rate_per_s", target_rate_per_s)
    current = trace.arrival_rate()
    if current <= 0:
        return trace
    factor = current / target_rate_per_s
    times = trace.times_s
    first = times[0] if len(times) else 0.0
    return Trace.from_columns(
        trace.functions_table,
        [(time_s - first) * factor for time_s in times],
        trace.function_ids,
        name=trace.name,
    )


def make_paper_traces(
    dataset: AzureDataset,
    sizes: Optional[Dict[str, int]] = None,
    target_rates: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> Dict[str, Trace]:
    """Build the three Table 2 workloads from a dataset.

    ``sizes`` overrides the per-workload function counts (paper
    defaults: rare 1000, representative 400, random 200); pass smaller
    values for quick experiments. ``target_rates`` maps workload name
    to a requests-per-second replay rate (e.g. ``TABLE2_TARGET_RATES``);
    by default traces replay in natural (uncompressed) time.
    """
    sizes = dict(sizes or {})
    rates = target_rates or {}
    samples = {
        "rare": rare_sample(dataset, n=sizes.get("rare", 1000), seed=seed),
        "representative": representative_sample(
            dataset, n=sizes.get("representative", 400), seed=seed
        ),
        "random": random_sample(dataset, n=sizes.get("random", 200), seed=seed),
    }
    traces: Dict[str, Trace] = {}
    for name, function_ids in samples.items():
        trace = dataset_to_trace(dataset, function_ids, name=name)
        rate = rates.get(name)
        if rate is not None:
            trace = scale_trace_rate(trace, rate)
        traces[name] = trace
    return traces
