"""Ablation: SHARDS sampling rate vs hit-ratio-curve accuracy and cost.

Section 5.1 notes exact reuse-distance computation is an expensive
one-time O(N·M) operation and that SHARDS sampling "can be applied to
drastically reduce the overhead". This ablation sweeps the sampling
rate and reports, against the exact curve: the mean absolute hit-ratio
error over the provisioning-relevant quantiles, the error of the
provisioned size at a 90% target, and the wall-clock speedup. The
results file holds the two errors only, so it is a pure function of
the code; the timings go to stdout.
"""

import time

from repro.analysis.reporting import format_table
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.provisioning.shards import shards_curve

from conftest import write_result

RATES = (0.5, 0.25, 0.1, 0.05)


def run_ablation(trace):
    """``(exact_s, rows, speedups)``: ``rows`` are ``[rate, mean |HR
    err|, size err @90%]``, ``speedups`` the wall-clock speed-up of each
    rate over the exact scan."""
    t0 = time.perf_counter()
    exact = HitRatioCurve.from_distances(reuse_distances(trace))
    exact_s = time.perf_counter() - t0
    probes = [exact.required_size(q) for q in (0.2, 0.4, 0.6, 0.8)]
    target = min(0.9, exact.max_hit_ratio)
    rows, speedups = [], []
    for rate in RATES:
        t0 = time.perf_counter()
        sampled = shards_curve(trace, rate=rate, seed=1)
        sampled_s = time.perf_counter() - t0
        error = sum(
            abs(sampled.hit_ratio(p) - exact.hit_ratio(p)) for p in probes
        ) / len(probes)
        try:
            size_err = abs(
                sampled.required_size(target) - exact.required_size(target)
            ) / max(exact.required_size(target), 1.0)
        except ValueError:
            size_err = float("nan")
        rows.append([rate, error, size_err])
        speedups.append(exact_s / max(sampled_s, 1e-9))
    return exact_s, rows, speedups


def test_ablation_shards(benchmark, full_trace):
    exact_s, rows, speedups = benchmark.pedantic(
        run_ablation, args=(full_trace,), rounds=1, iterations=1
    )
    write_result(
        "ablation_shards.txt",
        format_table(
            ["Rate", "Mean |HR err|", "Size err @90%"],
            rows,
            title="SHARDS sampling ablation",
        ),
    )
    print(
        f"exact scan: {exact_s * 1000:.0f} ms; speed-up by rate: "
        + ", ".join(f"{rate} {s:.2f}x" for rate, s in zip(RATES, speedups))
    )
    by_rate = {row[0]: row for row in rows}
    # Even aggressive sampling keeps the curve accurate enough for
    # coarse-grained provisioning (the paper's use of it).
    assert by_rate[0.25][1] < 0.1
    # Lower rates run faster.
    assert speedups[RATES.index(0.05)] > speedups[RATES.index(0.5)]
