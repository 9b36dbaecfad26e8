"""Extension: the wider caching-policy family on the paper's workloads.

The paper's Section 2.2 surveys the caching literature — LRU-K,
segmented LRU, ARC, LFU variants, Greedy-Dual-Size — and argues the
whole toolbox transfers to keep-alive. This benchmark runs the
extended family (GDS, ARC, SLRU, LRU-K, FIFO, RAND) next to the
paper's lineup on the representative trace, extending Figure 5a's
comparison.

Expected shape: the size/cost-aware Greedy-Dual family (GD, GDS)
leads; the locality family (ARC, SLRU, LRU-K, LRU) clusters in the
middle; FIFO/RAND trail; TTL stays worst (it expires containers that
memory could have kept).
"""

from repro.analysis.reporting import format_series_table
from repro.core.policies import EXTENDED_POLICIES
from repro.sim.sweep import run_sweep

from conftest import write_result

POLICIES = ("GD", "TTL", "LRU") + EXTENDED_POLICIES
MEMORY_GRID_GB = [10.0, 20.0, 40.0]


def run_comparison(trace):
    return run_sweep(trace, MEMORY_GRID_GB, policies=POLICIES).require_complete()


def test_extended_policies(benchmark, paper_traces):
    trace = paper_traces["representative"]
    sweep = benchmark.pedantic(
        run_comparison, args=(trace,), rounds=1, iterations=1
    )
    series = {
        policy: [
            value
            for __, value in sweep.series(policy, "exec_time_increase_pct")
        ]
        for policy in POLICIES
    }
    text = format_series_table(
        "Mem (GB)",
        MEMORY_GRID_GB,
        series,
        title="Extended policy family: % increase in execution time",
    )
    write_result("extended_policies.txt", text)

    mid = MEMORY_GRID_GB[1]
    at_mid = {
        p: dict(sweep.series(p, "exec_time_increase_pct"))[mid]
        for p in POLICIES
    }
    # The Greedy-Dual family leads the locality-only family.
    assert at_mid["GD"] <= min(at_mid["ARC"], at_mid["SLRU"], at_mid["LRUK"])
    assert at_mid["GDS"] <= at_mid["LRU"]
    # TTL remains worse than every resource-conserving policy.
    for policy in POLICIES:
        if policy != "TTL":
            assert at_mid[policy] <= at_mid["TTL"] + 1e-9, policy
