"""Six pinned replays: the simulator's results, fingerprinted.

Each case replays a seeded workload on the path that answers it (the
vectorized TTL kernel, the HIST kernel, the GD kernel, with and without
harvest and spot faults, and one sweep cell through ``run_cell``) and
asserts the SHA-256 of its deterministic metrics against a constant. A
change to a kernel, the loop or the metrics that alters a result fails
here, plainly and, through the ``unsanitized`` fixture, on the kernels
in the sanitize job too. The full-day streamed replay also holds its
traced peak allocation under 64 MB: its trace is generated chunk by
chunk and never materialized.

The constants are the fingerprints of the pinned-seed suite that the
``repro.bench`` harness replayed before the ledger (``benchmarks/ledger``)
took over its timing; a result change that is meant updates them with
the reason.
"""

import hashlib
import json
import tracemalloc

import pytest

from repro.faults import FaultSpec
from repro.obs.counters import fingerprint_counters
from repro.sim.scheduler import simulate
from repro.sim.sweep import point_fingerprint, run_cell
from repro.traces.streaming import StreamingChurnTrace
from repro.traces.synth import churn_trace, eviction_trace

#: Ceiling on the streamed replay's peak traced allocation.
STREAM_BUDGET_MB = 64.0


def _metrics_payload(result):
    """The deterministic slice of a simulation outcome.

    Integer lifecycle counters plus the headline percentages, with
    floats carried at full ``repr`` precision: any change here is a
    *results* change, not a performance change. Harvest/spot counters
    are dropped while zero (the same
    :func:`~repro.obs.counters.fingerprint_counters` as
    :func:`repro.sim.sweep.point_fingerprint`), so replays without
    faults keep the fingerprints they had before the harvest subsystem.
    """
    metrics = result.metrics
    return {
        "counters": fingerprint_counters(metrics.counters()),
        "cold_start_pct": repr(metrics.cold_start_pct),
        "exec_time_increase_pct": repr(metrics.exec_time_increase_pct),
        "hit_ratio": repr(metrics.hit_ratio),
        "drop_ratio": repr(metrics.drop_ratio),
    }


def fingerprint(payload):
    """SHA-256 over the canonical JSON of a deterministic payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def replay(trace, policy, capacity_mb, path, **kwargs):
    """The metrics payload of a replay that ``path`` must answer."""
    result = simulate(trace, policy, capacity_mb, **kwargs)
    assert result.path == path
    return _metrics_payload(result)


def ttl_replay_100k():
    trace = churn_trace(num_functions=1620, seed=1001)
    return replay(trace, "TTL", 2048 * 128.0, "vectorized", ttl_s=300.0)


def hist_replay_100k():
    trace = churn_trace(num_functions=1620, seed=1002, name="bench-churn-hist")
    return replay(trace, "HIST", 2048 * 128.0, "hist-kernel")


def gdsf_replay_100k():
    """A victim on almost every arrival."""
    trace = eviction_trace(num_functions=800, rounds=125, seed=1003)
    return replay(trace, "GD", 24 * 1024.0, "gd-kernel")


def ttl_stream_1m():
    """1.1M arrivals over a day, replayed plainly and then traced: the
    two agree, and the traced one peaks under the budget."""
    trace = StreamingChurnTrace(
        num_functions=2000, duration_s=86_400.0, seed=1005, name="stream-churn-1m"
    )
    plain = replay(trace, "TTL", 4096 * 128.0, "vectorized", ttl_s=300.0)
    tracemalloc.start()
    try:
        traced = replay(trace, "TTL", 4096 * 128.0, "vectorized", ttl_s=300.0)
        peak_mb = tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
    finally:
        tracemalloc.stop()
    assert peak_mb < STREAM_BUDGET_MB
    assert traced == plain
    return traced


def harvest_100k():
    """A near-full churn pool under harvest shrink/grow steps and spot
    evictions: deflation, deferred resumes, outages and retries."""
    trace = churn_trace(num_functions=1620, seed=1006, name="bench-harvest")
    spec = FaultSpec(
        seed=1006, harvest_interval_s=600.0, harvest_min_frac=0.55,
        harvest_max_frac=0.95, spot_mtbf_s=4000.0, spot_notice_s=30.0,
    )
    return replay(trace, "GD", 1800 * 128.0, "gd-kernel", fault_spec=spec)


def sweep_cell():
    trace = churn_trace(num_functions=160, seed=1004, name="bench-sweep-cell")
    return {"point": point_fingerprint(run_cell(trace, "TTL", 8.0))}


PINNED = {
    ttl_replay_100k: "b3d91d6493019d4942ffd28a27bc64ed52082cd9bfcb944ba4e1a7906b25ee3c",
    hist_replay_100k: "feadef633b9d35d2daaade1bb0e4609bfc4d91c9a4cb8452ad7d8a57cdf69796",
    gdsf_replay_100k: "8bf8fdfaf8027348061e509e026177c85309217d653a7fc307bc90d43314e51b",
    ttl_stream_1m: "c9c6ec2ffa57d3786f05d69e0040ffab941e37a46ceb9eb3af9b7a252b30ff40",
    harvest_100k: "bc0c0a70f6b1b50c2cb4636560f1deb07ab471e88c9c165e8e796c7efb2bce33",
    sweep_cell: "59a5c50b618fec76690cd3db58da1446b241fd3e714ed92fb4b46ce74d09edff",
}


@pytest.mark.usefixtures("unsanitized")  # a sanitized run takes the loop
@pytest.mark.parametrize("run", PINNED, ids=lambda run: run.__name__)
def test_replay_matches_its_pinned_fingerprint(run):
    assert fingerprint(run()) == PINNED[run]
