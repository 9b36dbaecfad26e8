"""Differential suite: ``engine="columnar"`` vs the object-path oracle.

The contract is *byte-identical metrics*: for any trace form and
policy, ``simulate(engine="columnar")`` must produce exactly the
payload :class:`KeepAliveSimulator` produces replaying the object
trace — same counters, same ``repr``-precision percentages, same
``per_function`` outcomes in the same insertion order. This suite
holds it to that across:

* randomized seeded workloads x the paper's policy spread (TTL, HIST,
  GD/GDSF, LRU), columnar traces through the one arrival loop;
* the vectorized TTL kernel, including chunk-size invariance and the
  mid-stream fallbacks (burst gaps, capacity pressure) that force the
  run back onto the arrival loop;
* the exact-summation primitive (``np.add.accumulate`` + scalar
  carry) the kernel's float accumulation correctness rests on;
* a ``PYTHONHASHSEED`` subprocess pair — both engines, both seeds,
  one fingerprint.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.bench import _metrics_payload, churn_trace, eviction_trace
from repro.checks.sanitize import set_sanitize
from repro.core.policies.base import create_policy
from repro.core.policies.ttl import TTLPolicy
from repro.sim.columnar import run_ttl_kernel
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.columnar import ColumnarTrace, FunctionTable
from repro.traces.model import TraceFunction
from repro.traces.streaming import StreamingChurnTrace
from repro.traces.synth import multitenant_trace, skewed_frequency_trace

REPO = pathlib.Path(__file__).resolve().parents[1]


def oracle_payload(trace, policy_name, memory_mb, **policy_kwargs):
    policy = create_policy(policy_name, **policy_kwargs)
    result = KeepAliveSimulator(trace, policy, memory_mb).run()
    return _metrics_payload(result), result.metrics.per_function


def engine_payload(trace, policy, memory_mb, **policy_kwargs):
    result = simulate(
        trace, policy, memory_mb, engine="columnar", **policy_kwargs
    )
    return (
        _metrics_payload(result),
        result.metrics.per_function,
        result.path,
    )


class TestRandomizedDifferential:
    """Seeded workloads x policies: the two paths must agree exactly."""

    @pytest.mark.parametrize("policy", ["TTL", "HIST", "GD", "LRU"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_churn_workloads(self, policy, seed):
        trace = churn_trace(
            num_functions=60, duration_s=4800.0, seed=seed
        )
        kwargs = {"ttl_s": 300.0} if policy == "TTL" else {}
        want, want_pf = oracle_payload(trace, policy, 96 * 128.0, **kwargs)
        got, got_pf, __ = engine_payload(
            ColumnarTrace.from_trace(trace), policy, 96 * 128.0, **kwargs
        )
        assert got == want
        assert got_pf == want_pf
        assert list(got_pf) == list(want_pf)

    @pytest.mark.parametrize("policy", ["GD", "HIST", "LRU"])
    def test_eviction_pressure(self, policy):
        trace = eviction_trace(num_functions=120, rounds=6)
        want, want_pf = oracle_payload(trace, policy, 24 * 128.0)
        got, got_pf, path = engine_payload(
            ColumnarTrace.from_trace(trace), policy, 24 * 128.0
        )
        assert path == "sequential"
        assert got == want
        assert got_pf == want_pf

    @pytest.mark.parametrize(
        "trace_factory",
        [skewed_frequency_trace, multitenant_trace],
        ids=["skewed", "multitenant"],
    )
    def test_synth_traces_under_gd(self, trace_factory):
        trace = trace_factory(seed=7)
        want, want_pf = oracle_payload(trace, "GD", 4096.0)
        got, got_pf, __ = engine_payload(
            ColumnarTrace.from_trace(trace), "GD", 4096.0
        )
        assert got == want
        assert got_pf == want_pf

    def test_engine_accepts_object_trace_directly(self):
        trace = churn_trace(num_functions=30, seed=4)
        want, __ = oracle_payload(trace, "TTL", 64 * 128.0, ttl_s=300.0)
        got, __, __ = engine_payload(trace, "TTL", 64 * 128.0, ttl_s=300.0)
        assert got == want

    def test_simulate_engine_flag(self):
        trace = churn_trace(num_functions=30, seed=4)
        obj = simulate(trace, "TTL", 64 * 128.0, ttl_s=300.0)
        col = simulate(
            trace, "TTL", 64 * 128.0, engine="columnar", ttl_s=300.0
        )
        assert _metrics_payload(obj) == _metrics_payload(col)
        with pytest.raises(ValueError, match="engine"):
            simulate(trace, "TTL", 64 * 128.0, engine="rowwise")


class TestVectorizedTTLKernel:
    """The closed-form path: taken when eligible, exact always."""

    @pytest.fixture(autouse=True)
    def _kernel_enabled(self):
        # Sanitized runs deliberately route everything through the
        # sequential path; pin sanitize off so these tests exercise
        # the kernel even inside the REPRO_SANITIZE=1 CI job.
        set_sanitize(False)
        yield
        set_sanitize(None)

    def test_kernel_matches_oracle_on_churn(self):
        trace = churn_trace(num_functions=80, seed=21)
        want, want_pf = oracle_payload(
            trace, "TTL", 2048 * 128.0, ttl_s=300.0
        )
        got, got_pf, path = engine_payload(
            ColumnarTrace.from_trace(trace),
            "TTL",
            2048 * 128.0,
            ttl_s=300.0,
        )
        assert path == "vectorized-ttl"
        assert got == want
        assert got_pf == want_pf
        assert list(got_pf) == list(want_pf)

    @pytest.mark.parametrize("chunk", [7, 64, 100_000])
    def test_kernel_is_chunk_size_invariant(self, chunk):
        trace = ColumnarTrace.from_trace(
            churn_trace(num_functions=40, seed=8)
        )
        baseline, __, path = engine_payload(
            trace, "TTL", 2048 * 128.0, ttl_s=300.0
        )
        assert path == "vectorized-ttl"
        result = run_ttl_kernel(
            trace, 300.0, 2048 * 128.0, "TTL", chunk_invocations=chunk
        )
        assert result.path == "vectorized-ttl"
        assert _metrics_payload(result) == baseline

    def test_kernel_runs_streaming_traces(self):
        stream = StreamingChurnTrace(
            num_functions=30, duration_s=4000.0, seed=13
        )
        want, __ = oracle_payload(
            stream.materialize().to_trace(), "TTL", 64 * 128.0, ttl_s=300.0
        )
        got, __, path = engine_payload(
            stream, "TTL", 64 * 128.0, ttl_s=300.0
        )
        assert path == "vectorized-ttl"
        assert got == want

    def test_kernel_groups_ids_past_sixteen_bits(self):
        """The kernel sorts a chunk by a 16-bit copy of the ids only
        where every id of the table fits: here ids 0 and 65,536 (and
        63 and 65,599) alternate and would fold into one group."""
        table = FunctionTable(
            TraceFunction(f"w{i:05d}", 128.0, 0.2, 1.2) for i in range(65_600)
        )
        ids = np.array([0, 65_536, 63, 65_599, 65_535] * 6, dtype=np.int32)
        trace = ColumnarTrace(
            table, np.arange(ids.size) * 50.0, ids, name="wide"
        )
        want, want_pf = oracle_payload(
            trace.to_trace(), "TTL", 8 * 128.0, ttl_s=300.0
        )
        got, got_pf, path = engine_payload(trace, "TTL", 8 * 128.0, ttl_s=300.0)
        assert path == "vectorized-ttl"
        assert got == want
        assert list(got_pf.items()) == list(want_pf.items())
        assert got["counters"]["warm_starts"] == 25

    def test_ttl_subclass_takes_sequential_path(self):
        class TracingTTL(TTLPolicy):
            pass

        trace = ColumnarTrace.from_trace(churn_trace(30, seed=4))
        got, __, path = engine_payload(
            trace, TracingTTL(ttl_s=300.0), 64 * 128.0
        )
        assert path == "sequential"
        want, __ = oracle_payload(
            trace.to_trace(), "TTL", 64 * 128.0, ttl_s=300.0
        )
        assert got == want

    def test_burst_gaps_fall_back_and_agree(self):
        """Same-function arrivals inside the cold time violate the
        one-container precondition; the engine must fall back and
        still agree with the oracle."""
        table = FunctionTable(
            [TraceFunction("f0", 128.0, 0.2, 5.0)]
        )
        trace = ColumnarTrace(
            table,
            np.array([0.0, 1.0, 2.0, 100.0]),
            np.zeros(4, dtype=np.int32),
            name="bursty",
        )
        want, __ = oracle_payload(
            trace.to_trace(), "TTL", 1024.0, ttl_s=30.0
        )
        got, __, path = engine_payload(trace, "TTL", 1024.0, ttl_s=30.0)
        assert path == "sequential"
        assert got == want

    def test_capacity_pressure_falls_back_and_agrees(self):
        table = FunctionTable(
            [
                TraceFunction(f"g{i}", 512.0, 0.2, 1.0)
                for i in range(4)
            ]
        )
        trace = ColumnarTrace(
            table,
            np.array([0.0, 10.0, 20.0, 30.0]),
            np.arange(4, dtype=np.int32),
            name="tight",
        )
        want, __ = oracle_payload(
            trace.to_trace(), "TTL", 1024.0, ttl_s=300.0
        )
        got, __, path = engine_payload(trace, "TTL", 1024.0, ttl_s=300.0)
        assert path == "sequential"
        assert got == want

    def test_empty_trace(self):
        table = FunctionTable([TraceFunction("f", 128.0, 0.2, 1.2)])
        empty = ColumnarTrace(
            table, np.empty(0), np.empty(0, dtype=np.int32)
        )
        result = simulate(
            empty, "TTL", 1024.0, engine="columnar", ttl_s=300.0
        )
        counters = result.metrics.counters()
        assert counters["warm_starts"] == 0
        assert counters["cold_starts"] == 0
        assert counters["expirations"] == 0


class TestExactSummation:
    """The kernel's float accumulation must replay the oracle's
    sequential ``+=`` bit for bit; ``np.add.accumulate`` (with a
    scalar carry across chunks) is that replay."""

    def test_accumulate_matches_sequential_sum(self):
        rng = np.random.default_rng(99)
        values = np.concatenate(
            [rng.uniform(0.0, 1e-3, 5000), rng.uniform(0.0, 1e6, 5000)]
        )
        rng.shuffle(values)
        sequential = 0.0
        for v in values.tolist():
            sequential += v
        assert float(np.add.accumulate(values)[-1]) == sequential

    def test_chunked_carry_matches_sequential_sum(self):
        rng = np.random.default_rng(100)
        values = rng.uniform(0.0, 1e4, 10_000)
        sequential = 0.0
        for v in values.tolist():
            sequential += v
        carry = 0.0
        for start in range(0, values.size, 617):
            chunk = values[start : start + 617]
            buf = np.empty(chunk.size + 1)
            buf[0] = carry
            buf[1:] = chunk
            carry = float(np.add.accumulate(buf)[-1])
        assert carry == sequential


_SUBPROCESS_SCRIPT = """
import json
from repro.bench import _metrics_payload, churn_trace, fingerprint
from repro.core.policies.base import create_policy
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.columnar import ColumnarTrace

trace = churn_trace(num_functions=50, seed=31)
oracle = KeepAliveSimulator(
    trace, create_policy("HIST"), 96 * 128.0
).run()
columnar = simulate(
    ColumnarTrace.from_trace(trace), "HIST", 96 * 128.0, engine="columnar"
)
print(json.dumps({
    "oracle": fingerprint(_metrics_payload(oracle)),
    "columnar": fingerprint(_metrics_payload(columnar)),
}))
"""


def _fingerprints_with_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_fingerprints_stable_across_hash_seeds():
    a = _fingerprints_with_hashseed("0")
    b = _fingerprints_with_hashseed("4242")
    assert a == b
    assert a["oracle"] == a["columnar"]
