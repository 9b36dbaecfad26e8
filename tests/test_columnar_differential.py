"""Differential suite: ``simulate()`` vs the arrival-loop oracle.

The contract is *byte-identical metrics*: for any trace form and
policy, ``simulate()`` (which lets the vectorized kernel answer every
run pressure cannot reach) must produce exactly the payload
:class:`KeepAliveSimulator` produces replaying the same trace — same
counters, same ``repr``-precision percentages, same ``per_function``
outcomes in the same insertion order. This suite holds it to that
across:

* randomized seeded workloads x the paper's policy spread (TTL, HIST,
  GD/GDSF, LRU), the default dispatch against the arrival loop;
* the vectorized kernel on every registered policy, including
  chunk-size invariance, the boundaries of its preconditions (registry
  == capacity, gap == cold time) and every disqualifier that sends the
  run back onto the arrival loop;
* the HIST kernel: a seeded sweep over HIST's keyword arguments, prewarm
  effectiveness and both trace forms (a trace, a stream), a boundary pair per decline,
  its two edge cases, and whole runs against the reference model's HIST;
* the GD kernel: a seeded sweep over GD's weights, pools from 0.05x to
  1x the registry and both trace forms, a self-overlapping
  function under pressure, NaN priorities, every decline, and whole
  runs against the reference model's GD; then the same under seeded
  fault specs that set every field (server timeline, retry queue,
  per-attempt faults), the victim order beside a crash's and an
  outage's teardowns, and faulted whole runs against the reference
  model;
* the parameters the two engines would read differently (NaN),
  refused at construction, and ``inf`` equal on both;
* the exact-summation primitive (``np.add.accumulate`` + scalar
  carry) the kernel's float accumulation correctness rests on;
* a ``PYTHONHASHSEED`` subprocess pair — both engines, both seeds,
  one fingerprint.
"""

import inspect
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from math import inf, isnan

import numpy as np
import pytest

from repro.checks.sanitize import set_sanitize
from repro.core.policies.base import available_policies, create_policy
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.policies.histogram import HistogramPolicy
from repro.core.policies.ttl import TTLPolicy
from repro.faults import FaultSpec
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim import columnar
from repro.sim.columnar import run_ttl_kernel
from repro.sim.metrics import FunctionOutcome
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace
from repro.traces.synth import (
    churn_trace, eviction_trace, multitenant_trace, skewed_frequency_trace,
)
from tests.conftest import make_trace
from tests.reference_model import Server
from tests.test_pinned_replays import _metrics_payload

REPO = pathlib.Path(__file__).resolve().parents[1]


def oracle_payload(trace, policy_name, memory_mb, **policy_kwargs):
    policy = create_policy(policy_name, **policy_kwargs)
    result = KeepAliveSimulator(trace, policy, memory_mb).run()
    return _metrics_payload(result), result.metrics.per_function


def engine_payload(trace, policy, memory_mb, **policy_kwargs):
    result = simulate(trace, policy, memory_mb, **policy_kwargs)
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
            trace, policy, 96 * 128.0, **kwargs
        )
        assert got == want
        assert got_pf == want_pf
        assert list(got_pf) == list(want_pf)

    @pytest.mark.usefixtures("unsanitized")  # a sanitized GD run takes the loop
    @pytest.mark.parametrize("policy", ["GD", "HIST", "LRU"])
    def test_eviction_pressure(self, policy):
        trace = eviction_trace(num_functions=120, rounds=6)
        want, want_pf = oracle_payload(trace, policy, 24 * 128.0)
        got, got_pf, path = engine_payload(trace, policy, 24 * 128.0)
        assert path == ("gd-kernel" if policy == "GD" else "sequential")
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
        got, got_pf, __ = engine_payload(trace, "GD", 4096.0)
        assert got == want
        assert got_pf == want_pf

    def test_engine_accepts_object_trace_directly(self):
        trace = churn_trace(num_functions=30, seed=4)
        want, __ = oracle_payload(trace, "TTL", 64 * 128.0, ttl_s=300.0)
        got, __, __ = engine_payload(trace, "TTL", 64 * 128.0, ttl_s=300.0)
        assert got == want

    def test_simulate_engine_flag(self):
        trace = churn_trace(num_functions=30, seed=4)
        obj = simulate(trace, "TTL", 64 * 128.0, engine="object", ttl_s=300.0)
        col = simulate(
            trace, "TTL", 64 * 128.0, engine="columnar", ttl_s=300.0
        )
        assert obj.path == "sequential"
        assert _metrics_payload(obj) == _metrics_payload(col)
        with pytest.raises(ValueError, match="engine"):
            simulate(trace, "TTL", 64 * 128.0, engine="rowwise")


#: Keep-alive of :func:`ambiguous_ttl_trace`, whose functions run 0.5 s
#: warm and 2 s cold: a gap below 10.5 s is certainly warm, one of 12 s
#: or more certainly cold, and one between depends on the previous start.
AMBIGUOUS_TTL_S = 10.0


def ambiguous_ttl_trace(seed, num_functions=6):
    """Per function: certain gaps only until t = 200, then runs of two
    to four ambiguous gaps between certain ones until t = 600; then one
    more function, arriving once, last."""
    rng = random.Random(seed)
    functions = [TraceFunction(f"f{i}", 128.0, 0.5, 2.0) for i in range(num_functions + 1)]
    invocations = []
    for function in functions[:-1]:
        t, ambiguous = rng.uniform(0.0, 10.0), 0
        while t < 600.0:
            invocations.append(Invocation(t, function.name))
            if ambiguous:
                ambiguous -= 1
                t += rng.choice((10.75, 11.0, 11.25, 11.5))
            else:
                if t >= 200.0:
                    ambiguous = rng.randint(2, 4)
                t += rng.choice((3.0, 5.0, 10.0, 20.0))
    invocations.append(Invocation(700.0, functions[-1].name))
    return Trace(functions, invocations, name="ambiguous")


@pytest.mark.usefixtures("unsanitized")
class TestVectorizedTTLKernel:
    """The closed-form path: taken when eligible, exact always."""

    def test_kernel_matches_oracle_on_churn(self):
        trace = churn_trace(num_functions=80, seed=21)
        want, want_pf = oracle_payload(
            trace, "TTL", 2048 * 128.0, ttl_s=300.0
        )
        got, got_pf, path = engine_payload(
            trace, "TTL", 2048 * 128.0, ttl_s=300.0
        )
        assert path == "vectorized"
        assert got == want
        assert got_pf == want_pf
        assert list(got_pf) == list(want_pf)

    @pytest.mark.parametrize("chunk", [7, 64, 100_000])
    def test_kernel_is_chunk_size_invariant(self, chunk):
        trace = churn_trace(num_functions=40, seed=8)
        baseline, __, path = engine_payload(
            trace, "TTL", 2048 * 128.0, ttl_s=300.0
        )
        assert path == "vectorized"
        result = run_ttl_kernel(
            trace, 300.0, 2048 * 128.0, "TTL", chunk_invocations=chunk
        )
        assert result.path == "vectorized"
        assert _metrics_payload(result) == baseline

    @pytest.mark.parametrize("seed", range(4))
    def test_both_branches_of_the_chunk_pass_equal_the_loop(self, seed):
        """Chunks with no ambiguous arrival skip the parity pass; the
        others resolve runs of ambiguous gaps (between ``ttl + warm`` and
        ``ttl + cold``) that straddle chunk boundaries, and the last
        function's only arrival is the last of its chunk (head and tail
        at once)."""
        trace = ambiguous_ttl_trace(seed)
        loop = simulate(trace, "TTL", 1024.0, engine="object", ttl_s=AMBIGUOUS_TTL_S)
        assert loop.metrics.cold_starts > len(trace.functions)  # some gaps lapse
        for chunk in (1, 2, 3, 2048, 8192):
            result = run_ttl_kernel(
                trace, AMBIGUOUS_TTL_S, 1024.0, "TTL", chunk_invocations=chunk
            )
            assert result.path == "vectorized"
            assert_same_replay(loop, result)

    def test_kernel_runs_streaming_traces(self):
        stream = StreamingChurnTrace(
            num_functions=30, duration_s=4000.0, seed=13
        )
        want, __ = oracle_payload(
            stream.materialize(), "TTL", 64 * 128.0, ttl_s=300.0
        )
        got, __, path = engine_payload(
            stream, "TTL", 64 * 128.0, ttl_s=300.0
        )
        assert path == "vectorized"
        assert got == want

    def test_kernel_groups_ids_past_sixteen_bits(self):
        """The kernel sorts a chunk by a 16-bit copy of the ids only
        where every id of the table fits: here ids 0 and 65,536 (and
        63 and 65,599) alternate and would fold into one group."""
        functions = [TraceFunction(f"w{i:05d}", 128.0, 0.2, 1.2) for i in range(65_600)]
        ids = [0, 65_536, 63, 65_599, 65_535] * 6
        trace = Trace.from_columns(
            functions, [i * 50.0 for i in range(len(ids))], ids, name="wide"
        )
        registry_mb = 65_600 * 128.0  # the pool must hold every function
        want, want_pf = oracle_payload(trace, "TTL", registry_mb, ttl_s=300.0)
        got, got_pf, path = engine_payload(trace, "TTL", registry_mb, ttl_s=300.0)
        assert path == "vectorized"
        assert got == want
        assert list(got_pf.items()) == list(want_pf.items())
        assert got["counters"]["warm_starts"] == 25

    def test_ttl_subclass_takes_sequential_path(self):
        class TracingTTL(TTLPolicy):
            pass

        trace = churn_trace(30, seed=4)
        got, __, path = engine_payload(
            trace, TracingTTL(ttl_s=300.0), 64 * 128.0
        )
        assert path == "sequential"
        want, __ = oracle_payload(trace, "TTL", 64 * 128.0, ttl_s=300.0)
        assert got == want

    def test_burst_gaps_fall_back_and_agree(self):
        """Same-function arrivals inside the cold time violate the
        one-container precondition; the engine must fall back and
        still agree with the oracle."""
        trace = Trace.from_columns(
            [TraceFunction("f0", 128.0, 0.2, 5.0)],
            [0.0, 1.0, 2.0, 100.0],
            [0, 0, 0, 0],
            name="bursty",
        )
        want, __ = oracle_payload(trace, "TTL", 1024.0, ttl_s=30.0)
        got, __, path = engine_payload(trace, "TTL", 1024.0, ttl_s=30.0)
        assert path == "sequential"
        assert got == want

    def test_capacity_pressure_falls_back_and_agrees(self):
        trace = Trace.from_columns(
            [TraceFunction(f"g{i}", 512.0, 0.2, 1.0) for i in range(4)],
            [0.0, 10.0, 20.0, 30.0],
            [0, 1, 2, 3],
            name="tight",
        )
        want, __ = oracle_payload(trace, "TTL", 1024.0, ttl_s=300.0)
        got, __, path = engine_payload(trace, "TTL", 1024.0, ttl_s=300.0)
        assert path == "sequential"
        assert got == want

    def test_an_arrival_on_its_deadline_is_cold(self):
        """10 s gaps, 3 s cold runs and a 7 s TTL: every arrival lands on
        its predecessor's deadline, which has expired by then (the loop's
        ``<=``). In one chunk the interior comparison decides; one
        arrival per chunk makes every arrival a head, read against the
        carried deadline."""
        trace = make_trace("AAAA")
        loop = simulate(trace, "TTL", 4096.0, engine="object", ttl_s=7.0)
        default = simulate(trace, "TTL", 4096.0, ttl_s=7.0)
        assert default.path == "vectorized"
        assert loop.metrics.cold_starts == default.metrics.cold_starts == 4
        assert_same_replay(loop, default)
        heads = run_ttl_kernel(trace, 7.0, 4096.0, "TTL", chunk_invocations=1)
        assert heads.metrics.cold_starts == 4
        assert_same_replay(loop, heads)

    def test_empty_trace(self):
        empty = Trace.from_columns([TraceFunction("f", 128.0, 0.2, 1.2)], [], [])
        result = simulate(
            empty, "TTL", 1024.0, engine="columnar", ttl_s=300.0
        )
        counters = result.metrics.counters()
        assert counters["warm_starts"] == 0
        assert counters["cold_starts"] == 0
        assert counters["expirations"] == 0


def loop_and_default(trace, name, memory_mb, policy_kwargs=(), **config):
    """The same run through the arrival loop (``engine="object"``) and
    through the default dispatch, each with a fresh policy."""
    loop = simulate(
        trace, create_policy(name, **dict(policy_kwargs)), memory_mb,
        engine="object", **config,
    )
    default = simulate(
        trace, create_policy(name, **dict(policy_kwargs)), memory_mb, **config
    )
    return loop, default


def assert_same_replay(loop, default):
    assert _metrics_payload(default) == _metrics_payload(loop)
    assert list(default.metrics.per_function.items()) == list(
        loop.metrics.per_function.items()
    )
    sums = ("ideal_exec_time_s", "actual_exec_time_s")
    assert [getattr(default.metrics, s) for s in sums] == [
        getattr(loop.metrics, s) for s in sums
    ]


def registry_mb(trace):
    return sum(f.memory_mb for f in trace.functions.values())


#: What sends a run to the arrival loop whatever its policy and pool.
DISQUALIFIERS = [
    "tracer", "fault_spec", "reserved_concurrency", "track_memory_timeline",
    "warmup_s", "tenant_mode", "tenants", "sanitizer", "engine",
]


def disqualified(trace, disqualifier):
    """``(trace, simulate() keywords)`` with ``disqualifier`` applied
    (the sanitizer is armed here; the ``unsanitized`` fixture disarms it).
    An enabled fault spec sends every policy but GD to the loop: only the
    GD kernel replays faults."""
    first = next(iter(trace.functions))
    kwargs = {
        "tracer": {"tracer": Tracer(RingBufferSink())},
        "fault_spec": {"fault_spec": FaultSpec(seed=1, spot_mtbf_s=2000.0)},
        "reserved_concurrency": {"reserved_concurrency": {first: 1}},
        "track_memory_timeline": {"track_memory_timeline": True},
        "warmup_s": {"warmup_s": 60.0},
        "tenant_mode": {"tenant_mode": "quota"},
        "engine": {"engine": "object"},
    }.get(disqualifier, {})
    if disqualifier == "tenants":
        trace = Trace(
            [replace(f, tenant_id=1) for f in trace.functions.values()],
            trace.invocations,
            name="tenanted",
        )
    elif disqualifier == "sanitizer":
        set_sanitize(True)
    return trace, kwargs


@pytest.mark.usefixtures("unsanitized")
class TestEveryPolicyOnTheKernel:
    """A policy that lets a container go only under pressure, on a pool
    that holds the whole registry, is the TTL recurrence at ttl = inf:
    the default ``simulate()`` answers it on the kernel. Under pressure
    (or where the TTL kernel declines) only GD has a kernel: its own."""

    def test_default_simulate_answers_gd_above_the_working_set(self):
        trace = churn_trace(num_functions=60, duration_s=4800.0, seed=1)
        result = simulate(trace, "GD", 96 * 128.0)
        assert result.path == "vectorized"
        assert result.metrics.cold_starts == 60  # compulsory misses only

    @pytest.mark.parametrize("name", available_policies())
    def test_every_policy_equals_the_loop(self, name):
        trace = churn_trace(num_functions=60, duration_s=4800.0, seed=5)
        kwargs = {"trace": trace} if name.startswith("ORACLE") else {}
        loop, default = loop_and_default(
            trace, name, 1.25 * registry_mb(trace), kwargs
        )
        # HIST expires and prewarms: its own kernel answers it.
        # DOORKEEPER gates admission: only the loop does.
        assert default.path == {"HIST": "hist-kernel", "DOORKEEPER": "sequential"}.get(
            name, "vectorized"
        )
        assert_same_replay(loop, default)

    @pytest.mark.parametrize(
        "capacity_mb, path",
        [(1024.0, "vectorized"), (1023.5, "gd-kernel")],
        ids=["registry-equals-capacity", "registry-above-capacity"],
    )
    def test_registry_against_capacity(self, capacity_mb, path):
        trace = Trace.from_columns(
            [TraceFunction(f"g{i}", 256.0, 0.2, 1.0) for i in range(4)],
            [i * 10.0 for i in range(12)],
            [0, 1, 2, 3] * 3,
            name="full",
        )
        loop, default = loop_and_default(trace, "GD", capacity_mb)
        assert default.path == path
        assert_same_replay(loop, default)

    @pytest.mark.parametrize(
        "gap_s, path",
        [(5.0, "vectorized"), (4.5, "gd-kernel")],
        ids=["gap-equals-cold-time", "gap-below-cold-time"],
    )
    def test_gap_against_cold_time(self, gap_s, path):
        trace = Trace.from_columns(
            [
                TraceFunction("f0", 128.0, 0.2, 5.0),
                TraceFunction("f1", 128.0, 0.2, 1.0),
            ],
            [0.0, 1.0, gap_s, 2 * gap_s],
            [0, 1, 0, 0],
            name="gaps",
        )
        loop, default = loop_and_default(trace, "GD", 1024.0)
        assert default.path == path
        assert_same_replay(loop, default)
        # At gap == cold time the cold container is released just in
        # time; inside it, the second arrival needs a container of its own.
        assert loop.metrics.cold_starts == (2 if gap_s == 5.0 else 3)

    @pytest.mark.parametrize("policy", ["GD", "HIST"])
    @pytest.mark.parametrize("disqualifier", DISQUALIFIERS)
    def test_each_static_disqualifier_declines(self, disqualifier, policy):
        trace, kwargs = disqualified(churn_trace(num_functions=30, seed=4), disqualifier)
        result = simulate(trace, policy, 2 * registry_mb(trace), **kwargs)
        faulted_gd = disqualifier == "fault_spec" and policy == "GD"
        assert result.path == ("gd-kernel" if faulted_gd else "sequential")

    @pytest.mark.parametrize("policy, path", [("GD", "vectorized"), ("HIST", "hist-kernel")])
    def test_a_disabled_fault_spec_is_no_spec(self, policy, path):
        trace = churn_trace(num_functions=30, seed=4)
        spec = FaultSpec(seed=1, max_retries=0)
        assert not spec.enabled
        loop, default = loop_and_default(trace, policy, 2 * registry_mb(trace), fault_spec=spec)
        assert default.path == path
        assert_same_replay(loop, default)

    @pytest.mark.parametrize("name", available_policies())
    def test_a_used_policy_replays_as_a_fresh_one(self, name):
        """simulate() resets a policy it is handed: a second loop run of
        one instance, under pressure, equals a fresh policy's."""
        trace = churn_trace(num_functions=20, seed=4)
        kwargs = {"trace": trace} if name.startswith("ORACLE") else {}
        memory_mb = 0.5 * registry_mb(trace)
        policy = create_policy(name, **kwargs)
        first = simulate(trace, policy, memory_mb, engine="object")
        assert_same_replay(first, simulate(trace, policy, memory_mb, engine="object"))

    @pytest.mark.parametrize("name", available_policies())
    def test_every_policy_under_pressure_equals_the_loop(self, name):
        trace = churn_trace(num_functions=60, duration_s=4800.0, seed=5)
        kwargs = {"trace": trace} if name.startswith("ORACLE") else {}
        loop, default = loop_and_default(
            trace, name, 0.5 * registry_mb(trace), kwargs
        )
        # Pressure lets policy state reach the outcomes: of all policies
        # only GD has a kernel that replays it.
        assert default.path == ("gd-kernel" if name == "GD" else "sequential")
        assert loop.metrics.evictions > 0
        assert_same_replay(loop, default)


#: HIST's keyword arguments the seeded sweep draws from: short windows
#: push IATs out of window, low thresholds make functions unpredictable,
#: a zero head margin files a prewarm due at once, and a short generic
#: TTL expires most containers.
HIST_KNOBS = {
    "window_minutes": (3, 10, 240),
    "cov_threshold": (0.1, 0.5, 2.0),
    "generic_ttl_s": (30.0, 300.0, 7200.0),
    "head_margin": (0.0, 0.5, 0.85),
    "tail_margin": (0.5, 1.0, 1.15),
    "min_samples": (1, 2, 5),
    "release_threshold_s": (5.0, 60.0, 200.0),
}


def hist_form(form, seed):
    """A 30-function, 3,000 s churn workload as one of the two forms."""
    if form == "stream":
        return StreamingChurnTrace(num_functions=30, duration_s=3000.0, seed=seed)
    return churn_trace(num_functions=30, duration_s=3000.0, seed=seed)


def edge_trace(functions, arrivals):
    """``arrivals``: ``(time_s, index into functions)`` pairs."""
    return Trace(
        functions,
        [Invocation(t, functions[i].name) for t, i in arrivals],
        name="hist-edge",
    )


#: Three arrivals 120 s apart make ``f`` predictable under HIST's
#: defaults: release after 60 s, a prewarm due 102 s after the third
#: arrival (t = 342) and kept until 207 s after it (t = 447).
PREDICTABLE = [(0.0, 0), (120.0, 0), (240.0, 0)]
EDGE_FUNCTIONS = [
    TraceFunction("f", 128.0, 0.2, 1.2),
    TraceFunction("g", 128.0, 0.1, 0.2),
]


@pytest.mark.usefixtures("unsanitized")
class TestHistKernel:
    """An exact, fresh HIST on a pool that holds the registry: the
    per-arrival HIST kernel answers it, equal to the loop."""

    @pytest.mark.parametrize("form", ["object", "stream"])
    def test_seeded_sweep_equals_the_loop(self, form):
        rng = random.Random(27)
        taken = prewarmed = 0
        for case in range(8):
            knobs = {name: rng.choice(values) for name, values in HIST_KNOBS.items()}
            trace = hist_form(form, seed=case)
            for effectiveness in (1.0, 0.5, 0.0):
                loop, default = loop_and_default(  # case 0: HIST's defaults
                    trace, "HIST", registry_mb(trace), knobs if case else {},
                    prewarm_effectiveness=effectiveness,
                )
                assert_same_replay(loop, default)
                if default.path == "hist-kernel":
                    taken += 1
                    prewarmed += default.metrics.prewarms > 0
        assert taken >= 18 and prewarmed >= 9  # of 24 runs

    @pytest.mark.parametrize(
        "gap_s, path", [(5.0, "hist-kernel"), (4.5, "sequential")],
        ids=["idle-at-next-arrival", "busy-at-next-arrival"],
    )
    def test_gap_against_run_end(self, gap_s, path):
        trace = edge_trace(
            [TraceFunction("f", 128.0, 1.0, 5.0)], [(0.0, 0), (gap_s, 0)]
        )
        loop, default = loop_and_default(trace, "HIST", 128.0)
        assert default.path == path
        assert_same_replay(loop, default)
        # Inside, the second arrival would need a second container: the
        # pool holds one, so the loop drops it.
        assert loop.metrics.warm_starts == (1 if gap_s == 5.0 else 0)

    @pytest.mark.parametrize(
        "keep_s, path", [(5.0, "hist-kernel"), (4.5, "sequential")],
        ids=["deadline-at-run-end", "deadline-before-run-end"],
    )
    def test_keep_alive_against_run_end(self, keep_s, path):
        trace = edge_trace(
            [TraceFunction("f", 128.0, 1.0, 5.0)], [(0.0, 0), (100.0, 0)]
        )
        loop, default = loop_and_default(
            trace, "HIST", 128.0, {"generic_ttl_s": keep_s}
        )
        assert default.path == path
        assert_same_replay(loop, default)
        assert loop.metrics.expirations == 1

    @pytest.mark.parametrize(
        "other_s, path, prewarms",
        [(170.0, "hist-kernel", 0), (169.5, "sequential", 1), (220.0, "hist-kernel", 1)],
        ids=["prewarm-due-after-run-end", "prewarm-due-while-busy", "at-the-deadline"],
    )
    def test_prewarm_against_run_end(self, other_s, path, prewarms):
        """``f``'s second run (t = 120, 50 s warm) plans a release at 220
        and a prewarm due at 150, and ``g`` arrives after it fell due: at
        the end of that run the idle container skips the prewarm; inside
        it the loop brings up a second container for ``f``; at the
        release deadline the container has expired and the prewarm
        replaces it."""
        functions = [
            TraceFunction("f", 128.0, 50.0, 60.0),
            TraceFunction("g", 128.0, 0.1, 0.2),
        ]
        trace = edge_trace(
            functions, [(0.0, 0), (120.0, 0), (other_s, 1), (300.0, 0)]
        )
        loop, default = loop_and_default(
            trace, "HIST", 256.0,
            {"min_samples": 1, "release_threshold_s": 100.0, "head_margin": 0.25},
        )
        assert default.path == path
        assert_same_replay(loop, default)
        assert loop.metrics.prewarms == prewarms

    def test_fresh_exact_policy_against_used_or_subclassed(self):
        class TunedHIST(HistogramPolicy):
            pass

        trace = churn_trace(num_functions=20, seed=4)
        memory_mb = registry_mb(trace)
        fresh = simulate(trace, "HIST", memory_mb)
        assert fresh.path == "hist-kernel"
        # The loop leaves a policy holding histograms and pending
        # prewarms; simulate() resets it, so the kernel still answers.
        policy = create_policy("HIST")
        loop = simulate(trace, policy, memory_mb, engine="object")
        assert policy._histograms
        used = simulate(trace, policy, memory_mb)
        assert used.path == "hist-kernel"
        assert_same_replay(fresh, used)
        assert_same_replay(loop, simulate(trace, policy, memory_mb, engine="object"))
        assert simulate(trace, TunedHIST(), memory_mb).path == "sequential"

    @pytest.mark.parametrize("effectiveness", [1.0, 0.5])
    def test_prewarm_at_its_own_arrival_is_warm_past_its_deadline(
        self, effectiveness
    ):
        """The prewarm due at 342 comes up at ``f``'s own arrival at 500,
        after the expiry phase: kept until 447, it still serves warm."""
        trace = edge_trace(EDGE_FUNCTIONS, PREDICTABLE + [(500.0, 0)])
        loop, default = loop_and_default(
            trace, "HIST", 256.0, prewarm_effectiveness=effectiveness
        )
        assert default.path == "hist-kernel"
        assert_same_replay(loop, default)
        metrics = loop.metrics
        assert (metrics.warm_starts, metrics.prewarms, metrics.expirations) == (3, 1, 1)

    def test_prewarm_at_the_last_arrival_is_not_expired(self):
        """``g``'s arrival at 500 ends the trace: the prewarm it brings up
        is past its 447 s deadline, but no later expiry phase runs."""
        trace = edge_trace(EDGE_FUNCTIONS, PREDICTABLE + [(500.0, 1)])
        loop, default = loop_and_default(trace, "HIST", 256.0)
        assert default.path == "hist-kernel"
        assert_same_replay(loop, default)
        assert (loop.metrics.prewarms, loop.metrics.expirations) == (1, 1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_whole_runs_follow_the_specification(self, seed):
        """The kernel against the reference model's HIST, whose plan is
        computed from the raw arrival list on every call."""
        trace = churn_trace(num_functions=40, duration_s=4800.0, seed=seed)
        memory_mb = registry_mb(trace)
        result = simulate(trace, "HIST", memory_mb)
        assert result.path == "hist-kernel"
        model = Server(dict(trace.functions), "HIST", memory_mb)
        for now_s, function in trace.arrivals():
            model.admit(function, now_s)
        model.finish()
        assert result.metrics.counters() == model.counters
        assert model.counters["prewarms"] and model.counters["expirations"]


NAN = float("nan")


class TestParametersTheEnginesPartOn:
    """A parameter the kernels and the loop read differently is refused
    at construction. NaN fails every comparison, so before the refusal
    ``ttl_s=nan`` read 90 cold starts on the TTL kernel and 2 on the
    loop, and HIST's ``generic_ttl_s=nan`` read 6 on the HIST kernel
    against 2. ``inf`` keeps meaning "never", on both."""

    @pytest.mark.parametrize(
        "name, kwargs",
        [("TTL", {"ttl_s": NAN}), ("TTL", {"ttl_s": 0.0}), ("TTL", {"ttl_s": -1.0})]
        + [("HIST", {"window_minutes": w}) for w in (0, -5, 2.5, 240.0, True)]
        + [("HIST", {"cov_threshold": NAN})]
        + [
            ("HIST", {knob: value})
            for knob in ("generic_ttl_s", "head_margin", "tail_margin", "release_threshold_s")
            for value in (NAN, -1.0, -inf)
        ],
        ids=repr,
    )
    def test_refused(self, name, kwargs):
        with pytest.raises(ValueError):
            create_policy(name, **kwargs)
        with pytest.raises(ValueError):
            simulate(make_trace("ABABAABBA" * 20), name, 4096.0, **kwargs)

    @pytest.mark.parametrize(
        "name, kwargs",
        [("TTL", {"ttl_s": inf})]
        + [
            ("HIST", {knob: inf})
            for knob in ("generic_ttl_s", "head_margin", "tail_margin", "release_threshold_s")
        ]
        + [("HIST", {"cov_threshold": value}) for value in (inf, -inf)],
        ids=repr,
    )
    def test_inf_means_never_on_both(self, name, kwargs, unsanitized):
        trace = make_trace("ABABAABBA" * 20)
        loop, default = loop_and_default(trace, name, 4096.0, kwargs)
        assert default.path == ("vectorized" if name == "TTL" else "hist-kernel")
        assert_same_replay(loop, default)


#: GD's weights the seeded sweep draws from: a zero weight drops its
#: term (Section 4.2's ablations), the others rescale it.
GD_WEIGHTS = (0.0, 0.5, 1.0, 2.5)
#: Pools from 0.05x the registry (a handful of containers) to 1x.
GD_POOLS = (0.05, 0.2, 0.5, 0.8, 1.0)


def gd_workload(rng):
    """A seeded GD workload: mixed sizes plus one function holding 60 %
    of the registry (above every pool below that), zero warm and cold
    times, tied arrival times, and runs long enough for a function to
    overlap itself."""
    functions = []
    for i in range(rng.randint(3, 12)):
        warm = rng.choice((0.0, 0.1, 1.0, 5.0))
        cold = warm + rng.choice((0.0, 0.5, 2.0, 30.0))
        memory_mb = rng.choice((64.0, 128.0, 200.0, 512.0))
        functions.append(TraceFunction(f"g{i:02d}", memory_mb, warm, cold))
    functions.append(TraceFunction("giant", 1.5 * sum(f.memory_mb for f in functions), 1.0, 4.0))
    invocations, t = [], 0.0
    for __ in range(rng.randint(50, 300)):
        t += rng.choice((0.0, 0.0, 0.25, 1.0, 3.0, 20.0))
        function = functions[int(rng.paretovariate(1.2)) % len(functions)]
        invocations.append(Invocation(t, function.name))
    return Trace(functions, invocations, name="gd-sweep")


#: Pools of the faulted sweep: a shrink below the registry is pressure.
GD_FAULT_POOLS = (0.1, 0.3, 0.6, 0.9, 1.0, 1.5)


def gd_fault_spec(rng, horizon_s):
    """A seeded spec that may set every :class:`FaultSpec` field: rates
    of all three attempt faults, outages (rate-based, explicit, another
    server's), capacity steps (explicit, at t = 0, harvested), spot
    evictions with and without notice, and a retry policy from none
    (no retries, no queue, no budget) to roomy."""
    explicit_down = sorted(rng.uniform(0.0, horizon_s) for __ in range(rng.randint(0, 3)))
    low = rng.uniform(0.05, 0.9)
    base_delay_s = rng.choice((0.1, 1.0, 5.0))
    return FaultSpec(
        seed=rng.randrange(1 << 70),
        spawn_failure_rate=rng.choice((0.0, 0.0, 0.05, 0.3)),
        crash_rate=rng.choice((0.0, 0.0, 0.05, 0.3)),
        timeout_rate=rng.choice((0.0, 0.0, 0.05, 0.2)),
        server_mtbf_s=rng.choice((0.0, 0.0, 30.0, 300.0)),
        server_recovery_s=rng.choice((1.0, 10.0, 60.0)),
        server_downtimes=[(0, t, t + rng.choice((0.5, 5.0, 30.0))) for t in explicit_down]
        + [(1, 1.0, 5.0)] * rng.randint(0, 1),
        capacity_steps=[
            (0, rng.choice((0.0, round(rng.uniform(0.0, horizon_s), 1))), rng.choice((0.1, 0.4, 1.0)))
            for __ in range(rng.randint(0, 4))
        ],
        harvest_interval_s=rng.choice((0.0, 0.0, 10.0, 100.0)),
        harvest_min_frac=low,
        harvest_max_frac=rng.uniform(low, 1.0),
        spot_mtbf_s=rng.choice((0.0, 0.0, 50.0, 400.0)),
        spot_notice_s=rng.choice((0.0, 2.0, 30.0)),
        max_retries=rng.choice((0, 1, 3, 6, 6)),
        base_delay_s=base_delay_s,
        max_delay_s=base_delay_s * rng.choice((1, 4, 30)),
        jitter=rng.choice((0.0, 0.5, 1.0)),
        max_pending_retries=rng.choice((0, 3, 1024, 1024)),
        per_function_retry_budget=rng.choice((0, 5, 100, 100)),
    )


def assert_same_faulted_replay(loop, default):
    assert_same_replay(loop, default)
    for breakdown in ("faults_by_kind", "sheds_by_reason"):
        assert list(getattr(default.metrics, breakdown).items()) == list(
            getattr(loop.metrics, breakdown).items()
        )
    assert default.metrics.downtime_s == loop.metrics.downtime_s
    assert default.memory_mb == loop.memory_mb


def loop_victims(trace, memory_mb, **config):
    """The arrival loop's run and the containers it terminated, in
    order: ``(function, container id, pressure)`` per ``on_evict``."""
    policy, victims = GreedyDualPolicy(), []
    on_evict = policy.on_evict

    def record(container, now_s, pool, pressure):
        victims.append((container.function.name, container.container_id, pressure))
        on_evict(container, now_s, pool, pressure)

    policy.on_evict = record
    return simulate(trace, policy, memory_mb, engine="object", **config), victims


def kernel_victims(trace, memory_mb, **config):
    """The default run and the containers the GD kernel terminated, in
    order: ``(function, cid, pressure)`` of the record at each of its
    ``peers.remove(box)`` lines (``evict`` and the inlined pressure
    eviction), read by a line tracer."""
    source, first = inspect.getsourcelines(columnar.run_gd_kernel)
    lines = {first + i for i, line in enumerate(source) if line.strip() == "peers.remove(box)"}
    assert len(lines) == 2
    victims = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            box = frame.f_locals["box"]
            victims.append((box.name, box.cid, frame.f_locals.get("pressure", True)))
        return on_line

    kernel = columnar.run_gd_kernel.__code__
    codes = {kernel} | {
        code for code in kernel.co_consts if inspect.iscode(code) and code.co_name == "evict"
    }
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code in codes else None)
    try:
        result = simulate(trace, "GD", memory_mb, **config)
    finally:
        sys.settrace(previous)
    return result, victims


def by_creation(victims):
    """``victims`` with each id replaced by its rank among their ids: the
    loop numbers containers globally, the kernel per run."""
    rank = {cid: r for r, cid in enumerate(sorted(cid for __, cid, __ in victims))}
    return [(name, rank[cid], pressure) for name, cid, pressure in victims]


@pytest.mark.usefixtures("unsanitized")
class TestGdKernel:
    """An exact, fresh GD without tenant weights, at any pool size: the
    per-arrival GD kernel answers it, equal to the loop."""

    @pytest.mark.parametrize("form", ["object", "stream"])
    def test_seeded_sweep_equals_the_loop(self, form):
        rng = random.Random(29)
        seen = Counter()
        for case in range(40):
            if form == "stream":
                trace = StreamingChurnTrace(
                    num_functions=rng.randint(8, 40), duration_s=2000.0, seed=case
                )
            else:
                trace = gd_workload(rng)
            weights = {
                "frequency_weight": rng.choice(GD_WEIGHTS),
                "cost_weight": rng.choice(GD_WEIGHTS),
            }
            memory_mb = rng.choice(GD_POOLS) * registry_mb(trace)
            loop, default = loop_and_default(trace, "GD", memory_mb, weights)
            assert_same_replay(loop, default)
            metrics = loop.metrics
            seen[default.path] += 1
            seen["evicted"] += metrics.evictions > 0
            seen["dropped"] += metrics.dropped > 0
            # More containers alive at the end than functions: one held two.
            seen["overlap"] += metrics.cold_starts - metrics.evictions > len(metrics.per_function)
        # At 1x the registry the TTL kernel answers what does not overlap.
        assert seen["gd-kernel"] >= 30 and seen["evicted"] >= 25, seen
        assert form == "stream" or (seen["dropped"] >= 10 and seen["overlap"] >= 10), seen

    def test_self_overlap_under_pressure(self):
        """``f`` runs three 128 MB containers at once on a 512 MB pool;
        ``g`` (256 MB) then finds every container busy and drops. Once the runs end it
        evicts one of ``f``'s (equal priorities: the lower id of the two
        that idled at 10 s), and ``f`` is warm on another."""
        functions = [
            TraceFunction("f", 128.0, 1.0, 10.0),
            TraceFunction("g", 256.0, 0.5, 1.0),
        ]
        trace = edge_trace(
            functions, [(0.0, 0), (0.0, 0), (1.0, 0), (2.0, 1), (20.0, 1), (20.0, 0)]
        )
        loop, default = loop_and_default(trace, "GD", 512.0)
        assert default.path == "gd-kernel"
        assert_same_replay(loop, default)
        metrics = loop.metrics
        assert (metrics.cold_starts, metrics.dropped, metrics.evictions) == (4, 1, 1)
        assert metrics.per_function["f"] == FunctionOutcome(warm=1, cold=3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_whole_runs_follow_the_specification(self, seed):
        """The kernel against the reference model's GD (Equation 1 over
        plain lists), through ``Server.admit``."""
        trace = churn_trace(num_functions=40, duration_s=4800.0, seed=seed)
        memory_mb = 0.4 * registry_mb(trace)
        result = simulate(trace, "GD", memory_mb)
        assert result.path == "gd-kernel"
        model = Server(dict(trace.functions), "GD", memory_mb)
        for now_s, function in trace.arrivals():
            model.admit(function, now_s)
        model.finish()
        assert result.metrics.counters() == model.counters
        assert model.counters["evictions"]

    def test_a_nan_priority_matches_its_own_entry(self):
        """A finite Freq weight can still overflow: 1e308 x Freq 2 is inf,
        and inf times a zero-cost function's zero term is NaN, so every
        container hit twice scores NaN. A popped entry still matches its
        container (a tuple compare tries identity first), so each walk
        ends, as on the loop."""
        functions = [TraceFunction(f"f{i}", 100.0, 1.0, 1.0) for i in range(5)]
        # Each function twice in a row (cold, then a warm hit at Freq 2).
        trace = edge_trace(functions, [(2.0 * t, (t // 2) % 5) for t in range(60)])
        loop, default = loop_and_default(trace, "GD", 300.0, {"frequency_weight": 1e308})
        assert default.path == "gd-kernel"
        assert_same_replay(loop, default)
        assert (loop.metrics.evictions, loop.metrics.warm_starts) == (27, 30)
        simulator = KeepAliveSimulator(trace, GreedyDualPolicy(frequency_weight=1e308), 300.0)
        simulator.run()
        assert all(isnan(c.priority) for c in simulator.pool.all_containers())

    def test_fresh_exact_policy_against_used_or_subclassed(self):
        class TunedGD(GreedyDualPolicy):
            pass

        trace = churn_trace(num_functions=20, seed=4)
        memory_mb = 0.5 * registry_mb(trace)
        fresh = simulate(trace, "GD", memory_mb)
        assert fresh.path == "gd-kernel"
        # The loop leaves a policy holding Freq and a clock; simulate()
        # resets it, so the kernel still answers.
        policy = create_policy("GD")
        loop = simulate(trace, policy, memory_mb, engine="object")
        assert policy.clock.value > 0.0
        used = simulate(trace, policy, memory_mb)
        assert used.path == "gd-kernel"
        assert_same_replay(fresh, used)
        assert_same_replay(loop, simulate(trace, policy, memory_mb, engine="object"))
        # GDS and every other subclass, and tenant weights (even all 1).
        for declined in (
            create_policy("GDS"), TunedGD(), GreedyDualPolicy(tenant_weights={0: 1.0}),
        ):
            assert simulate(trace, declined, memory_mb).path == "sequential"

    @pytest.mark.parametrize("disqualifier", DISQUALIFIERS)
    def test_each_static_disqualifier_declines_under_pressure(self, disqualifier):
        trace, kwargs = disqualified(churn_trace(num_functions=30, seed=4), disqualifier)
        result = simulate(trace, "GD", 0.5 * registry_mb(trace), **kwargs)
        assert result.path == ("gd-kernel" if disqualifier == "fault_spec" else "sequential")
        assert result.metrics.evictions > 0

    @pytest.mark.parametrize("form", ["object", "stream"])
    def test_seeded_faulted_sweep_equals_the_loop(self, form):
        """Under a fault spec the kernel replays the server's timeline and
        the retry queue: equal to the loop on every counter and breakdown,
        the downtime, the provisioned size and ``per_function``, whose
        entries appear at a function's first outcome."""
        rng = random.Random(30)
        seen = Counter()
        for case in range(60):
            if form == "stream":
                trace = StreamingChurnTrace(
                    num_functions=rng.randint(8, 30), duration_s=1500.0, seed=case
                )
            else:
                trace = gd_workload(rng)
            spec = gd_fault_spec(rng, trace.last_arrival_s)
            memory_mb = rng.choice(GD_FAULT_POOLS) * registry_mb(trace)
            loop, default = loop_and_default(trace, "GD", memory_mb, fault_spec=spec)
            assert default.path == "gd-kernel"
            assert_same_faulted_replay(loop, default)
            metrics = loop.metrics
            assert loop.memory_mb == memory_mb
            seen.update(metrics.faults_by_kind)
            seen.update(metrics.sheds_by_reason)
            for counter in ("retries", "server_downs", "deflations", "evictions"):
                seen[counter] += getattr(metrics, counter) > 0
            # Shed on every attempt: no outcome, so no entry.
            arrived = {function.name for __, function in trace.arrivals()}
            seen["never served"] += not arrived <= set(metrics.per_function)
        assert seen["retries"] >= 12 and seen["deflations"] >= 10, seen
        assert seen["server_downs"] >= 25 and seen["evictions"] >= 25, seen
        assert {"unavailable", "memory_pressure", "retry_budget", "queue_full"} <= set(seen), seen
        assert {"crash", "timeout", "spawn_failure"} <= set(seen), seen
        assert seen["never served"] >= 10, seen

    def test_server_events_fire_before_retries_due_with_them(self):
        """``g`` outgrows the pool: its attempt at 1 s fails for memory
        and is retried at exactly 2 s, when the server goes down. The
        outage fires first, so the retry finds the server down. (``f``
        at 10 s stretches the schedule's horizon past the outage.)"""
        functions = [TraceFunction("g", 200.0, 0.5, 1.0), TraceFunction("f", 10.0, 0.5, 1.0)]
        trace = edge_trace(functions, [(1.0, 0), (10.0, 1)])
        spec = FaultSpec(
            seed=1, server_downtimes=[(0, 2.0, 3.0)], max_retries=1, jitter=0.0
        )
        loop, default = loop_and_default(trace, "GD", 100.0, fault_spec=spec)
        assert default.path == "gd-kernel"
        assert_same_faulted_replay(loop, default)
        assert loop.metrics.retries == 1
        assert loop.metrics.sheds_by_reason == {"unavailable": 1}

    def test_a_failed_server_does_not_advance_the_clock(self):
        """The outage at 2 s loses ``h``'s idle container, priority 1e8:
        a failure eviction leaves the clock at 0. Then ``b`` (value 2e-9)
        and ``a`` (1e-9) fill the pool and ``c`` evicts the lower
        priority, ``a``, so ``b`` is warm at 8 s. A clock raised to 1e8
        would round both priorities to 1e8 and evict the older ``b``."""
        functions = [
            TraceFunction("h", 1e-8, 0.0, 1.0),
            TraceFunction("a", 1.0, 0.0, 1e-9),
            TraceFunction("b", 1.0, 0.0, 2e-9),
            TraceFunction("c", 1.0, 0.0, 1.0),
        ]
        trace = edge_trace(functions, [(0.0, 0), (4.0, 2), (5.0, 1), (7.0, 3), (8.0, 2)])
        spec = FaultSpec(seed=1, server_downtimes=[(0, 2.0, 3.0)])
        loop, default = loop_and_default(trace, "GD", 2.0, fault_spec=spec)
        assert default.path == "gd-kernel"
        assert_same_faulted_replay(loop, default)
        assert loop.metrics.per_function["b"] == FunctionOutcome(warm=1, cold=1)
        assert loop.metrics.evictions == 1

    def test_only_a_pressure_victim_lends_its_record(self):
        """Doomed and outage-lost records under pressure, held to the loop
        on its counters, outcomes and victim order. ``a``'s warm start at
        10 s crashes (the one crash seed 220 draws here) while its entry
        sits in the victim index; the record is torn down at 12 s. A
        record lent to ``d`` then would be idle under that stale entry at
        20 s, which ``e``'s walk re-files: two live entries for one
        container, both taken by ``g``'s 300 MB walk at 30 s. The outage
        at 45 s loses ``g``'s idle container; the refill evicts again."""
        functions = [TraceFunction(name, 100.0, 1.0, 2.0) for name in "abcde"]
        functions.append(TraceFunction("g", 300.0, 1.0, 2.0))
        trace = edge_trace(functions, [
            (0.0, 0), (0.0, 1), (0.0, 2), (10.0, 0), (12.0, 3), (20.0, 4), (30.0, 5),
            (40.0, 5), (55.0, 0), (56.0, 1), (57.0, 2), (60.0, 3),
        ])
        spec = FaultSpec(
            seed=220, crash_rate=0.3, max_retries=0, server_downtimes=[(0, 45.0, 50.0)]
        )
        loop, looped = loop_victims(trace, 300.0, fault_spec=spec)
        default, walked = kernel_victims(trace, 300.0, fault_spec=spec)
        assert default.path == "gd-kernel"
        assert_same_faulted_replay(loop, default)
        assert by_creation(walked) == by_creation(looped)
        assert loop.metrics.faults_by_kind == {"crash": 1}
        assert loop.metrics.server_downs == 1
        assert [(name, pressure) for name, __, pressure in looped] == [
            ("a", False), ("b", True), ("c", True), ("d", True), ("e", True),
            ("g", False), ("a", True),
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_faulted_whole_runs_follow_the_specification(self, seed):
        """The kernel under a harvest, spot, outage and per-attempt fault
        spec against the reference model's GD, through ``Server.admit``."""
        trace = churn_trace(num_functions=40, duration_s=4800.0, seed=seed)
        spec = FaultSpec(
            seed=seed, spawn_failure_rate=0.02, crash_rate=0.02, timeout_rate=0.01,
            server_mtbf_s=2000.0, server_recovery_s=120.0, harvest_interval_s=300.0,
            harvest_min_frac=0.3, spot_mtbf_s=1500.0, max_pending_retries=8,
        )
        memory_mb = 0.6 * registry_mb(trace)
        result = simulate(trace, "GD", memory_mb, fault_spec=spec)
        assert result.path == "gd-kernel"
        model = Server(
            dict(trace.functions), "GD", memory_mb, fault_spec=spec,
            horizon_s=trace.last_arrival_s,
        )
        for now_s, function in trace.arrivals():
            model.admit(function, now_s)
        model.finish()
        assert result.metrics.counters() == model.counters
        for counter in ("evictions", "deflations", "retries", "sheds", "faults_injected"):
            assert model.counters[counter], counter


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
from repro.core.policies.base import create_policy
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.synth import churn_trace
from tests.test_pinned_replays import _metrics_payload, fingerprint

trace = churn_trace(num_functions=50, seed=31)
oracle = KeepAliveSimulator(
    trace, create_policy("HIST"), 96 * 128.0
).run()
columnar = simulate(trace, "HIST", 96 * 128.0, engine="columnar")
print(json.dumps({
    "oracle": fingerprint(_metrics_payload(oracle)),
    "columnar": fingerprint(_metrics_payload(columnar)),
}))
"""


def _fingerprints_with_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
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
