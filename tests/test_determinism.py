"""One determinism table: a run is a function of its inputs.

Every number EXPERIMENTS.md reports rests on it. Each row of
:data:`ROWS` builds one kind of output from its seeds alone, as
``{part: bytes or JSON-able}``, and each column asks for the same bytes
(by SHA-256): built ``twice`` in this process, after whatever ran
before; here and in a ``fresh-process``; under ``PYTHONHASHSEED`` 0 and 1
(``hash-seeds``), the knob that exposes any set-iteration-order
dependence. Both children build every row once (:func:`table`).
"""

import collections.abc
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import tempfile

import pytest

import repro
from repro.cluster.elastic import ElasticClusterSimulation
from repro.cluster.simulation import ClusterSimulator
from repro.core.clock import SimClock
from repro.core.policies.base import create_policy
from repro.faults import FaultSpec
from repro.live.service import LivePoolService
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.provisioning.controller import ProportionalController
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.sim.sweep import run_sweep
from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.io import save_trace_json
from repro.traces.sampling import make_paper_traces, random_sample, rare_sample, representative_sample
from repro.traces.synth import (
    bursty_arrivals,
    churn_trace,
    harvest_day_trace,
    multitenant_trace,
    skewed_frequency_trace,
)
from tests.conftest import make_trace
from tests.test_elastic_cluster import steady_trace
from tests.test_faults import CHAOS
from tests.test_pinned_replays import _metrics_payload

REPO = pathlib.Path(__file__).resolve().parents[1]


def _metrics(metrics):
    """Every deterministic figure of one server's metrics."""
    return {
        "summary": metrics.summary(),
        "per_function": [[n, o.warm, o.cold, o.dropped] for n, o in metrics.per_function.items()],
        "tenants": metrics.tenant_counters(),
        "faults": [metrics.faults_by_kind, metrics.sheds_by_reason],
        "exec_s": [metrics.ideal_exec_time_s, metrics.actual_exec_time_s],
    }


def _traced(tmp, run):
    """``run(tracer)``'s result and the bytes of the events it wrote."""
    path = tmp / "events.jsonl"
    sink = JsonlSink(path)
    try:
        result = run(Tracer(sink))
    finally:
        sink.close()
    return result, path.read_bytes()


def _trace_bytes(tmp, trace):
    save_trace_json(trace, tmp / "trace.json")
    return (tmp / "trace.json").read_bytes()


# ----------------------------------------------------------------------
# The rows
# ----------------------------------------------------------------------


def traced_simulate(tmp):
    out = {}
    for name, trace, policy, memory_mb, kwargs in (
        ("gd", churn_trace(60, 600.0, seed=3), "GD", 2048.0, {}),
        ("ttl", multitenant_trace(duration_s=300.0, num_tenants=16), "TTL", 1024.0, {"ttl_s": 60.0}),
    ):
        result, out[name] = _traced(
            tmp, lambda tracer: simulate(trace, policy, memory_mb, tracer=tracer, **kwargs)
        )
        out[f"{name}.metrics"] = _metrics(result.metrics)
    return out


def hist_kernel(tmp):
    trace = churn_trace(num_functions=50, seed=31)
    loop = KeepAliveSimulator(trace, create_policy("HIST"), 96 * 128.0).run()
    kernel = simulate(trace, "HIST", 96 * 128.0)
    return {"loop": _metrics_payload(loop), "kernel": _metrics_payload(kernel)}


def gd_harvest(tmp):
    trace = harvest_day_trace(duration_s=600.0)
    spec = FaultSpec(
        seed=7, harvest_interval_s=120.0, harvest_min_frac=0.5, spot_mtbf_s=600.0, spot_notice_s=30.0
    )
    result, events = _traced(tmp, lambda tracer: KeepAliveSimulator(
        trace, create_policy("GD"), 4096.0, fault_spec=spec, tracer=tracer
    ).run())
    return {"jsonl": events, "metrics": _metrics(result.metrics)}


def gd_chaos(tmp):
    trace = skewed_frequency_trace(seed=1, duration_s=600.0)
    return {"metrics": _metrics(simulate(trace, "GD", 512.0, fault_spec=CHAOS).metrics)}


def traced_cluster(tmp):
    spec = FaultSpec(seed=5, crash_rate=0.05, server_downtimes=((0, 100.0, 160.0),))
    result, events = _traced(tmp, lambda tracer: ClusterSimulator(
        make_trace("ABCDABCDBCAD" * 30, gap_s=2.0), "affinity-spillover", num_servers=2,
        server_memory_mb=1024.0, tracer=tracer, fault_spec=spec,
    ).run())
    servers = [_metrics(m) for m in result.per_server]
    return {"jsonl": events, "servers": servers, "routed": [result.routed, result.shed_unavailable]}


def traced_elastic(tmp):
    spec = FaultSpec(seed=7, crash_rate=0.02, server_downtimes=((0, 300.0, 600.0),))
    result, events = _traced(tmp, lambda tracer: ElasticClusterSimulation(
        steady_trace(rate_per_s=5.0, duration_s=1200.0), requests_per_server_per_s=2.0,
        control_period_s=300.0, max_servers=4, tracer=tracer, fault_spec=spec,
    ).run())
    return {
        "jsonl": events, "servers": [_metrics(m) for m in result.per_server],
        "scaling": [
            result.server_timeline, result.scale_ups, result.scale_downs,
            result.replacements, result.shed_unavailable,
        ],
    }


def traced_invoker(tmp):
    """Two runs of one invoker and its controller: the second, on the
    used pair, must replay as the first did. The pool starts below the
    invoker's memory, the controller's ceiling, so that it can grow."""
    trace = multitenant_trace(duration_s=200.0, seed=4)
    controller = ProportionalController.from_miss_ratio_target(
        HitRatioCurve.from_distances(reuse_distances(trace)), desired_miss_ratio=0.05,
        mean_arrival_rate=trace.arrival_rate(), initial_size_mb=2048.0, max_size_mb=4096.0,
        deadband=0.1, control_period_s=50.0,
    )

    def run(invoker):
        result = invoker.run(trace)
        return {
            "metrics": _metrics(result.metrics),
            "records": [[r.outcome, r.start_s, r.completion_s] for r in result.records],
            "sizes": [d.cache_size_mb for d in controller.history],
        }

    def twice(tracer):
        invoker = SimulatedInvoker(
            InvokerConfig(memory_mb=4096.0, cpu_cores=8), policy="GD", controller=controller,
            tracer=tracer,
        )
        return [run(invoker), run(invoker)]

    runs, events = _traced(tmp, twice)
    assert runs[1] == runs[0]
    assert runs[0]["sizes"] and 2048.0 not in runs[0]["sizes"]  # the pool grew
    return {"jsonl": events, **runs[0]}


def sweep(tmp, workers):
    run_sweep(
        make_trace("ABCDABCDBCAD" * 20, gap_s=2.0), [0.5, 1.0], policies=("GD", "LRU", "HIST"),
        max_workers=workers, trace_dir=str(tmp),
        fault_spec=FaultSpec(seed=11, crash_rate=0.03, max_retries=2),
    )
    return {path.name: path.read_bytes() for path in sorted(tmp.iterdir())}


def live_stats(tmp):
    trace = skewed_frequency_trace(seed=2, duration_s=300.0)
    arrivals = [(f.name, t) for t, f in trace.arrivals()]

    def run(tracer):
        service = LivePoolService(trace, "GD", 1024.0, clock=SimClock(), tracer=tracer)
        for start in range(0, len(arrivals), 64):
            service.admit_many(arrivals[start:start + 64])
        return service.stats()

    stats, events = _traced(tmp, run)
    del stats["decision_latency"], stats["uptime_s"]  # wall-clock readings
    return {"jsonl": events, "stats": stats}


def paper_traces(tmp):
    dataset = generate_azure_dataset(
        AzureGeneratorConfig(num_functions=200, max_daily_invocations=800), seed=99
    )
    traces = make_paper_traces(
        dataset, sizes={"rare": 30, "representative": 40, "random": 20}, seed=99
    )
    out = {name: _trace_bytes(tmp, trace) for name, trace in traces.items()}
    out["metrics"] = {
        name: _metrics(simulate(trace, "GD", 4096.0).metrics) for name, trace in traces.items()
    }
    small = generate_azure_dataset(
        AzureGeneratorConfig(num_functions=80, max_daily_invocations=2000), seed=7
    )
    out["samples"] = [representative_sample(small, n=70, seed=5)] + [
        sample(small, n=40, seed=3) for sample in (representative_sample, rare_sample, random_sample)
    ]
    return out


def generators(tmp):
    out = {
        trace.name: _trace_bytes(tmp, trace) for trace in (
            churn_trace(num_functions=30, duration_s=600.0, seed=5),
            skewed_frequency_trace(duration_s=300.0, seed=9),
            multitenant_trace(duration_s=300.0, seed=3),
        )
    }
    bursty = bursty_arrivals("f", 5.0, 10.0, 30.0, 500.0, rng=random.Random(2))
    out["bursty"] = [[i.time_s, i.function_name] for i in bursty]
    dataset = generate_azure_dataset(AzureGeneratorConfig(num_functions=40), seed=3)
    out["azure"] = [
        dataclasses.astuple(x) for x in (*dataset.functions.values(), *dataset.applications.values())
    ]
    return out


ROWS = {
    "simulate": traced_simulate,
    "hist-kernel": hist_kernel,
    "gd-harvest": gd_harvest,
    "gd-chaos": gd_chaos,
    "cluster": traced_cluster,
    "elastic": traced_elastic,
    "invoker": traced_invoker,
    "sweep-1-worker": functools.partial(sweep, workers=1),
    "sweep-2-workers": functools.partial(sweep, workers=2),
    "live-stats": live_stats,
    "paper-traces": paper_traces,
    "generators": generators,
}


def digests(row):
    """``{part: SHA-256}`` of one build of ``row``."""
    with tempfile.TemporaryDirectory() as tmp:
        parts = ROWS[row](pathlib.Path(tmp))
    return {
        part: hashlib.sha256(
            data if isinstance(data, bytes) else json.dumps(data, sort_keys=True).encode()
        ).hexdigest()
        for part, data in parts.items()
    }


def table():
    """Every row's digests: what each child prints."""
    return {row: digests(row) for row in ROWS}


# ----------------------------------------------------------------------
# The columns
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def first_builds():
    return {}


@pytest.fixture(scope="module")
def children():
    """``table()`` in one fresh interpreter per hash seed, both at once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    script = "import json; from tests.test_determinism import table; print(json.dumps(table()))"
    running = {
        seed: subprocess.Popen(
            [sys.executable, "-c", script], env=dict(env, PYTHONHASHSEED=seed), cwd=REPO,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    }
    tables = {}
    for seed, child in running.items():
        out, err = child.communicate()
        assert child.returncode == 0, err
        tables[seed] = json.loads(out)
    return tables


@pytest.mark.parametrize("column", ["twice", "fresh-process", "hash-seeds"])
@pytest.mark.parametrize("row", ROWS)
def test_byte_equal(row, column, first_builds, children):
    if row not in first_builds:
        first_builds[row] = digests(row)
    first = first_builds[row]
    if column == "twice":
        assert digests(row) == first
    elif column == "fresh-process":
        assert children["0"][row] == first
    else:
        assert children["0"][row] == children["1"][row]


def test_no_module_holds_an_iterator():
    """An iterator at module level (an ``itertools.count()`` id source,
    say) is state every run in the process shares: a run's output would
    depend on what ran before it. Ids come from the run."""
    found = [
        f"{info.name}.{name}"
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        for name, value in vars(importlib.import_module(info.name)).items()
        if isinstance(value, collections.abc.Iterator)
    ]
    assert not found, f"module-level iterators: {found}"
