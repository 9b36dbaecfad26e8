"""One probe of every numeric knob, read from its one declaration
(:mod:`repro.domains`): every registered policy's numeric parameters,
every numeric field of the config classes and of ``TraceFunction`` (a
trace file is outside input), the numeric parameters of the controller,
the elastic cluster, its scaler and the balancers, and every numeric
CLI flag get NaN, ±inf, -1 and 0, and 1.5 if an integer. A value
outside the declared domain is refused (``ValueError``; exit 2 at the
CLI); one inside it is listed in :data:`ACCEPTED` with its reason and,
where a kernel can answer the run, gives the same ``summary()`` on the
kernel and on the loop. A numeric parameter with no declaration fails.
"""

import argparse
import dataclasses
import inspect
import json
import math
import re
from functools import partial
from importlib import import_module

import pytest

from repro.cli import _Pairs, build_parser
from repro.cluster.elastic import ElasticClusterSimulation
from repro.cluster.loadbalancer import _BALANCERS
from repro.core.policies.base import _REGISTRY, BUILTIN_POLICIES, KeepAlivePolicy, create_policy
from repro.domains import declared_fields
from repro.faults import CapacityStep, FaultSpec, ServerDowntime
from repro.openwhisk.invoker import InvokerConfig
from repro.provisioning.controller import MISS_RATIO, ProportionalController
from repro.provisioning.cpu_autoscale import ReactiveCpuScaler
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.sim.config import RunConfig
from repro.sim.scheduler import simulate
from repro.sim.server import ServerConfig
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import churn_trace

NAN, INF = math.nan, math.inf
PROBES = {"float": (NAN, INF, -INF, -1.0, 0.0), "int": (NAN, INF, -INF, -1, 0, 1.5)}

#: Every probe value a knob accepts, ``(knob, repr(value))``, with the
#: reason it is in the knob's domain. Anything else the probe feeds is
#: refused.
ACCEPTED = {
    ("GD.frequency_weight", "0.0"): "Section 4.2's ablation: drops the Freq term",
    ("GD.cost_weight", "0.0"): "Section 4.2's ablation: drops the Cost term",
    ("GDS.frequency_weight", "0.0"): "GD's constructor; GDS's value term reads no weight",
    ("GDS.cost_weight", "0.0"): "GD's constructor; GDS's value term reads no weight",
    ("HIST.cov_threshold", "inf"): "every function is predictable",
    ("HIST.cov_threshold", "-inf"): "no function is predictable: the generic TTL",
    ("HIST.cov_threshold", "-1.0"): "no function is predictable (a CoV is >= 0)",
    ("HIST.cov_threshold", "0.0"): "only equal inter-arrival times are predictable",
    ("HIST.generic_ttl_s", "inf"): "an unpredictable function is never released",
    ("HIST.generic_ttl_s", "0.0"): "an unpredictable function is released at once",
    ("HIST.head_margin", "inf"): "no pre-warm window: the container is kept",
    ("HIST.head_margin", "0.0"): "the pre-warm window starts at the arrival",
    ("HIST.tail_margin", "inf"): "a predictable function's container is never released",
    ("HIST.tail_margin", "0.0"): "the keep-alive window closes at the pre-warm",
    ("HIST.min_samples", "0"): "a function is predictable from its first arrival",
    ("HIST.release_threshold_s", "inf"): "a container is never released to pre-warm later",
    ("HIST.release_threshold_s", "0.0"): "every head releases the container",
    ("TTL.ttl_s", "inf"): "a container never expires", ("RAND.seed", "0"): "the default seed",
    ("RunConfig.prewarm_effectiveness", "0.0"): "a pre-warm saves no init (Section 9)",
    ("RunConfig.warmup_s", "inf"): "nothing is measured",
    ("RunConfig.warmup_s", "0.0"): "the default: everything is measured",
    ("RunConfig.server_index", "0"): "the first server",
    ("FaultSpec.seed", "0"): "the default seed",
    ("FaultSpec.spawn_failure_rate", "0.0"): "no spawn failures (the default)",
    ("FaultSpec.crash_rate", "0.0"): "no crashes (the default)",
    ("FaultSpec.timeout_rate", "0.0"): "no timeouts (the default)",
    ("FaultSpec.server_mtbf_s", "0.0"): "no rate-based outages (the default)",
    ("FaultSpec.harvest_interval_s", "0.0"): "no rate-based harvesting (the default)",
    ("FaultSpec.spot_mtbf_s", "0.0"): "no spot evictions (the default)",
    ("FaultSpec.spot_notice_s", "0.0"): "a spot eviction without notice",
    ("FaultSpec.max_retries", "0"): "no retries: a failure is shed",
    ("FaultSpec.jitter", "0.0"): "backoff without jitter",
    ("FaultSpec.max_pending_retries", "0"): "no retry queue: a retry is shed",
    ("FaultSpec.per_function_retry_budget", "0"): "no retries for any function",
    ("ServerDowntime.server", "0"): "the first server",
    ("ServerDowntime.down_s", "0.0"): "down from the start",
    ("ServerDowntime.up_s", "inf"): "the server never comes back",
    ("CapacityStep.server", "0"): "the first server",
    ("CapacityStep.time_s", "0.0"): "a step at the start",
    ("ServerConfig.memory_mb", "inf"): "an unbounded pool, as simulate() takes",
    ("InvokerConfig.memory_mb", "inf"): "an unbounded pool, as simulate() takes",
    ("InvokerConfig.queue_capacity", "0"): "no buffer: what cannot start is dropped",
    ("InvokerConfig.request_timeout_s", "inf"): "a buffered request never times out",
    ("InvokerConfig.free_threshold_mb", "0.0"): "no batched eviction (the default)",
    ("InvokerConfig.eviction_event_latency_s", "0.0"): "an eviction round costs no time",
    ("InvokerConfig.eviction_per_container_s", "0.0"): "a removal costs no time",
    ("InvokerConfig.stem_cell_count", "0"): "no stem cells (the default)",
    ("TraceFunction.warm_time_s", "0.0"): "a function that returns at once",
    ("TraceFunction.cold_time_s", "0.0"): "no init cost (with a zero warm time)",
    ("TraceFunction.tenant_id", "0"): "untenanted (the default)",
    ("ProportionalController.deadband", "0.0"): "every error resizes",
    ("ReactiveCpuScaler.scale_down_hold_s", "0.0"): "scale down at the first period below demand",
    ("ElasticClusterSimulation.scale_down_hold_s", "0.0"): "the scaler's: no hold",
    ("ElasticClusterSimulation.server_memory_mb", "inf"): "unbounded pools, as simulate() takes",
    ("ElasticClusterSimulation.seed", "0"): "the default seed",
    ("RandomBalancer.seed", "0"): "the default seed",
    ("HashAffinityBalancer.seed", "0"): "the default seed",
    ("AffinityWithSpilloverBalancer.seed", "0"): "the default seed",
    ("AffinityWithSpilloverBalancer.spillover_factor", "inf"): "never spills: pure affinity",
    ("--memory-gb", "inf"): "an unbounded pool, as simulate() takes",
    ("--server-memory-gb", "inf"): "an unbounded server, as ServerConfig takes",
    ("--warmup-s", "inf"): "RunConfig.warmup_s: nothing is measured",
    ("--warmup-s", "0.0"): "RunConfig.warmup_s: everything is measured",
    ("--tick-interval-s", "0.0"): "no background expiry tick",
    ("--duration-s", "inf"): "no wall-clock budget", ("--workers", "0"): "one worker per CPU",
    ("--seed", "0"): "the default seed", ("--top", "0"): "no churn table rows",
    ("--port", "0"): "an ephemeral port", ("--limit", "0"): "replay no invocation",
    ("--tenant-quota", "0.0"): "a tenant with no memory of its own",
    ("--tenant-weights", "0.0"): "a tenant whose containers are worth nothing",
}


def signature_knobs(cls):
    """``(name, "int" or "float")`` of the numeric parameters of ``cls``."""
    parameters = inspect.signature(cls.__init__).parameters.values()
    return [(p.name, p.annotation) for p in parameters if p.annotation in PROBES]


#: The config classes, each with a valid construction to probe a field over.
CONFIGS = {
    RunConfig: {},
    FaultSpec: {},
    ServerDowntime: {"server": 0, "down_s": 10.0, "up_s": 20.0},
    CapacityStep: {"server": 0, "time_s": 10.0, "capacity_frac": 0.5},
    ServerConfig: {"memory_mb": 1024.0},
    InvokerConfig: {},
    TraceFunction: {"name": "f", "memory_mb": 128.0, "warm_time_s": 0.0, "cold_time_s": 1.0},
}
TRACE = churn_trace(num_functions=30, duration_s=600.0, seed=3)
#: The classes probed at construction only (no replay reads them), each
#: with a valid construction and a ``domains`` table over its signature.
CONSTRUCTED = {
    ProportionalController: {"curve": HitRatioCurve.from_distances([100.0, 200.0]),
                             "target_miss_speed": 1.0, "initial_size_mb": 200.0},
    ElasticClusterSimulation: {"trace": TRACE},
    ReactiveCpuScaler: {},
    **{balancer: {"num_servers": 4} for balancer in _BALANCERS.values()},
}


def knobs():
    """``(knob id, domains, name, kind, build)`` of every numeric knob;
    ``build(**{name: value})`` constructs its owner with the value."""
    for policy, module in sorted(BUILTIN_POLICIES.items()):
        import_module(f"repro.core.policies.{module}")
        cls = _REGISTRY[policy]
        for name, kind in signature_knobs(cls):
            yield f"{policy}.{name}", cls.domains, name, kind, partial(create_policy, policy)
    for cls, base in CONFIGS.items():
        declared, build = dict(declared_fields(cls)), partial(cls, **base)
        for field in dataclasses.fields(cls):
            if field.type in PROBES:
                yield f"{cls.__name__}.{field.name}", declared, field.name, field.type, build
    for cls, base in CONSTRUCTED.items():
        for name, kind in signature_knobs(cls):
            yield f"{cls.__name__}.{name}", cls.domains, name, kind, partial(cls, **base)


KNOBS = list(knobs())
CASES = [
    pytest.param(knob, build, domains.get(name), name, kind, value, id=f"{knob}={value!r}")
    for knob, domains, name, kind, build in KNOBS
    for value in PROBES[kind]
]
#: Enables every kind of fault, so each probed field has something to act on.
FAULTS = {
    "seed": 1, "spawn_failure_rate": 0.05, "crash_rate": 0.05, "timeout_rate": 0.05,
    "server_mtbf_s": 200.0, "server_recovery_s": 20.0, "harvest_interval_s": 60.0,
    "spot_mtbf_s": 300.0, "max_retries": 2,
}


def replay(owner, name, value):
    """``(trace, policy, simulate() keywords)`` of a run that reads the
    accepted ``value`` of ``owner``'s knob ``name``; ``None`` for a
    class no replay reads (the invoker's, a server's, :data:`CONSTRUCTED`)."""
    if isinstance(owner, KeepAlivePolicy):
        return TRACE, owner.name, {name: value}
    if isinstance(owner, RunConfig):
        return TRACE, "GD", {"config": owner}
    if isinstance(owner, FaultSpec):
        return TRACE, "GD", {"fault_spec": FaultSpec(**{**FAULTS, name: value})}
    if isinstance(owner, ServerDowntime):
        return TRACE, "GD", {"fault_spec": FaultSpec(**FAULTS, server_downtimes=[owner])}
    if isinstance(owner, CapacityStep):
        return TRACE, "GD", {"fault_spec": FaultSpec(**FAULTS, capacity_steps=[owner])}
    if isinstance(owner, TraceFunction):
        other = TraceFunction("g", 256.0, 0.5, 2.0)
        names = [owner.name if i % 3 else "g" for i in range(60)]
        arrivals = [Invocation(7.0 * i, n) for i, n in enumerate(names)]
        return Trace([owner, other], arrivals), "GD", {}
    return None


def assert_kernel_equals_loop(owner, name, value):
    """The run that reads the value, at 0.5x and 1.5x its registry, has
    the same ``summary()`` on the arrival loop and by default (compared
    as JSON, where a NaN ratio equals itself)."""
    run = replay(owner, name, value)
    if run is None:
        return
    trace, policy, kwargs = run
    registry_mb = sum(f.memory_mb for f in trace.functions.values())
    for share in (0.5, 1.5):
        loop, default = (
            json.dumps(simulate(trace, policy, share * registry_mb, **kwargs, **engine).metrics
                       .summary())
            for engine in ({"engine": "object"}, {})
        )
        assert default == loop, (policy, share, kwargs)


@pytest.mark.usefixtures("unsanitized")
@pytest.mark.parametrize("knob, build, domain, name, kind, value", CASES)
def test_a_value_is_refused_unless_declared_and_listed(knob, build, domain, name, kind, value):
    assert domain is not None, f"{knob} ({kind}) declares no domain"
    assert domain.integer == (kind == "int"), f"{knob} is {kind}, its domain is {domain.phrase}"
    listed = (knob, repr(value)) in ACCEPTED
    if not domain.holds(value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be {domain.phrase}, got")):
            build(**{name: value})
        assert not listed, f"{knob}={value!r} is listed as accepted but refused"
        return
    assert listed, f"{knob}={value!r} is accepted: list it in ACCEPTED with its reason"
    assert_kernel_equals_loop(build(**{name: value}), name, value)


def test_every_listed_value_is_probed():
    probed = {(knob, repr(value)) for knob, __, ___, kind, ____ in KNOBS for value in PROBES[kind]}
    flags = {(flag, repr(value)) for flag, kind in FLAG_KINDS.items() for value in PROBES[kind]}
    assert set(ACCEPTED) <= probed | flags


#: What each subcommand needs on its command line besides the probed flag.
REQUIRED = {
    "simulate": ["--trace", "t"], "sweep": ["--trace", "t", "--memory-gb", "1"],
    "trace": ["--trace", "t", "--out", "e.jsonl"], "serve": ["--trace", "t"],
    "provision": ["--trace", "t"], "autoscale": ["--trace", "t"], "plan": ["--trace", "t"],
    "characterize": ["--trace", "t"], "balancers": ["--trace", "t"], "loadtest": [],
    "generate": ["--out", "t.json"], "trace-report": ["e.jsonl"], "loadgen": ["--trace", "t"],
    "check": [],
}
PARSER = build_parser()


def subcommands():
    (sub,) = [a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices.items()


def numeric_flags():
    """``(subcommand, action, domain)`` of every flag that parses a number."""
    for command, parser in subcommands():
        for action in parser._actions:
            domain = getattr(action, "domain", None) or getattr(action.type, "domain", None)
            assert action.type not in (int, float), (
                f"{command} {action.option_strings}: a numeric flag with no domain"
            )
            if domain is not None:
                yield command, action, domain


FLAGS = list(numeric_flags())
FLAG_KINDS = {
    action.option_strings[0]: "int" if domain.integer else "float"
    for __, action, domain in FLAGS
}


@pytest.mark.parametrize("command, action, domain, value", [
    pytest.param(command, action, domain, value,
                 id=f"{command} {action.option_strings[0]}={value!r}")
    for command, action, domain in FLAGS
    for value in PROBES["int" if domain.integer else "float"]
])
def test_a_flag_exits_2_unless_its_domain_holds(command, action, domain, value, capsys):
    flag = action.option_strings[0]
    text = repr(value) if isinstance(value, float) else str(value)
    if isinstance(action, _Pairs):
        pair = ("1" if action.key is int else "f") + "=" + text
        argv = [command, *REQUIRED[command], flag, pair]
    else:
        argv = [command, *REQUIRED[command], f"{flag}={text}"]
    listed = (flag, repr(value)) in ACCEPTED
    if not domain.holds(value):
        with pytest.raises(SystemExit) as exited:
            PARSER.parse_args(argv)
        assert exited.value.code == 2
        assert f"{domain.phrase}, got" in capsys.readouterr().err
        assert not listed, f"{flag}={value!r} is listed as accepted but refused"
        return
    assert listed, f"{flag}={value!r} is accepted: list it in ACCEPTED with its reason"
    parsed = getattr(PARSER.parse_args(argv), action.dest)
    if isinstance(action, _Pairs):
        parsed = list(parsed.values())
    assert parsed in (value, [value])


#: A flag and the domain of the knob it fills: the same words.
FILLS = [
    ("simulate", "--warmup-s", dict(declared_fields(RunConfig))["warmup_s"]),
    ("loadtest", "--memory-gb", dict(declared_fields(InvokerConfig))["memory_mb"]),
    ("loadtest", "--cores", dict(declared_fields(InvokerConfig))["cpu_cores"]),
    ("balancers", "--server-memory-gb", dict(declared_fields(ServerConfig))["memory_mb"]),
    ("autoscale", "--period-s", ProportionalController.domains["control_period_s"]),
    ("autoscale", "--miss-ratio", MISS_RATIO),
]


@pytest.mark.parametrize("command, flag, declared", FILLS, ids=[f[1] for f in FILLS])
def test_a_flag_takes_the_domain_of_the_knob_it_fills(command, flag, declared):
    (domain,) = [d for c, a, d in FLAGS if c == command and flag in a.option_strings]
    assert domain.phrase == declared.phrase
