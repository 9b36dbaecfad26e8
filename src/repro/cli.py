"""Command-line interface to the FaasCache reproduction.

Gives downstream users the common workflows without writing Python::

    repro-faascache generate --functions 1000 --out day.json
    repro-faascache simulate --trace day.json --policy GD --memory-gb 16
    repro-faascache sweep --trace day.json --memory-gb 8 16 32
    repro-faascache provision --trace day.json --target-hit-ratio 0.9
    repro-faascache autoscale --trace day.json --miss-ratio 0.05
    repro-faascache loadtest --workload cyclic
    repro-faascache trace --trace day.json --out events.jsonl
    repro-faascache trace-report events.jsonl
    repro-faascache serve --trace day.json --policy GD --port 8077
    repro-faascache loadgen --trace day.json --port 8077 --check-consistency
    repro-faascache check src tests

``--trace`` accepts a JSON trace file (see :mod:`repro.traces.io`) or
a built-in workload name (the keys of :data:`_WORKLOADS`).

The run subcommands ``simulate``, ``sweep``, ``trace`` and ``serve``
share one declaration of each run flag (:func:`_add_run_flags`):
``--trace``, ``--policy``, ``--memory-gb``, ``--trace-out``,
``--metrics-out``, the multi-tenancy flags (``--tenant-mode``,
``--tenant-quota TENANT=MB``, ``--tenant-weights TENANT=WEIGHT`` — see
``docs/multi-tenancy.md``) and, except on ``serve``, ``--fault-spec
SPEC.json`` (seeded, deterministic fault injection — see
``docs/robustness.md``) and ``--sanitize`` (the runtime invariant
sanitizer, as ``REPRO_SANITIZE=1`` — see ``docs/static-analysis.md``).
A flag that feeds :class:`~repro.sim.config.RunConfig` parses into the
field of its name: a run's config is ``RunConfig.split(vars(args))``.

``check`` (the determinism linter, rules FC001, FC002, FC003, FC007)
hands the rest of the command line to its own module's parser.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.analysis.reporting import format_series_table, format_table
from repro.domains import Domain, int_at_least, nonneg, positive

if TYPE_CHECKING:
    from repro.traces.model import Trace

__all__ = ["main", "build_parser"]

#: The built-in workloads ``--trace`` takes by name, each with its
#: :mod:`repro.traces.synth` builder.
_WORKLOADS = {
    "cyclic": "cyclic_trace",
    "skewed-size": "skewed_size_trace",
    "skewed-frequency": "skewed_frequency_trace",
    "multitenant": "multitenant_trace",
    "noisy-neighbor": "noisy_neighbor_trace",
    "harvest-day": "harvest_day_trace",
}

#: Subcommands whose every flag belongs to another module's parser:
#: :func:`main` hands that module's ``main`` the rest of the command line.
_FORWARDED = {"check": "repro.checks.linter"}


def _load_trace(spec: str) -> Trace:
    """A built-in workload by name, else the JSON trace file ``spec``
    (a usage error if it is not one)."""
    if spec in _WORKLOADS:
        from repro.traces import synth

        return getattr(synth, _WORKLOADS[spec])()
    from repro.traces.io import load_trace_json

    try:
        return load_trace_json(spec)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _number(domain: Domain) -> Callable[[str], float]:
    """The ``type=`` of a numeric flag: a number in ``domain``, the
    domain of the knob the flag fills, else a usage error."""

    def parse(text: str) -> float:
        try:
            value = (int if domain.integer else float)(text)
        except ValueError:
            value = math.nan
        if not domain.holds(value):
            raise argparse.ArgumentTypeError(f"expected {domain.phrase}, got {text!r}")
        return value

    parse.domain = domain
    return parse


def _fault_spec(path: str):
    """``--fault-spec``: the :class:`~repro.faults.FaultSpec` in ``path``."""
    from repro.faults import load_fault_spec

    try:
        return load_fault_spec(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _Pairs(argparse.Action):
    """``NAME=VALUE ...`` into a dict (``None`` if empty): ``key``
    converts each name, and each value is a number in ``domain``, the
    domain of the values of the field the flag fills."""

    def __init__(self, *args, key: type, domain: Domain, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.key, self.domain = key, domain

    def __call__(self, parser, namespace, specs, option_string=None) -> None:
        pairs = {}
        for spec in specs:
            name, __, text = spec.partition("=")
            try:
                pairs[self.key(name)] = _number(self.domain)(text)
            except (ValueError, argparse.ArgumentTypeError):
                name = ""
            if not name:
                parser.error(
                    f"{option_string}: expected {self.metavar} with the value "
                    f"{self.domain.phrase}, got {spec!r}"
                )
        setattr(namespace, self.dest, pairs or None)


def _apply_sanitize(args: argparse.Namespace) -> None:
    """Honour a ``--sanitize`` flag by exporting ``REPRO_SANITIZE=1``.

    Exported (rather than toggled in-process) so parallel sweep worker
    processes inherit the setting.
    """
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"


def _run_inputs(args: argparse.Namespace, policies: List[str]):
    """What a run subcommand starts from: ``(trace, config,
    policy_kwargs)``, the config from the flags named after its fields.

    Before the workload loads, ``--sanitize`` is exported and
    ``--tenant-weights`` checked against ``policies``: a usage error
    (:class:`argparse.ArgumentTypeError`) names the first that takes no
    weights; an unknown policy name is left to fail as its run does.
    """
    from repro.sim.config import RunConfig

    _apply_sanitize(args)
    kwargs = {"tenant_weights": args.tenant_weights} if args.tenant_weights else {}
    if kwargs:
        from repro.core.policies.base import create_policy

        for name in policies:
            try:
                create_policy(name, **kwargs)
            except TypeError:
                raise argparse.ArgumentTypeError(
                    f"--tenant-weights: policy {name} takes no tenant weights"
                )
            except ValueError:
                pass
    return _load_trace(args.trace), RunConfig.split(vars(args))[0], kwargs


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
    from repro.traces.io import save_trace_json
    from repro.traces.preprocess import dataset_to_trace
    from repro.traces.sampling import (
        random_sample,
        rare_sample,
        representative_sample,
    )

    config = AzureGeneratorConfig(
        num_functions=args.functions,
        max_daily_invocations=args.max_daily_invocations,
    )
    dataset = generate_azure_dataset(config, seed=args.seed)
    samplers = {
        "full": None,
        "rare": rare_sample,
        "representative": representative_sample,
        "random": random_sample,
    }
    sampler = samplers[args.sample]
    if sampler is None:
        trace = dataset_to_trace(dataset, name="full-day")
    else:
        ids = sampler(dataset, n=args.sample_size, seed=args.seed)
        trace = dataset_to_trace(dataset, ids, name=args.sample)
    save_trace_json(trace, args.out)
    print(
        f"wrote {args.out}: {trace.num_functions} functions, "
        f"{len(trace)} invocations, {trace.duration_s / 3600:.1f} h"
    )
    return 0


def _make_tracer(
    trace_out: Optional[str],
    metrics_out: Optional[str],
    strict: bool = False,
):
    """Build a tracer over the sinks the CLI flags ask for.

    Returns ``(tracer, close)``; both are no-ops (``None`` and a
    do-nothing callable) when no output was requested, so callers can
    thread the result through unconditionally.
    """
    from repro.obs.sinks import JsonlSink, MultiSink, PrometheusTextfileSink
    from repro.obs.tracer import Tracer

    sinks = []
    if trace_out:
        sinks.append(JsonlSink(trace_out))
    if metrics_out:
        sinks.append(PrometheusTextfileSink(metrics_out))
    if not sinks:
        return None, lambda: None
    sink = sinks[0] if len(sinks) == 1 else MultiSink(*sinks)
    return Tracer(sink, strict=strict), sink.close


def _replay(args: argparse.Namespace, strict: bool = False):
    """The one run of ``simulate`` and ``trace``: the workload replayed
    under the flags' config, policy keywords and tracer sinks; returns
    ``(trace, result)``."""
    from repro.sim.scheduler import simulate

    trace, config, policy_kwargs = _run_inputs(args, [args.policy])
    tracer, close_tracer = _make_tracer(args.trace_out, args.metrics_out, strict)
    try:
        result = simulate(
            trace,
            args.policy,
            args.memory_gb * 1024.0,
            config,
            tracer=tracer,
            **policy_kwargs,
        )
    finally:
        close_tracer()
    return trace, result


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace, result = _replay(args)
    if args.trace_out:
        print(f"wrote event trace {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        print(f"wrote metrics textfile {args.metrics_out}", file=sys.stderr)
    rows = [[key, value] for key, value in result.metrics.summary().items()]
    for key, value in result.metrics.throughput_summary().items():
        rows.append([key, round(value, 3)])
    print(
        format_table(
            ["Metric", "Value"],
            rows,
            title=(
                f"{args.policy.upper()} on {trace.name!r} "
                f"at {args.memory_gb:g} GB"
            ),
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.policies.base import PAPER_POLICIES
    from repro.sim.sweep import run_sweep

    policies = args.policies or list(PAPER_POLICIES)
    trace, config, policy_kwargs = _run_inputs(args, policies)

    def report(done: int, total: int, policy: str, memory_gb: float) -> None:
        print(f"[{done}/{total}] {policy} @ {memory_gb:g} GB", file=sys.stderr)

    # Omitted or 1 runs the cells in this process; 0 is one per CPU.
    sweep = run_sweep(
        trace,
        args.memory_gb,
        policies=policies,
        max_workers=1 if args.workers is None else args.workers or None,
        progress=report if not args.quiet else None,
        trace_dir=args.trace_dir,
        config=config,
        policy_kwargs=policy_kwargs,
    )
    for cell in sweep.failed_cells:
        print(
            f"warning: cell {cell.policy} @ {cell.memory_gb:g} GB "
            f"failed: {cell.error}",
            file=sys.stderr,
        )
    if args.trace_dir:
        print(
            f"wrote per-cell event traces under {args.trace_dir}",
            file=sys.stderr,
        )
    if args.metrics_out:
        from repro.obs.sinks import write_counters_textfile

        write_counters_textfile(
            args.metrics_out,
            [
                (
                    {"policy": p.policy, "memory_gb": f"{p.memory_gb:g}"},
                    p.counters,
                )
                for p in sweep.points
            ],
        )
        print(f"wrote metrics textfile {args.metrics_out}", file=sys.stderr)
    metric = args.metric
    sizes = sweep.memory_sizes()
    # Align each policy's column to the full memory grid: failed cells
    # leave holes (rendered as nan) and a fully-failed policy drops
    # out of the table instead of crashing the formatter.
    series = {}
    for policy in policies:
        values = dict(sweep.series(policy, metric))
        if values:
            series[policy] = [values.get(gb, float("nan")) for gb in sizes]
    print(
        format_series_table(
            "Mem (GB)",
            sizes,
            series,
            title=f"{metric} on {trace.name!r}",
        )
    )
    if sweep.points:
        total_wall = sum(p.wall_time_s for p in sweep.points)
        total_inv = sum(
            p.wall_time_s * p.invocations_per_s for p in sweep.points
        )
        rate = total_inv / total_wall if total_wall > 0 else 0.0
        print(
            f"{len(sweep.points)} cells in {total_wall:.2f} s simulator "
            f"time ({rate:,.0f} invocations/s)"
        )
    if sweep.failed_cells:
        print(f"{len(sweep.failed_cells)} cells FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_provision(args: argparse.Namespace) -> int:
    from repro.provisioning.static_provisioning import (
        StaticProvisioner,
        curve_from_trace,
    )

    trace = _load_trace(args.trace)
    curve = curve_from_trace(trace)
    print(
        f"working set {curve.working_set_mb / 1024:.2f} GB, "
        f"max hit ratio {curve.max_hit_ratio:.1%}"
    )
    rows = []
    for strategy in ("target-hit-ratio", "inflection"):
        provisioner = StaticProvisioner(
            curve,
            strategy=strategy,
            target_hit_ratio=args.target_hit_ratio,
        )
        decision = provisioner.decide()
        rows.append(
            [strategy, decision.memory_gb, decision.predicted_hit_ratio]
        )
    print(
        format_table(
            ["Strategy", "Size (GB)", "Predicted hit ratio"],
            rows,
            title="Static provisioning decisions",
        )
    )
    return 0


def _cmd_autoscale(args: argparse.Namespace) -> int:
    from repro.provisioning.autoscale import AutoscaledSimulation
    from repro.provisioning.controller import ProportionalController
    from repro.provisioning.static_provisioning import curve_from_trace

    trace = _load_trace(args.trace)
    curve = curve_from_trace(trace)
    static_mb = curve.required_size(min(0.95, curve.max_hit_ratio))
    controller = ProportionalController.from_miss_ratio_target(
        curve,
        desired_miss_ratio=args.miss_ratio,
        mean_arrival_rate=trace.arrival_rate(),
        initial_size_mb=static_mb,
        max_size_mb=static_mb,
        control_period_s=args.period_s,
    )
    result = AutoscaledSimulation(trace, controller, policy=args.policy).run()
    counters = result.metrics.counters()
    print(
        format_table(
            ["Static (GB)", "Mean dynamic (GB)", "Saving", "Resizes",
             "Shrinks", "Grows", "Deflations"],
            [[
                static_mb / 1024.0,
                result.mean_cache_size_mb / 1024.0,
                f"{result.savings_vs_static(static_mb):.1%}",
                sum(1 for d in result.decisions if d.resized),
                counters["capacity_shrinks"],
                counters["capacity_grows"],
                counters["deflations"],
            ]],
            title=f"Autoscaling {trace.name!r}",
        )
    )
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.openwhisk.invoker import InvokerConfig
    from repro.openwhisk.loadgen import compare_keepalive_systems

    trace = _load_trace(args.workload)
    config = InvokerConfig(
        memory_mb=args.memory_gb * 1024.0,
        cpu_cores=args.cores,
    )
    cmp = compare_keepalive_systems(trace, config)
    rows = []
    for label, result in (
        ("OpenWhisk", cmp.openwhisk),
        ("FaasCache", cmp.faascache),
    ):
        rows.append(
            [
                label,
                result.warm_starts,
                result.cold_starts,
                result.dropped,
                result.mean_latency_s(),
            ]
        )
    print(
        format_table(
            ["System", "Warm", "Cold", "Dropped", "Mean latency (s)"],
            rows,
            title=f"Load test on {trace.name!r}",
        )
    )
    print(
        f"warm-start gain x{cmp.warm_start_gain:.2f}, "
        f"latency improvement x{cmp.latency_improvement:.2f}"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.provisioning.report import (
        build_capacity_plan,
        render_capacity_plan,
    )

    trace = _load_trace(args.trace)
    plan = build_capacity_plan(trace)
    text = render_capacity_plan(plan)
    if args.out:
        import pathlib

        pathlib.Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.workload import profile_trace

    trace = _load_trace(args.trace)
    profile = profile_trace(trace)
    print(
        format_table(
            ["Statistic", "Value"],
            profile.rows(),
            title=f"Workload characterization: {trace.name!r}",
        )
    )
    return 0


def _cmd_balancers(args: argparse.Namespace) -> int:
    from repro.cluster.simulation import ClusterSimulator

    trace = _load_trace(args.trace)
    rows = []
    for balancer in (
        "random",
        "round-robin",
        "least-loaded",
        "hash-affinity",
        "affinity-spillover",
        "min-worker-set",
        "join-shortest-queue",
    ):
        result = ClusterSimulator(
            trace,
            balancer,
            num_servers=args.servers,
            server_memory_mb=args.server_memory_gb * 1024.0,
            policy=args.policy,
        ).run()
        rows.append(
            [
                balancer,
                result.cold_start_pct,
                result.exec_time_increase_pct,
                result.dropped,
                result.load_imbalance(),
            ]
        )
    print(
        format_table(
            ["Balancer", "Cold %", "Exec incr. %", "Dropped", "Imbalance"],
            rows,
            title=(
                f"{args.servers} x {args.server_memory_gb:g} GB servers, "
                f"{args.policy.upper()} keep-alive"
            ),
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Replay one simulation with event tracing on, writing JSONL."""
    import json

    trace, result = _replay(args, strict=args.strict)
    metrics = result.metrics
    print(
        f"wrote {args.trace_out}: {metrics.total_requests} invocations traced "
        f"({args.policy.upper()} @ {args.memory_gb:g} GB on {trace.name!r})"
    )
    if args.metrics_out:
        print(f"wrote metrics textfile {args.metrics_out}", file=sys.stderr)
    if args.summary_json:
        summary = {
            "trace": args.trace,
            "policy": args.policy.upper(),
            "memory_gb": args.memory_gb,
            "counters": metrics.counters(),
            "summary": metrics.summary(),
        }
        tenant_counters = metrics.tenant_counters()
        if tenant_counters:
            # String keys so the snapshot JSON-round-trips unchanged;
            # omitted entirely on tenant-less runs so their summaries
            # stay byte-identical to pre-tenancy output.
            summary["tenant_counters"] = {
                str(tenant_id): counts
                for tenant_id, counts in tenant_counters.items()
            }
        import pathlib

        pathlib.Path(args.summary_json).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote summary {args.summary_json}", file=sys.stderr)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    """Summarize (and optionally cross-check) a JSONL event trace."""
    import json

    from repro.obs.report import load_report

    report = load_report(args.trace_file)
    if args.function:
        try:
            timeline = report.timeline(args.function)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        print(f"timeline for {args.function!r} ({len(timeline)} events):")
        for time_s, event_type in timeline.events:
            print(f"  {time_s:>12.3f}  {event_type}")
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(timeline.counts().items())
        )
        print(f"  totals: {counts}")
    else:
        print(report.render(top_n=args.top))
    if args.check:
        with open(args.check) as handle:
            expected = json.load(handle)
        # Accept both a bare counter dict and the `trace` subcommand's
        # summary JSON (counters nested under "counters").
        counters = expected.get("counters", expected)
        mismatches = report.check_counters(counters)
        # Summaries from tenant-aware runs also pin the per-tenant
        # counters (JSON string keys -> int tenant ids).
        expected_tenants = (
            expected.get("tenant_counters")
            if isinstance(expected.get("tenant_counters"), dict)
            else None
        )
        if expected_tenants is not None:
            mismatches += report.check_tenant_counters(
                {
                    int(tenant_id): counts
                    for tenant_id, counts in expected_tenants.items()
                }
            )
        if mismatches:
            print(
                f"TRACE/METRICS MISMATCH ({len(mismatches)}):",
                file=sys.stderr,
            )
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        checked = len(counters) + (
            len(expected_tenants) if expected_tenants is not None else 0
        )
        print(
            f"trace agrees with {args.check} on all "
            f"{checked} counters"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the live HTTP serving mode (docs/live-serving.md)."""
    import signal

    from repro.core.clock import SimClock
    from repro.live.server import LiveHTTPServer
    from repro.live.service import LivePoolService

    trace, config, policy_kwargs = _run_inputs(args, [args.policy])
    tracer, close_tracer = _make_tracer(args.trace_out, args.metrics_out)
    service = LivePoolService(
        trace,
        args.policy,
        args.memory_gb * 1024.0,
        clock=SimClock() if args.clock == "sim" else None,
        tracer=tracer,
        config=config,
        **policy_kwargs,
    )
    server = LiveHTTPServer(
        service,
        host=args.host,
        port=args.port,
        tick_interval_s=args.tick_interval_s,
    )

    def announce(started: LiveHTTPServer) -> None:
        print(
            f"serving {args.policy.upper()} on {trace.name!r} "
            f"({len(service.function_names())} functions, "
            f"{args.memory_gb:g} GB, clock={args.clock}) at "
            f"http://{started.host}:{started.port}",
            file=sys.stderr,
            flush=True,
        )

    # kill <pid> (systemd, Docker, Kubernetes) stops it as Ctrl-C does.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever(on_ready=announce)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        close_tracer()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a trace against a live server and gate the results."""
    import json

    from repro.live.loadgen import fetch_stats, run_loadgen

    trace = _load_trace(args.trace)
    report = run_loadgen(
        trace,
        args.host,
        args.port,
        mode=args.mode,
        connections=args.connections,
        window=args.window,
        speed=args.speed,
        duration_s=args.duration_s,
        limit=args.limit,
        send_now=(args.mode == "pipeline" and not args.real_clock),
    )
    summary = report.summary()
    rows = [
        ["sent", report.sent],
        ["completed", report.completed],
        ["achieved qps", round(report.achieved_qps, 1)],
        ["wall s", round(report.wall_s, 3)],
    ]
    for outcome, count in sorted(report.outcomes.items()):
        rows.append([f"outcome {outcome}", count])
    for code, count in sorted(report.statuses.items()):
        rows.append([f"http {code}", count])
    for side in ("client_latency", "decision_latency"):
        for pct in ("p50_us", "p99_us", "p999_us"):
            rows.append(
                [f"{side} {pct}", round(summary[side][pct], 1)]
            )
    print(
        format_table(
            ["Metric", "Value"],
            rows,
            title=f"loadgen {args.mode} vs {args.host}:{args.port}",
        )
    )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", file=sys.stderr)

    failures = []
    if report.errors_5xx:
        failures.append(f"{report.errors_5xx} responses were 5xx")
        for line in report.errors[:5]:
            failures.append(f"  {line}")
    if args.check_consistency:
        stats = fetch_stats(args.host, args.port)
        server_decisions = stats.get("decisions", {})
        if server_decisions != report.outcomes:
            failures.append(
                "counter mismatch: server /stats decisions "
                f"{server_decisions} != client outcomes {report.outcomes} "
                "(is another client hitting this server?)"
            )
        else:
            print(
                f"server /stats agrees with the client on all "
                f"{sum(report.outcomes.values())} decisions"
            )
    if args.max_p99_ms is not None:
        ceiling_ms = args.max_p99_ms
        p99_ms = report.decision_latency.percentile(0.99) * 1e3
        if p99_ms > ceiling_ms:
            failures.append(
                f"decision p99 {p99_ms:.2f} ms exceeds the "
                f"{ceiling_ms:.2f} ms ceiling"
            )
        else:
            print(
                f"decision p99 {p99_ms:.3f} ms within the "
                f"{ceiling_ms:.2f} ms ceiling"
            )
    if failures:
        print("LOADGEN GATE FAILURES:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_workload_flags(parser: argparse.ArgumentParser, policy: bool = True) -> None:
    """``--trace`` and, with ``policy``, ``--policy``."""
    parser.add_argument(
        "--trace",
        required=True,
        help=f"JSON trace file or built-in workload ({', '.join(_WORKLOADS)})",
    )
    if policy:
        parser.add_argument(
            "--policy", default="GD", help="keep-alive policy (GD, TTL, LRU, HIST, ...)"
        )


def _add_run_flags(
    parser: argparse.ArgumentParser,
    *,
    grid: bool = False,
    traced: bool = False,
    replay: bool = True,
) -> None:
    """Declare the flags of a run subcommand (simulate, sweep, trace,
    serve), each here once. A flag that feeds
    :class:`~repro.sim.config.RunConfig` parses into the field of its
    name.

    ``grid`` (sweep) takes ``--memory-gb`` as a required list of cells,
    with no ``--policy`` and no events file (``--trace-dir`` writes one
    per cell); ``traced`` (trace) makes the events file the required
    ``--out``; ``replay=False`` (serve) leaves out ``--fault-spec`` and
    ``--sanitize``.
    """
    _add_workload_flags(parser, policy=not grid)
    parser.add_argument(
        "--memory-gb",
        type=_number(positive.or_inf),
        help="pool size in GB" + (", one cell per size" if grid else ""),
        **({"nargs": "+", "required": True} if grid else {"default": 16.0}),
    )
    if not grid:
        parser.add_argument(
            "--out" if traced else "--trace-out",
            dest="trace_out",
            required=traced,
            metavar="EVENTS.jsonl",
            help="record lifecycle events to this JSONL file",
        )
    parser.add_argument(
        "--metrics-out",
        metavar="METRICS.prom",
        help=(
            "write lifecycle counters to this Prometheus textfile (sweep: "
            "one series per cell, labelled by policy and memory size; "
            "serve: on shutdown)"
        ),
    )
    if replay:
        parser.add_argument(
            "--fault-spec",
            type=_fault_spec,
            metavar="SPEC.json",
            help=(
                "inject deterministic faults per this JSON spec, a sweep's "
                "cells each under its own coordinate-derived seed (see "
                "docs/robustness.md)"
            ),
        )
        parser.add_argument(
            "--sanitize",
            action="store_true",
            help=(
                "enable the runtime invariant sanitizer (same as "
                "REPRO_SANITIZE=1; see docs/static-analysis.md)"
            ),
        )
    parser.add_argument(
        "--tenant-mode",
        choices=("shared", "partitioned", "quota"),
        default="shared",
        help=(
            "pool tenancy mode: shared (legacy, default), partitioned "
            "(hard per-tenant slices), or quota (soft limits with "
            "preferential eviction)"
        ),
    )
    parser.add_argument(
        "--tenant-quota",
        dest="tenant_quotas",
        nargs="*",
        action=_Pairs,
        key=int,
        domain=nonneg,
        metavar="TENANT=MB",
        help=(
            "per-tenant memory limit (slice in partitioned mode, soft "
            "quota in quota mode); omit to split capacity equally over "
            "the trace's tenants"
        ),
    )
    parser.add_argument(
        "--tenant-weights",
        nargs="*",
        action=_Pairs,
        key=int,
        domain=nonneg,
        metavar="TENANT=WEIGHT",
        help="per-tenant multiplicative weight on the GD value term (GD-family policies)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-faascache",
        description="FaasCache reproduction: keep-alive simulation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic trace")
    generate.add_argument("--functions", type=_number(int_at_least(1)), default=1000)
    generate.add_argument(
        "--max-daily-invocations", type=_number(int_at_least(1)), default=20_000
    )
    generate.add_argument("--seed", type=_number(int_at_least(0)), default=0)
    generate.add_argument(
        "--sample",
        choices=("full", "rare", "representative", "random"),
        default="representative",
    )
    generate.add_argument("--sample-size", type=_number(int_at_least(1)), default=400)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    simulate = sub.add_parser(
        "simulate", help="run one keep-alive simulation",
        description="Run one keep-alive simulation. Three exact kernels answer what they can: "
        "the vectorized TTL kernel a run memory pressure cannot reach, the HIST kernel a "
        "pressure-free HIST, the GD kernel a plain GD at any size and under any --fault-spec; "
        "the per-arrival loop every other run (docs/simulation.md).",
    )
    _add_run_flags(simulate)
    simulate.add_argument(
        "--warmup-s",
        type=_number(nonneg.or_inf),
        default=0.0,
        help="exclude invocations before this time from the metrics",
    )
    simulate.add_argument(
        "--reserve",
        dest="reserved_concurrency",
        nargs="*",
        action=_Pairs,
        key=str,
        domain=int_at_least(1),
        metavar="NAME=COUNT",
        help="pin NAME=COUNT provisioned-concurrency containers",
    )
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="sweep policies across memory sizes")
    _add_run_flags(sweep, grid=True)
    sweep.add_argument("--policies", nargs="*")
    sweep.add_argument(
        "--metric",
        default="exec_time_increase_pct",
        choices=("exec_time_increase_pct", "cold_start_pct", "drop_ratio"),
    )
    sweep.add_argument(
        "--workers",
        type=_number(int_at_least(0)),
        default=None,
        help=(
            "fan the grid out over worker processes (0 = one per CPU); "
            "omit or pass 1 to run the cells in this process"
        ),
    )
    sweep.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
    )
    sweep.add_argument(
        "--trace-dir",
        metavar="DIR",
        help=(
            "record lifecycle events to one JSONL file per (policy, "
            "memory) cell under DIR; works with any --workers setting"
        ),
    )
    sweep.set_defaults(func=_cmd_sweep)

    provision = sub.add_parser("provision", help="static server sizing")
    _add_workload_flags(provision, policy=False)
    provision.add_argument(
        "--target-hit-ratio",
        type=_number(Domain(0.0, 1.0, low_open=True)),
        default=0.9,
    )
    provision.set_defaults(func=_cmd_provision)

    autoscale = sub.add_parser("autoscale", help="dynamic vertical scaling")
    _add_workload_flags(autoscale)
    autoscale.add_argument(
        "--miss-ratio",
        type=_number(Domain(0.0, 1.0, low_open=True, high_open=True)),
        default=0.05,
    )
    autoscale.add_argument(
        "--period-s",
        type=_number(positive),
        default=600.0,
    )
    autoscale.set_defaults(func=_cmd_autoscale)

    plan = sub.add_parser(
        "plan", help="full capacity-planning report (Markdown)"
    )
    _add_workload_flags(plan, policy=False)
    plan.add_argument("--out")
    plan.set_defaults(func=_cmd_plan)

    characterize = sub.add_parser(
        "characterize", help="Section 3 workload statistics"
    )
    _add_workload_flags(characterize, policy=False)
    characterize.set_defaults(func=_cmd_characterize)

    balancers = sub.add_parser(
        "balancers", help="compare cluster load-balancing policies"
    )
    _add_workload_flags(balancers)
    balancers.add_argument("--servers", type=_number(int_at_least(1)), default=4)
    balancers.add_argument("--server-memory-gb", type=_number(positive.or_inf), default=4.0)
    balancers.set_defaults(func=_cmd_balancers)

    loadtest = sub.add_parser(
        "loadtest", help="OpenWhisk vs FaasCache on the simulated invoker"
    )
    loadtest.add_argument("--workload", default="cyclic")
    loadtest.add_argument("--memory-gb", type=_number(positive.or_inf), default=1.625)
    loadtest.add_argument("--cores", type=_number(int_at_least(1)), default=8)
    loadtest.set_defaults(func=_cmd_loadtest)

    trace_cmd = sub.add_parser(
        "trace", help="run one simulation with event tracing enabled"
    )
    _add_run_flags(trace_cmd, traced=True)
    trace_cmd.add_argument(
        "--summary-json",
        metavar="SUMMARY.json",
        help=(
            "also write the run's aggregate counters/metrics as JSON "
            "(the file trace-report --check verifies against)"
        ),
    )
    trace_cmd.add_argument(
        "--strict",
        action="store_true",
        help="validate every event against the schema while emitting",
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    trace_report = sub.add_parser(
        "trace-report", help="summarize a recorded JSONL event trace"
    )
    trace_report.add_argument(
        "trace_file", metavar="EVENTS.jsonl", help="trace to analyze"
    )
    trace_report.add_argument(
        "--check",
        metavar="SUMMARY.json",
        help=(
            "verify the trace's rebuilt counters against a summary "
            "JSON (from `trace --summary-json`); exit 1 on mismatch"
        ),
    )
    trace_report.add_argument(
        "--function",
        metavar="NAME",
        help="print one function's event timeline instead of the report",
    )
    trace_report.add_argument(
        "--top",
        type=_number(int_at_least(0)),
        default=10,
        help="functions to list in the eviction-churn table",
    )
    trace_report.set_defaults(func=_cmd_trace_report)

    serve = sub.add_parser(
        "serve",
        help=(
            "serve live warm/cold admission decisions over HTTP with "
            "the same policy engine the simulator uses "
            "(docs/live-serving.md)"
        ),
    )
    _add_run_flags(serve, replay=False)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_number(int_at_least(0)), default=8077,
        help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--clock",
        choices=("real", "sim"),
        default="real",
        help=(
            "real: the server stamps arrivals from the wall clock "
            "(production mode); sim: clients drive time via each "
            "request's now_s (deterministic replay target)"
        ),
    )
    serve.add_argument(
        "--tick-interval-s",
        type=_number(nonneg),
        default=0.25,
        help="expiry-timer period; 0 disables the background tick",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help=(
            "replay a trace against a live server and report "
            "p50/p99/p999 decision latency plus achieved QPS"
        ),
    )
    _add_workload_flags(loadgen, policy=False)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=_number(int_at_least(0)), default=8077)
    loadgen.add_argument(
        "--mode",
        choices=("pipeline", "openloop"),
        default="pipeline",
        help=(
            "pipeline: ordered deterministic replay over one "
            "connection; openloop: arrivals scheduled on the wall "
            "clock across --connections sockets"
        ),
    )
    loadgen.add_argument(
        "--connections", type=_number(int_at_least(1)), default=4, help="open-loop sockets"
    )
    loadgen.add_argument(
        "--window", type=_number(int_at_least(1)), default=256, help="pipeline in-flight depth"
    )
    loadgen.add_argument(
        "--speed",
        type=_number(positive),
        default=3600.0,
        help=(
            "open-loop time compression: trace seconds replayed per "
            "wall second (3600 = one trace-hour per second)"
        ),
    )
    loadgen.add_argument(
        "--duration-s",
        type=_number(positive.or_inf),
        help="open-loop wall-clock budget; truncates the replay",
    )
    loadgen.add_argument(
        "--limit", type=_number(int_at_least(0)), help="replay only the first N invocations"
    )
    loadgen.add_argument(
        "--real-clock",
        action="store_true",
        help=(
            "do not send per-request now_s in pipeline mode (use "
            "against a --clock real server)"
        ),
    )
    loadgen.add_argument(
        "--check-consistency",
        action="store_true",
        help=(
            "fetch /stats afterwards and fail unless the server's "
            "decision counters equal the client's observed outcomes"
        ),
    )
    loadgen.add_argument(
        "--max-p99-ms",
        type=_number(positive),
        help="fail if the p99 in-engine decision latency exceeds this",
    )
    loadgen.add_argument(
        "--json-out", metavar="REPORT.json", help="write the summary JSON"
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    sub.add_parser(
        "check", add_help=False,
        help="run the determinism linter (rules FC001, FC002, FC003, FC007; "
        "docs/static-analysis.md)",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command in _FORWARDED:
        import importlib

        return importlib.import_module(_FORWARDED[args.command]).main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
