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
    repro-faascache bench --baseline benchmarks/BASELINE.json

``--trace`` accepts a JSON trace file (see :mod:`repro.traces.io`) or
one of the built-in workload names (``cyclic``, ``skewed-size``,
``skewed-frequency``, ``multitenant``, ``noisy-neighbor``,
``harvest-day``).

``simulate``, ``sweep``, and ``trace`` take the multi-tenancy flags
(``--tenant-mode``, ``--tenant-quota TENANT=MB``,
``--tenant-weights TENANT=WEIGHT`` — see ``docs/multi-tenancy.md``).

``simulate``, ``sweep``, and ``trace`` additionally accept
``--fault-spec SPEC.json`` for seeded, deterministic fault injection —
see ``docs/robustness.md`` for the spec format and the determinism
guarantees — and ``--sanitize`` to turn on the runtime invariant
sanitizer (equivalent to ``REPRO_SANITIZE=1``; see
``docs/static-analysis.md``). ``check`` runs the determinism &
invariant linter (rules FC001–FC008) over the given paths. ``bench``
runs the pinned-seed benchmark suite and gates timing plus metrics
fingerprints against a baseline report (``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.reporting import format_series_table, format_table

if TYPE_CHECKING:
    from repro.traces.model import Trace

__all__ = ["main", "build_parser"]

_BUILTIN_WORKLOADS = (
    "cyclic",
    "skewed-size",
    "skewed-frequency",
    "multitenant",
    "noisy-neighbor",
    "harvest-day",
)


def _load_trace(spec: str) -> Trace:
    if spec in _BUILTIN_WORKLOADS:
        from repro.traces import synth

        builders = {
            "cyclic": synth.cyclic_trace,
            "skewed-size": synth.skewed_size_trace,
            "skewed-frequency": synth.skewed_frequency_trace,
            "multitenant": synth.multitenant_trace,
            "noisy-neighbor": synth.noisy_neighbor_trace,
            "harvest-day": synth.harvest_day_trace,
        }
        return builders[spec]()
    from repro.traces.io import load_trace_json

    return load_trace_json(spec)


def _load_fault_spec(path: Optional[str]):
    """Load a ``--fault-spec`` JSON file, or ``None`` when not given."""
    if not path:
        return None
    from repro.faults import load_fault_spec

    try:
        return load_fault_spec(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--fault-spec {path}: {exc}")


def _apply_sanitize(args: argparse.Namespace) -> None:
    """Honour a ``--sanitize`` flag by exporting ``REPRO_SANITIZE=1``.

    Exported (rather than toggled in-process) so parallel sweep worker
    processes inherit the setting.
    """
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"


def _add_sanitize_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "enable the runtime invariant sanitizer (same as "
            "REPRO_SANITIZE=1; see docs/static-analysis.md)"
        ),
    )


def _add_tenant_flags(parser: argparse.ArgumentParser) -> None:
    """Multi-tenancy flags shared by simulate/sweep/trace
    (docs/multi-tenancy.md)."""
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
        nargs="*",
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
        metavar="TENANT=WEIGHT",
        help=(
            "per-tenant multiplicative weight on the GD value term "
            "(only meaningful with GD-family policies)"
        ),
    )


def _parse_tenant_map(
    specs: Optional[List[str]], flag: str
) -> Optional[dict]:
    """Parse repeated ``TENANT=NUMBER`` arguments into an int->float
    map (``None`` when the flag was not given)."""
    if not specs:
        return None
    parsed = {}
    for spec in specs:
        tenant, sep, value = spec.partition("=")
        if not sep or not tenant:
            raise SystemExit(f"{flag} expects TENANT=NUMBER, got {spec!r}")
        try:
            number = float(value)
            key = int(tenant)
        except ValueError:
            raise SystemExit(
                f"{flag}: tenant must be an integer and the value a "
                f"number, got {spec!r}"
            )
        # A NaN weight silently corrupts the GDSF monotone-priority
        # index (NaN compares false against everything) and a negative
        # quota/weight inverts eviction order, so both die here rather
        # than deep in a replay.
        if not math.isfinite(number) or number < 0.0:
            raise SystemExit(
                f"{flag}: value must be finite and >= 0, got {spec!r}"
            )
        parsed[key] = number
    return parsed


def _run_config(args: argparse.Namespace, **fields):
    """The RunConfig of a subcommand's ``--tenant-mode`` /
    ``--tenant-quota`` / (where it has one) ``--fault-spec`` flags."""
    from repro.sim.config import RunConfig

    return RunConfig(
        fault_spec=_load_fault_spec(getattr(args, "fault_spec", None)),
        tenant_mode=args.tenant_mode,
        tenant_quotas=_parse_tenant_map(args.tenant_quota, "--tenant-quota"),
        **fields,
    )


def _tenant_policy_kwargs(args: argparse.Namespace) -> dict:
    """Policy kwargs implied by ``--tenant-weights`` (empty when the
    flag is absent, so tenant-less invocations stay untouched)."""
    weights = _parse_tenant_map(args.tenant_weights, "--tenant-weights")
    return {"tenant_weights": weights} if weights else {}


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the pinned-seed benchmark suite (repro.bench)."""
    from repro.bench import main as bench_main

    forwarded: List[str] = ["--out", args.out]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    forwarded += ["--tolerance", str(args.tolerance)]
    forwarded += ["--repeats", str(args.repeats)]
    forwarded += ["--scale", str(args.scale)]
    for name in args.scenarios or []:
        forwarded += ["--scenario", name]
    return bench_main(forwarded)


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the determinism & invariant linter (repro.checks)."""
    from repro.checks.linter import main as check_main

    forwarded: List[str] = list(args.paths)
    if args.select:
        forwarded += ["--select", args.select]
    if args.include_fixtures:
        forwarded.append("--include-fixtures")
    if args.stats:
        forwarded.append("--stats")
    if args.stats_json:
        forwarded += ["--stats-json", args.stats_json]
    if args.format != "text":
        forwarded += ["--format", args.format]
    if args.output:
        forwarded += ["--output", args.output]
    if args.fix:
        forwarded.append("--fix")
    if args.no_cache:
        forwarded.append("--no-cache")
    if args.cache_path:
        forwarded += ["--cache-path", args.cache_path]
    return check_main(forwarded)


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
        sinks.append(JsonlSink(trace_out, eager=True))
    if metrics_out:
        sinks.append(PrometheusTextfileSink(metrics_out))
    if not sinks:
        return None, lambda: None
    sink = sinks[0] if len(sinks) == 1 else MultiSink(*sinks)
    return Tracer(sink, strict=strict), sink.close


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.scheduler import simulate

    _apply_sanitize(args)
    trace = _load_trace(args.trace)
    config = _run_config(
        args,
        warmup_s=args.warmup_s,
        reserved_concurrency=_parse_reserved(args.reserve),
    )
    tracer, close_tracer = _make_tracer(args.trace_out, args.metrics_out)
    try:
        result = simulate(
            trace,
            args.policy,
            args.memory_gb * 1024.0,
            config,
            tracer=tracer,
            engine=args.engine,
            **_tenant_policy_kwargs(args),
        )
    finally:
        close_tracer()
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


def _parse_reserved(specs: Optional[List[str]]) -> Optional[dict]:
    """Parse ``NAME=COUNT`` reserved-concurrency arguments."""
    if not specs:
        return None
    reserved = {}
    for spec in specs:
        name, sep, count = spec.partition("=")
        if not sep or not name:
            raise SystemExit(f"--reserve expects NAME=COUNT, got {spec!r}")
        try:
            reserved[name] = int(count)
        except ValueError:
            raise SystemExit(f"--reserve count must be an integer: {spec!r}")
    return reserved


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.policies import PAPER_POLICIES
    from repro.sim.parallel import run_sweep_parallel
    from repro.sim.sweep import run_sweep

    _apply_sanitize(args)
    trace = _load_trace(args.trace)
    config = _run_config(args)
    policies = args.policies or list(PAPER_POLICIES)
    policy_kwargs = _tenant_policy_kwargs(args) or None
    if args.workers is not None and args.workers != 1:
        def report(done: int, total: int, policy: str, memory_gb: float) -> None:
            print(
                f"[{done}/{total}] {policy} @ {memory_gb:g} GB",
                file=sys.stderr,
            )

        sweep = run_sweep_parallel(
            trace,
            args.memory_gb,
            policies=policies,
            max_workers=args.workers or None,
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
    else:
        sweep = run_sweep(
            trace, args.memory_gb, policies=policies,
            trace_dir=args.trace_dir, config=config,
            policy_kwargs=policy_kwargs,
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

    from repro.sim.scheduler import simulate

    _apply_sanitize(args)
    trace = _load_trace(args.trace)
    config = _run_config(args)
    tracer, close_tracer = _make_tracer(
        args.out, args.metrics_out, strict=args.strict
    )
    try:
        result = simulate(
            trace, args.policy, args.memory_gb * 1024.0, config,
            tracer=tracer, **_tenant_policy_kwargs(args),
        )
    finally:
        close_tracer()
    metrics = result.metrics
    print(
        f"wrote {args.out}: {metrics.total_requests} invocations traced "
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
    import asyncio
    import signal

    from repro.core.clock import SimClock
    from repro.live.server import LiveHTTPServer
    from repro.live.service import LivePoolService

    trace = _load_trace(args.trace)
    config = _run_config(args)
    tracer, close_tracer = _make_tracer(args.trace_out, args.metrics_out)
    service = LivePoolService(
        trace,
        args.policy,
        args.memory_gb * 1024.0,
        clock=SimClock() if args.clock == "sim" else None,
        tracer=tracer,
        config=config,
        **_tenant_policy_kwargs(args),
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

    async def serve() -> None:
        # kill <pid> (systemd, Docker, Kubernetes) stops it as Ctrl-C does.
        cancel = asyncio.current_task().cancel
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, cancel)
        await server.serve_forever(on_ready=announce)

    try:
        asyncio.run(serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down", file=sys.stderr)
    finally:
        close_tracer()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a trace against a live server and gate the results."""
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
        import json

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
        if args.calibration_baseline:
            import json

            from repro.bench import calibration_s

            with open(args.calibration_baseline) as handle:
                base_cal = float(json.load(handle).get("calibration_s", 0.0))
            cur_cal = calibration_s()
            if base_cal > 0.0 and cur_cal > 0.0:
                # Slower machine -> proportionally higher ceiling
                # (never a lower one), mirroring bench-regression.
                ceiling_ms *= max(1.0, cur_cal / base_cal)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-faascache",
        description="FaasCache reproduction: keep-alive simulation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic trace")
    generate.add_argument("--functions", type=int, default=1000)
    generate.add_argument("--max-daily-invocations", type=int, default=20_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--sample",
        choices=("full", "rare", "representative", "random"),
        default="representative",
    )
    generate.add_argument("--sample-size", type=int, default=400)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    simulate = sub.add_parser("simulate", help="run one keep-alive simulation")
    simulate.add_argument("--trace", required=True)
    simulate.add_argument("--policy", default="GD")
    simulate.add_argument("--memory-gb", type=float, default=16.0)
    simulate.add_argument(
        "--warmup-s",
        type=float,
        default=0.0,
        help="exclude invocations before this time from the metrics",
    )
    simulate.add_argument(
        "--reserve",
        nargs="*",
        metavar="NAME=COUNT",
        help="pin NAME=COUNT provisioned-concurrency containers",
    )
    simulate.add_argument(
        "--trace-out",
        metavar="EVENTS.jsonl",
        help="also record lifecycle events to this JSONL file",
    )
    simulate.add_argument(
        "--metrics-out",
        metavar="METRICS.prom",
        help="also write Prometheus-textfile counters to this path",
    )
    simulate.add_argument(
        "--fault-spec",
        metavar="SPEC.json",
        help=(
            "inject deterministic faults per this JSON spec "
            "(see docs/robustness.md)"
        ),
    )
    simulate.add_argument(
        "--engine",
        choices=("object", "columnar"),
        default="object",
        help=(
            "object (default): the per-arrival loop, always; columnar: "
            "the vectorized TTL kernel answers when the run is eligible "
            "(identical metrics; see docs/performance.md)"
        ),
    )
    _add_tenant_flags(simulate)
    _add_sanitize_flag(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="sweep policies across memory sizes")
    sweep.add_argument("--trace", required=True)
    sweep.add_argument("--memory-gb", type=float, nargs="+", required=True)
    sweep.add_argument("--policies", nargs="*")
    sweep.add_argument(
        "--metric",
        default="exec_time_increase_pct",
        choices=("exec_time_increase_pct", "cold_start_pct", "drop_ratio"),
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "fan the grid out over worker processes (0 = one per CPU); "
            "omit or pass 1 for the sequential engine"
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
    sweep.add_argument(
        "--metrics-out",
        metavar="METRICS.prom",
        help=(
            "write per-cell lifecycle counters (labelled by policy and "
            "memory size) as a Prometheus textfile"
        ),
    )
    sweep.add_argument(
        "--fault-spec",
        metavar="SPEC.json",
        help=(
            "inject deterministic faults into every cell, each under "
            "its own coordinate-derived seed (see docs/robustness.md)"
        ),
    )
    _add_tenant_flags(sweep)
    _add_sanitize_flag(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    provision = sub.add_parser("provision", help="static server sizing")
    provision.add_argument("--trace", required=True)
    provision.add_argument("--target-hit-ratio", type=float, default=0.9)
    provision.set_defaults(func=_cmd_provision)

    autoscale = sub.add_parser("autoscale", help="dynamic vertical scaling")
    autoscale.add_argument("--trace", required=True)
    autoscale.add_argument("--miss-ratio", type=float, default=0.05)
    autoscale.add_argument("--period-s", type=float, default=600.0)
    autoscale.add_argument("--policy", default="GD")
    autoscale.set_defaults(func=_cmd_autoscale)

    plan = sub.add_parser(
        "plan", help="full capacity-planning report (Markdown)"
    )
    plan.add_argument("--trace", required=True)
    plan.add_argument("--out")
    plan.set_defaults(func=_cmd_plan)

    characterize = sub.add_parser(
        "characterize", help="Section 3 workload statistics"
    )
    characterize.add_argument("--trace", required=True)
    characterize.set_defaults(func=_cmd_characterize)

    balancers = sub.add_parser(
        "balancers", help="compare cluster load-balancing policies"
    )
    balancers.add_argument("--trace", required=True)
    balancers.add_argument("--servers", type=int, default=4)
    balancers.add_argument("--server-memory-gb", type=float, default=4.0)
    balancers.add_argument("--policy", default="GD")
    balancers.set_defaults(func=_cmd_balancers)

    loadtest = sub.add_parser(
        "loadtest", help="OpenWhisk vs FaasCache on the simulated invoker"
    )
    loadtest.add_argument(
        "--workload", default="cyclic",
    )
    loadtest.add_argument("--memory-gb", type=float, default=1.625)
    loadtest.add_argument("--cores", type=int, default=8)
    loadtest.set_defaults(func=_cmd_loadtest)

    trace_cmd = sub.add_parser(
        "trace", help="run one simulation with event tracing enabled"
    )
    trace_cmd.add_argument("--trace", required=True)
    trace_cmd.add_argument("--policy", default="GD")
    trace_cmd.add_argument("--memory-gb", type=float, default=16.0)
    trace_cmd.add_argument(
        "--out",
        required=True,
        metavar="EVENTS.jsonl",
        help="JSONL file the lifecycle events are written to",
    )
    trace_cmd.add_argument(
        "--summary-json",
        metavar="SUMMARY.json",
        help=(
            "also write the run's aggregate counters/metrics as JSON "
            "(the file trace-report --check verifies against)"
        ),
    )
    trace_cmd.add_argument(
        "--metrics-out",
        metavar="METRICS.prom",
        help="also write Prometheus-textfile counters to this path",
    )
    trace_cmd.add_argument(
        "--strict",
        action="store_true",
        help="validate every event against the schema while emitting",
    )
    trace_cmd.add_argument(
        "--fault-spec",
        metavar="SPEC.json",
        help=(
            "inject deterministic faults per this JSON spec "
            "(see docs/robustness.md)"
        ),
    )
    _add_tenant_flags(trace_cmd)
    _add_sanitize_flag(trace_cmd)
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
        type=int,
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
    serve.add_argument("--trace", required=True, help="function registry")
    serve.add_argument("--policy", default="GD")
    serve.add_argument("--memory-gb", type=float, default=16.0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8077, help="0 picks an ephemeral port"
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
        type=float,
        default=0.25,
        help="expiry-timer period; 0 disables the background tick",
    )
    serve.add_argument(
        "--trace-out",
        metavar="EVENTS.jsonl",
        help="record lifecycle events (JSONL, repro.obs schema)",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PROM.txt",
        help="write a Prometheus textfile on shutdown",
    )
    _add_tenant_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help=(
            "replay a trace against a live server and report "
            "p50/p99/p999 decision latency plus achieved QPS"
        ),
    )
    loadgen.add_argument("--trace", required=True)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8077)
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
        "--connections", type=int, default=4, help="open-loop sockets"
    )
    loadgen.add_argument(
        "--window", type=int, default=256, help="pipeline in-flight depth"
    )
    loadgen.add_argument(
        "--speed",
        type=float,
        default=3600.0,
        help=(
            "open-loop time compression: trace seconds replayed per "
            "wall second (3600 = one trace-hour per second)"
        ),
    )
    loadgen.add_argument(
        "--duration-s",
        type=float,
        help="open-loop wall-clock budget; truncates the replay",
    )
    loadgen.add_argument(
        "--limit", type=int, help="replay only the first N invocations"
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
        type=float,
        help="fail if the p99 in-engine decision latency exceeds this",
    )
    loadgen.add_argument(
        "--calibration-baseline",
        metavar="BASELINE.json",
        help=(
            "scale --max-p99-ms by this bench report's machine "
            "calibration (like the bench-regression gate)"
        ),
    )
    loadgen.add_argument(
        "--json-out", metavar="REPORT.json", help="write the summary JSON"
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    bench = sub.add_parser(
        "bench",
        help=(
            "run the pinned-seed benchmark suite and optionally gate "
            "against a baseline (docs/performance.md)"
        ),
    )
    bench.add_argument(
        "--out", default="BENCH_local.json", help="report output path"
    )
    bench.add_argument(
        "--baseline",
        metavar="BASELINE.json",
        help=(
            "compare against this report (e.g. benchmarks/BASELINE.json); "
            "exit 1 on slowdown beyond tolerance or metrics drift"
        ),
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional slowdown vs the baseline (default 0.10)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3, help="timed runs per scenario"
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (use < 1 for smoke runs)",
    )
    bench.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="run only this scenario (repeatable)",
    )
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser(
        "check",
        help=(
            "run the determinism & invariant linter "
            "(rules FC001-FC011, FC005 retired; "
            "docs/static-analysis.md)"
        ),
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    check.add_argument(
        "--select",
        metavar="FC001,FC002,...",
        help="only run these rule codes",
    )
    check.add_argument(
        "--include-fixtures",
        action="store_true",
        help=(
            "also lint the deliberately-broken fixtures under "
            "tests/fixtures/checks/"
        ),
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule counts, including suppressed (noqa) findings",
    )
    check.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write machine-readable run stats to PATH",
    )
    check.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="findings output format (default: text)",
    )
    check.add_argument(
        "--output",
        metavar="PATH",
        help="write findings to PATH instead of stdout",
    )
    check.add_argument(
        "--fix",
        action="store_true",
        help="apply the mechanical autofixes (FC007/FC008) first",
    )
    check.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental result cache",
    )
    check.add_argument(
        "--cache-path",
        metavar="PATH",
        default=None,
        help="incremental cache location "
        "(default: .repro-checks-cache.json)",
    )
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
