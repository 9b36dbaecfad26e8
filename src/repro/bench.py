"""Reproducible benchmark harness for the simulator hot paths.

The ROADMAP's north star is month-long, million-invocation replays
"as fast as the hardware allows"; this module is how the repository
*measures* that promise instead of asserting it. It defines a small
suite of pinned-seed scenarios — 100k-invocation TTL, HIST, and GDSF
(GD) replays of pinned traces, a streamed million-plus invocation
TTL replay, a harvested-capacity GD replay of a churn trace, and
one sweep cell — and a runner that:

* times each scenario (best-of-N wall clocks via
  :func:`repro.core.clock.wall_clock_s`, the sanctioned accessor);
* fingerprints each scenario's :class:`SimulationMetrics` (a SHA-256
  over the canonical JSON of the lifecycle counters and headline
  percentages), so a performance change that silently alters
  *results* is caught as loudly as a slowdown;
* records each scenario's peak traced allocation (one untimed
  ``tracemalloc`` pass), so the streamed scenario can *gate* the
  claim that a full-day trace never materializes in memory;
* compares against a checked-in baseline (``benchmarks/BASELINE.json``)
  with a machine-speed calibration factor and a slowdown tolerance.

Everything is deterministic: traces are built from pinned seeds, the
fingerprints are bit-stable across runs and across
``PYTHONHASHSEED`` values, and only the wall-clock timings vary.

Entry points: ``repro-faascache bench`` (CLI), ``make bench``
(Makefile), and ``benchmarks/run_bench.py`` (script). Methodology and
baseline-update instructions live in ``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import random
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.checks.sanitize import sanitize_enabled
from repro.core.clock import wall_clock_s
from repro.faults import FaultSpec
from repro.obs.counters import fingerprint_counters
from repro.sim.scheduler import SimulationResult, simulate
from repro.sim.server import GB_MB
from repro.sim.sweep import point_fingerprint, run_cell
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace

__all__ = [
    "SCENARIOS",
    "BenchScenario",
    "churn_trace",
    "eviction_trace",
    "run_suite",
    "compare_reports",
    "main",
]

#: Default slowdown tolerance for baseline comparison (the CI gate
#: fails on anything slower than baseline * (1 + tolerance) after
#: machine-speed normalization).
DEFAULT_TOLERANCE = 0.10

#: Seeds are pinned per scenario so every run replays byte-identical
#: workloads; see docs/performance.md before changing any of them.
_CHURN_SEED_TTL = 1001
_CHURN_SEED_HIST = 1002
_EVICTION_SEED = 1003
_SWEEP_SEED = 1004
_STREAM_SEED_1M = 1005
_HARVEST_SEED = 1006
_LIVE_SEED = 1007


# ----------------------------------------------------------------------
# Workload builders (pinned seeds, fully deterministic)
# ----------------------------------------------------------------------


def churn_trace(
    num_functions: int = 1620,
    duration_s: float = 9600.0,
    seed: int = _CHURN_SEED_TTL,
    name: str = "bench-churn",
) -> Trace:
    """A keep-alive churn workload: a large, mostly-idle warm pool.

    Each function arrives roughly periodically with a per-function
    inter-arrival time drawn from {60, 120, 240, 480, 960} seconds
    (seeded), jittered +/-30%. Under a 300 s TTL the short-IAT
    majority stays warm for the whole replay while the long-IAT tail
    expires before every arrival — exactly the regime where a
    per-event full-pool expiry scan is quadratic and the incremental
    expiry index is not.
    """
    rng = random.Random(seed)
    iat_choices = (60.0, 120.0, 240.0, 480.0, 960.0)
    functions: List[TraceFunction] = []
    invocations: List[Invocation] = []
    for i in range(num_functions):
        iat = iat_choices[rng.randrange(len(iat_choices))]
        function = TraceFunction(
            name=f"bench-{i:04d}",
            memory_mb=128.0,
            warm_time_s=0.2,
            cold_time_s=1.2,
        )
        functions.append(function)
        t = rng.uniform(0.0, iat)
        while t < duration_s:
            invocations.append(Invocation(round(t, 6), function.name))
            t += iat * rng.uniform(0.7, 1.3)
    invocations.sort(key=lambda inv: (inv.time_s, inv.function_name))
    return Trace(functions, invocations, name=name)


def eviction_trace(
    num_functions: int = 800,
    rounds: int = 125,
    seed: int = _EVICTION_SEED,
    name: str = "bench-eviction",
) -> Trace:
    """Shuffled round-robin arrivals over a working set far above
    capacity: nearly every arrival is a cold start that must select a
    victim, stressing the lazy victim index rather than expiry."""
    functions = [
        TraceFunction(f"evict-{i:03d}", 128.0, 0.2, 1.0)
        for i in range(num_functions)
    ]
    rng = random.Random(seed)
    invocations: List[Invocation] = []
    t = 0.0
    for __ in range(rounds):
        order = list(range(num_functions))
        rng.shuffle(order)
        for i in order:
            invocations.append(Invocation(round(t, 6), f"evict-{i:03d}"))
            t += 0.05
    return Trace(functions, invocations, name=name)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _metrics_payload(result: SimulationResult) -> Dict[str, object]:
    """The deterministic slice of a simulation outcome.

    Integer lifecycle counters plus the headline percentages, with
    floats carried at full ``repr`` precision — any change here is a
    *results* change, not a performance change. Harvest/spot counters
    are dropped while zero (the same
    :func:`~repro.obs.counters.fingerprint_counters` as
    :func:`repro.sim.sweep.point_fingerprint`), so scenarios that
    predate the harvest subsystem keep their pinned fingerprints.
    """
    metrics = result.metrics
    return {
        "counters": fingerprint_counters(metrics.counters()),
        "cold_start_pct": repr(metrics.cold_start_pct),
        "exec_time_increase_pct": repr(metrics.exec_time_increase_pct),
        "hit_ratio": repr(metrics.hit_ratio),
        "drop_ratio": repr(metrics.drop_ratio),
    }


def fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a deterministic payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BenchScenario:
    """One pinned-seed benchmark case.

    ``build(scale)`` constructs the (trace, runner) pair; the runner
    executes one full replay and returns ``(invocations, payload)``
    where ``payload`` is the deterministic fingerprint input. Trace
    construction happens outside the timed region — except for
    streamed scenarios, where chunk generation interleaves with
    replay *by design* and is therefore timed.

    ``memory_budget_mb``, when set, is a hard ceiling on the
    scenario's peak traced allocation during one replay (measured by
    an untimed ``tracemalloc`` pass). It is the enforcement of the
    streaming claim: a full-day trace must never materialize.
    """

    name: str
    description: str
    build: Callable[[float], Tuple[int, Callable[[], Dict[str, object]]]]
    memory_budget_mb: Optional[float] = None


def _scaled(count: int, scale: float, floor: int = 8) -> int:
    return max(floor, int(round(count * scale)))


def _kernel_replay_payload(
    trace, policy: str, capacity_mb: float, scenario: str, **policy_kwargs
) -> Dict[str, object]:
    """A replay that must be answered by an exact kernel."""
    result = simulate(trace, policy, capacity_mb, **policy_kwargs)
    if result.path == "sequential" and not sanitize_enabled():
        # The slowdown gate would eventually notice, but a silent
        # fallback means a kernel precondition regressed — fail
        # loudly, right here. (Sanitized runs take the arrival loop
        # by design, for maximal invariant coverage.)
        raise RuntimeError(f"{scenario} fell back to the sequential path")
    return _metrics_payload(result)


def _ttl_scenario(scale: float):
    trace = churn_trace(num_functions=_scaled(1620, scale), seed=_CHURN_SEED_TTL)
    capacity_mb = 2048.0 * 128.0

    def run() -> Dict[str, object]:
        return _kernel_replay_payload(
            trace, "TTL", capacity_mb, "ttl_replay_100k", ttl_s=300.0
        )

    return len(trace), run


def _hist_scenario(scale: float):
    trace = churn_trace(
        num_functions=_scaled(1620, scale),
        seed=_CHURN_SEED_HIST,
        name="bench-churn-hist",
    )
    capacity_mb = 2048.0 * 128.0

    def run() -> Dict[str, object]:
        return _kernel_replay_payload(
            trace, "HIST", capacity_mb, "hist_replay_100k"
        )

    return len(trace), run


def _gdsf_scenario(scale: float):
    trace = eviction_trace(rounds=_scaled(125, scale, floor=2))

    def run() -> Dict[str, object]:
        return _kernel_replay_payload(
            trace, "GD", 24.0 * 1024.0, "gdsf_replay_100k"
        )

    return len(trace), run


def _ttl_stream_1m_scenario(scale: float):
    # Chunk generation interleaves with replay: the trace is never
    # materialized, which the scenario's memory budget enforces.
    trace = StreamingChurnTrace(
        num_functions=_scaled(2000, scale),
        duration_s=86_400.0,
        seed=_STREAM_SEED_1M,
        name="stream-churn-1m",
    )
    capacity_mb = 4096.0 * 128.0
    invocations = sum(len(times) for times, __ in trace.chunks())

    def run() -> Dict[str, object]:
        return _kernel_replay_payload(
            trace, "TTL", capacity_mb, "ttl_stream_1m", ttl_s=300.0
        )

    return invocations, run


def _harvest_scenario(scale: float):
    # Harvested/spot capacity: a near-full churn pool under periodic
    # harvest shrink/grow steps plus spot evict/restore cycles, replayed
    # by the GD kernel: deflation walks, deferred resumes, outages and
    # the retry queue on its one timeline.
    trace = churn_trace(
        num_functions=_scaled(1620, scale),
        seed=_HARVEST_SEED,
        name="bench-harvest",
    )
    capacity_mb = 1800.0 * 128.0
    spec = FaultSpec(
        seed=_HARVEST_SEED,
        harvest_interval_s=600.0,
        harvest_min_frac=0.55,
        harvest_max_frac=0.95,
        spot_mtbf_s=4000.0,
        spot_notice_s=30.0,
    )

    def run() -> Dict[str, object]:
        return _kernel_replay_payload(
            trace, "GD", capacity_mb, "harvest_100k", fault_spec=spec
        )

    return len(trace), run


def _live_smoke_scenario(scale: float):
    # The live serving stack end to end (docs/live-serving.md): a
    # sim-clock LivePoolService behind the threaded HTTP frontend on an
    # ephemeral loopback port, replayed by the pipelined deterministic
    # load generator. The timed figure is whole-stack decisions/s over
    # HTTP; the payload is the engine's counters plus the client's
    # observed outcomes, so the run_suite determinism check holds live
    # mode to the simulator's byte-exact results. Deliberately absent
    # from BASELINE.json's wall-clock gate: loopback scheduling jitter
    # is not a simulation regression.
    trace = churn_trace(
        num_functions=_scaled(160, scale),
        seed=_LIVE_SEED,
        name="bench-live-smoke",
    )
    capacity_mb = 200.0 * 128.0

    def run() -> Dict[str, object]:
        # Imported lazily: the live stack (server threads, asyncio
        # client) is only touched when this scenario actually runs.
        from repro.core.clock import SimClock
        from repro.live.loadgen import run_loadgen
        from repro.live.server import ServerThread
        from repro.live.service import LivePoolService

        service = LivePoolService(trace, "GD", capacity_mb, clock=SimClock())
        thread = ServerThread(service).start()
        try:
            report = run_loadgen(trace, thread.host, thread.port)
        finally:
            thread.stop()
        if report.errors_5xx or report.completed != len(trace):
            raise RuntimeError(
                f"live_smoke: {report.completed}/{len(trace)} responses, "
                f"statuses {report.statuses}"
            )
        return {
            "counters": {
                k: v for k, v in service.counters().items() if v
            },
            "outcomes": dict(sorted(report.outcomes.items())),
        }

    return len(trace), run


def _sweep_cell_scenario(scale: float):
    trace = churn_trace(
        num_functions=_scaled(160, scale),
        seed=_SWEEP_SEED,
        name="bench-sweep-cell",
    )

    def run() -> Dict[str, object]:
        point = run_cell(trace, "TTL", 8.0 * 1024.0 / GB_MB)
        return {"point": point_fingerprint(point)}

    return len(trace), run


#: The pinned-seed suite, in execution order. TTL exercises the
#: vectorized columnar kernel, HIST the per-arrival HIST kernel
#: (histogram plans and prewarms; its pool holds the registry), GDSF
#: the per-arrival GD kernel under memory pressure (a victim on almost
#: every arrival), the streamed scenario the million-invocation
#: bound-memory claim, the harvest scenario the simulator's
#: graceful-deflation path, and the sweep cell covers the run_cell
#: plumbing both sweep engines share.
SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        "ttl_replay_100k",
        "100k-invocation TTL replay, columnar vectorized kernel",
        _ttl_scenario,
    ),
    BenchScenario(
        "hist_replay_100k",
        "100k-invocation HIST replay, HIST kernel (histogram plans + prewarms)",
        _hist_scenario,
    ),
    BenchScenario(
        "gdsf_replay_100k",
        "100k-invocation GD (GDSF) replay, eviction-heavy (GD kernel)",
        _gdsf_scenario,
    ),
    BenchScenario(
        "ttl_stream_1m",
        "1.1M-invocation full-day streamed TTL replay, bounded memory",
        _ttl_stream_1m_scenario,
        memory_budget_mb=64.0,
    ),
    BenchScenario(
        "harvest_100k",
        "100k-invocation GD replay under harvest shrink/grow + spot "
        "evictions, GD kernel (deflation, outages, retries)",
        _harvest_scenario,
    ),
    BenchScenario(
        "sweep_cell",
        "one TTL sweep cell through run_cell (engine plumbing)",
        _sweep_cell_scenario,
    ),
    BenchScenario(
        "live_smoke",
        "10k-decision live replay over the threaded HTTP frontend "
        "(sim-clock determinism, whole-stack decisions/s)",
        _live_smoke_scenario,
    ),
)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def calibration_s(repeats: int = 3) -> float:
    """Best-of-N timing of a fixed pure-Python workload.

    Baseline comparisons normalize wall clocks by the ratio of the
    current machine's calibration to the baseline machine's, so a
    slower CI runner does not read as a regression.
    """
    best = float("inf")
    for __ in range(repeats):
        started = wall_clock_s()
        acc = 0
        for i in range(2_000_000):
            acc = (acc + i * i) % 1000003
        best = min(best, wall_clock_s() - started)
    return best


def run_suite(
    repeats: int = 3,
    scale: float = 1.0,
    scenarios: Optional[Dict[str, BenchScenario]] = None,
) -> Dict[str, object]:
    """Run every scenario and return the machine-readable report."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    selected = (
        list(SCENARIOS)
        if scenarios is None
        else [s for s in SCENARIOS if s.name in scenarios]
    )
    report: Dict[str, object] = {
        "schema": 1,
        "scale": scale,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_s": round(calibration_s(), 6),
        "scenarios": {},
    }
    for scenario in selected:
        invocations, run = scenario.build(scale)
        best_s = float("inf")
        payload: Dict[str, object] = {}
        for __ in range(repeats):
            started = wall_clock_s()
            payload = run()
            best_s = min(best_s, wall_clock_s() - started)
        # One untimed instrumented replay for the peak-allocation
        # figure (tracemalloc roughly doubles runtime, so it never
        # shares a pass with the timings). Doubling as a free
        # determinism check: the instrumented replay must reproduce
        # the timed payload bit for bit.
        tracemalloc.start()
        traced_payload = run()
        __, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if traced_payload != payload:
            raise RuntimeError(
                f"{scenario.name}: nondeterministic payload across "
                "replays (timed vs instrumented runs disagree)"
            )
        entry: Dict[str, object] = {
            "description": scenario.description,
            "invocations": invocations,
            "best_s": round(best_s, 6),
            "invocations_per_s": round(invocations / best_s, 1),
            "peak_mb": round(peak_bytes / (1024.0 * 1024.0), 3),
            "fingerprint": fingerprint(payload),
            "payload": payload,
        }
        if scenario.memory_budget_mb is not None:
            entry["memory_budget_mb"] = scenario.memory_budget_mb
        report["scenarios"][scenario.name] = entry
    return report


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Failures of ``current`` against ``baseline``; empty means pass.

    Three gates per scenario:

    * **metrics drift** — the deterministic fingerprint must match the
      baseline exactly (compared only at equal ``scale``, since scale
      changes the workload);
    * **slowdown** — ``best_s`` must stay within ``1 + tolerance`` of
      the baseline after normalizing by the calibration ratio;
    * **peak memory** — scenarios that declare ``memory_budget_mb``
      must keep their peak traced allocation under it (absolute, at
      any scale: the streaming bound is the point being gated).
    """
    failures: List[str] = []
    base_cal = float(baseline.get("calibration_s", 0.0))
    cur_cal = float(current.get("calibration_s", 0.0))
    speed_ratio = (cur_cal / base_cal) if base_cal > 0 and cur_cal > 0 else 1.0
    same_scale = current.get("scale") == baseline.get("scale")
    for name, base in baseline.get("scenarios", {}).items():
        cur = current.get("scenarios", {}).get(name)
        if cur is None:
            failures.append(f"{name}: missing from the current run")
            continue
        if same_scale and cur["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"{name}: metrics drift — fingerprint "
                f"{cur['fingerprint'][:12]} != baseline "
                f"{base['fingerprint'][:12]} (simulation results changed)"
            )
        budget_s = float(base["best_s"]) * speed_ratio * (1.0 + tolerance)
        if float(cur["best_s"]) > budget_s:
            failures.append(
                f"{name}: slowdown — {cur['best_s']:.3f}s exceeds "
                f"{budget_s:.3f}s (baseline {base['best_s']:.3f}s x "
                f"speed ratio {speed_ratio:.2f} + {tolerance:.0%} tolerance)"
            )
        memory_budget = cur.get("memory_budget_mb")
        if memory_budget is not None and "peak_mb" in cur:
            if float(cur["peak_mb"]) > float(memory_budget):
                failures.append(
                    f"{name}: peak memory — {cur['peak_mb']:.1f} MB "
                    f"exceeds the {float(memory_budget):.0f} MB budget "
                    f"(the streamed replay materialized its trace?)"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by the CLI subcommand and the script."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-faascache bench",
        description="pinned-seed benchmark suite (docs/performance.md)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_run.json",
        help="report output path (default: the git-ignored BENCH_run.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON to compare against (e.g. benchmarks/BASELINE.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown vs the baseline (default 0.10)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed runs per scenario"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (use < 1 for smoke runs)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="run only this scenario (repeatable)",
    )
    args = parser.parse_args(argv)

    known = {s.name for s in SCENARIOS}
    unknown = [n for n in (args.scenarios or []) if n not in known]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(known))}"
        )
    selected = (
        None
        if not args.scenarios
        else {name: True for name in args.scenarios}
    )
    report = run_suite(
        repeats=args.repeats, scale=args.scale, scenarios=selected
    )
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for name, entry in report["scenarios"].items():
        print(
            f"  {name}: {entry['best_s']:.3f}s best "
            f"({entry['invocations_per_s']:,.0f} inv/s, "
            f"peak {entry['peak_mb']:.1f} MB, "
            f"fingerprint {entry['fingerprint'][:12]})"
        )

    if args.baseline is None:
        return 0
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    failures = compare_reports(report, baseline, tolerance=args.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"baseline check passed ({args.baseline})")
    return 1 if failures else 0
