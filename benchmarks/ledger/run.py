#!/usr/bin/env python3
"""The repository's benchmark: end-to-end metrics and a per-layer ledger.

    python3 benchmarks/ledger/run.py [--seed N] [--workload W]... \\
        [--smoke] [--selfcheck] [--seconds S] [--trace 0|1] [--out FILE]

Prints every metric by name with its unit, checks the program's
outputs, and ends with one JSON line (``correct`` / ``attempted`` /
``failed`` / ``metrics``). See README.md beside this file for what the
workloads and metrics are and how to read them; BENCHMARK.json at the
repository root is the list of names, units and bounds this prints.

The program is entered only through ``repro.sim.scheduler.simulate``,
``repro.traces.streaming.StreamingChurnTrace``,
``repro.traces.io.save_trace_json``, ``LivePoolService.admit`` and the
``repro-faascache serve`` CLI with its ``/admit`` and ``/stats``
endpoints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"ledger: no program to measure under {ROOT}")
sys.path[:0] = [str(SRC), str(HERE)]

from loadgen import (  # noqa: E402
    ServerChild, closed_loop, encode_admit, fetch_json, open_loop,
)
from probes import Probes  # noqa: E402
from stats import percentile, summary  # noqa: E402
from workloads import BY_NAME, DEFAULT_SEED, WORKLOADS  # noqa: E402

from repro.core.clock import SimClock  # noqa: E402
from repro.live.service import LivePoolService  # noqa: E402
from repro.sim.scheduler import simulate  # noqa: E402
from repro.traces.io import save_trace_json  # noqa: E402

#: Rounds a ``--seconds`` budget may be cut to. (Seven would be the
#: floor by taste; five is what lets 158 driver runs, the live ones
#: booting a child a round, end inside the driver's hour on a slow day.)
MIN_ROUNDS = 5
MAX_ROUNDS = 40
OPEN_LOOP_RATE_PER_S = 4000.0
#: Closed-loop requests between two samples of the host's speed.
LIVE_SEGMENT = 2000

#: What hosting the replay engine costs before any trace: the modules
#: behind the replay entry points, imported by a fresh interpreter.
_IMPORT_PROBE = (
    "import repro.sim.scheduler, repro.sim.columnar, repro.traces.streaming\n"
    "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])"
)


@dataclass(frozen=True)
class Plan:
    """How much one set measures."""

    size: float  # workload size multiplier
    size_name: str  # the EXPECTED.json section these sizes are pinned in
    replay_rounds: int
    live_rounds: int
    #: when set, rounds per workload follow this budget (>= MIN_ROUNDS)
    seconds: Optional[float]
    warm_up: bool
    setups: int  # set-up repetitions of a replay workload
    traced_live_rounds: int
    open_loop_s: float


FULL = Plan(1.0, "full", 15, 9, None, True, 7, 3, 10.0)
SMOKE = Plan(0.1, "smoke", 2, 2, None, False, 1, 1, 1.0)


#: Seconds the calibration kernel takes on the nominal host. Every time
#: this file reports is scaled to that host (see ``Host``).
NOMINAL_CALIBRATION_S = 0.030


def calibration_sample() -> float:
    """Seconds a fixed kernel takes: the host's speed right now.

    The kernel is a toy keep-alive cache (objects in a dict, evicted
    through a heap), because what slows the program on a shared host -
    a neighbour on the core, in the cache, in the allocator - must slow
    the kernel by the same share for the scaling to cancel it, and a
    bare arithmetic loop does not feel the last two.
    """

    class Entry:
        def __init__(self, now: int) -> None:
            self.last = now
            self.uses = 0

    started = perf_counter()
    pool: Dict[int, Entry] = {}
    heap: List[Tuple[int, int]] = []
    x = 12345
    for now in range(30_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 7) % 600
        entry = pool.get(key)
        if entry is None:
            while len(pool) >= 200:
                last, victim = heappop(heap)
                candidate = pool.get(victim)
                if candidate is not None and candidate.last == last:
                    del pool[victim]
            entry = pool[key] = Entry(now)
        entry.last = now
        entry.uses += 1
        heappush(heap, (now, key))
    return perf_counter() - started


class Host:
    """The host's speed, sampled right before and after every timed
    interval.

    This class of host flips between speed phases that last longer than
    a run (the same replay reads 0.6 s, then 1.1 s for half a minute),
    so raw seconds cannot be compared between two runs. Every reported
    time is therefore *nominal-host* seconds: measured seconds times
    ``speed``, where ``speed`` is how much faster than the nominal host
    the calibration kernel ran beside the interval.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._sampled_at = float("-inf")

    def sample(self) -> float:
        self.samples.append(calibration_sample())
        self._sampled_at = perf_counter()
        return self.samples[-1]

    @contextmanager
    def beside(self):
        """``with host.beside() as at:`` - ``at.speed`` is valid after
        the block. Back-to-back intervals share the sample between
        them."""
        at = SimpleNamespace(speed=1.0)
        fresh = perf_counter() - self._sampled_at < 0.002
        before = self.samples[-1] if fresh else self.sample()
        try:
            yield at
        finally:
            at.speed = NOMINAL_CALIBRATION_S / ((before + self.sample()) / 2.0)


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU - the one
    the calibration kernel runs fastest on right now.

    The box's two vCPUs are not two steady cores: each flips between
    speed levels on its own, and two busy processes are as often
    stacked on one vCPU as spread over both. On one CPU the serve child
    and the client take turns on the core the calibration kernel
    measures, so one speed describes all three.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    timed = []
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timed.append((calibration_sample(), cpu))
    os.sched_setaffinity(0, {min(timed)[1]})


def fingerprint(result) -> str:
    """SHA-256 over everything countable in a simulation result."""
    metrics = result.metrics
    payload = {
        "counters": dict(sorted(metrics.counters().items())),
        "hit_ratio": repr(metrics.hit_ratio),
        "cold_start_pct": repr(metrics.cold_start_pct),
        "exec_time_increase_pct": repr(metrics.exec_time_increase_pct),
        "drop_ratio": repr(metrics.drop_ratio),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Bench:
    """One workload's state across set-up, rounds and the traced pass.

    Every workload has a *reference replay*: ``simulate()`` over its
    trace. On a replay workload that is the workload; on a live one it
    is what the serve child's decisions are checked against.
    """

    def __init__(
        self, workload, seed: int, plan: Plan, tmp_dir: str, host: Host
    ) -> None:
        self.workload = workload
        self.host = host
        self.seed = seed
        self.plan = plan
        self.tmp_dir = tmp_dir
        self.live = workload.kind == "live"
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.probes_missing: List[str] = []
        self.rounds_done = 0
        self.rounds_wanted = plan.live_rounds if self.live else plan.replay_rounds
        self.prepared = None
        self.arrivals = 0
        self.reference = None  # the first replay's SimulationResult
        self.reference_fp = ""
        self.expected_fp: Optional[str] = None  # pinned, default seed only
        self.requests: List[bytes] = []
        self.last_speed = 1.0  # host speed beside the latest simulate()

    # -- failure accounting ---------------------------------------------

    def _repeat(self, ok: bool, why: str = "") -> bool:
        """Count one repeat of the whole workload; a repeat that fails
        its check fails every arrival in it."""
        self.attempted += self.arrivals
        if not ok:
            self.failed += self.arrivals
            if len(self.problems) < 10:
                self.problems.append(f"{self.workload.name}: {why}")
        return ok

    # -- the reference replay -------------------------------------------

    def _simulate(self):
        """One ``simulate()`` call: (nominal-host seconds, result)."""
        p = self.prepared
        with self.host.beside() as at:
            started = perf_counter()
            result = simulate(p.trace, p.policy, p.memory_mb, **p.sim_kwargs)
            wall_s = perf_counter() - started
        self.last_speed = at.speed
        return wall_s * at.speed, result

    def replay(self) -> Optional[float]:
        """One checked reference replay; its nominal-host seconds, or
        ``None`` when it raised or its result is not the first one's."""
        try:
            wall_s, result = self._simulate()
        except Exception as exc:  # noqa: BLE001 - a raising repeat fails, the set goes on
            self._repeat(False, f"simulate() raised {type(exc).__name__}: {exc}")
            return None
        found = fingerprint(result)
        if found != self.reference_fp:
            ok = self._repeat(False, "repeats of one seed disagree")
        else:
            ok = self._repeat(
                self.expected_fp in (None, found),
                f"result fingerprint {found[:12]} != EXPECTED.json "
                f"{str(self.expected_fp)[:12]}: simulated results changed",
            )
        return wall_s if ok else None

    # -- set-up ---------------------------------------------------------

    def build(self) -> float:
        started = perf_counter()
        self.prepared = self.workload.build(self.seed, self.plan.size)
        return perf_counter() - started

    def set_up(self, expected: Optional[str]) -> None:
        """Build the inputs, run the first (untimed) replay, pin its
        fingerprint. Replay workloads take their set-up samples here;
        live ones take one per round, around the child's boot."""
        for __ in range(1 if self.live else self.plan.setups):
            with self.host.beside() as at:
                setup_s = self.build()
                if not self.live:
                    import_s, rss_mb = self._import_child()
                    setup_s += import_s
            if not self.live:
                self.samples["setup_s"].append(setup_s * at.speed)
                self.samples["server_rss_mb"].append(rss_mb)
        trace = self.prepared.trace
        if self.live:
            self.requests = [
                encode_admit(inv.function_name, inv.time_s) for inv in trace
            ]
        __, self.reference = self._simulate()
        metrics = self.reference.metrics
        self.arrivals = (
            len(trace) if hasattr(trace, "__len__")
            else metrics.served + metrics.dropped
        )
        self.reference_fp = fingerprint(self.reference)
        self.expected_fp = expected

    def _import_child(self) -> Tuple[float, float]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return perf_counter() - started, int(done.stdout) / 1024.0

    # -- timed rounds ---------------------------------------------------

    def warm_up(self) -> float:
        """One untimed repeat (live: a tenth of the requests); returns
        the seconds a whole repeat should take, to size the rounds."""
        started = perf_counter()
        share = 1.0
        if self.live:
            prefix = self.requests[: max(1500, len(self.requests) // 10)]
            share = len(prefix) / len(self.requests)
            self._live_round(prefix, None)
        else:
            self._simulate()
        return (perf_counter() - started) / share

    def timed_round(self) -> None:
        self.rounds_done += 1
        if self.live:
            self._live_round(self.requests, self.samples)
        # A live trace replays in a quarter of the time a replay
        # workload takes: two samples a round, not one.
        for __ in range(2 if self.live else 1):
            wall_s = self.replay()
            if wall_s is not None:
                self.samples["inv_per_s"].append(self.arrivals / wall_s)

    def measure_peak(self) -> None:
        """One untimed reference replay under ``tracemalloc``."""
        tracemalloc.start()
        try:
            self.replay()
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.samples["peak_mb"].append(peak_bytes / (1024.0 * 1024.0))

    # -- one closed-loop run against a fresh child ----------------------

    def _live_round(self, requests: Sequence[bytes], into) -> None:
        """Build, save, boot a child, replay ``requests`` closed-loop,
        check the decisions, stop the child. ``into`` receives the
        round's samples (``None`` for the warm-up, which replays a
        prefix and is checked for failures only)."""
        p = self.prepared
        path = os.path.join(self.tmp_dir, f"{self.workload.name}.json")
        with ExitStack() as cleanup:
            with self.host.beside() as booting:
                started = perf_counter()
                self.build()
                save_trace_json(self.prepared.trace, path)
                cleanup.callback(os.unlink, path)
                child = cleanup.enter_context(
                    ServerChild(str(SRC), path, p.policy, p.memory_mb, True)
                )
                setup_s = perf_counter() - started
            cpu_s, switches = child.cpu_s(), child.voluntary_switches()
            run = closed_loop(
                child.host, child.port, requests, p.window,
                LIVE_SEGMENT, self.host.beside,
            )
            cpu_s = child.cpu_s() - cpu_s
            switches = child.voluntary_switches() - switches
            stats = fetch_json(child.host, child.port, "/stats")
            rss_mb = child.rss_peak_mb()
        if into is None:
            if run.failed:
                self.problems.append(f"{self.workload.name}: warm-up: {run.errors}")
            return
        # Request by request: what the client saw fail. As a whole: the
        # child's decisions must be the offline replay's.
        self.attempted += run.attempted
        self.failed += run.failed
        counters = self.reference.metrics.counters()
        offline = {
            k: counters[c] for k, c in
            (("warm", "warm_starts"), ("cold", "cold_starts"), ("dropped", "dropped"))
            if counters[c]
        }
        if run.failed:
            self.problems.append(f"{self.workload.name}: {run.errors}")
        elif not (
            dict(run.outcomes) == offline == stats["decisions"]
            and stats["counters"] == counters
        ):
            self.failed += run.attempted
            self.problems.append(
                f"{self.workload.name}: live decisions {dict(run.outcomes)} / "
                f"server {stats['decisions']} != offline replay {offline}"
            )
        answered = max(1, run.answered_ok)
        # Host speed over the round as a whole (1.0 if nothing was sent).
        speed = run.wall_s / run.raw_wall_s if run.raw_wall_s else 1.0
        if not run.failed:
            # Each segment is a sample of its own: it was scaled by the
            # host speed measured right beside it, and a flip of the
            # host inside one spoils that one only.
            for start, end, wall_s in run.segments:
                ordered = sorted(run.latencies_s[start:end])
                into["decisions_per_s"].append((end - start) / wall_s)
                for name, q in (("rtt_p50_us", 50), ("rtt_p99_us", 99)):
                    value = percentile(ordered, q)
                    if value is not None:
                        into[name].append(value * 1e6)
            into["rtt.n"].append(len(run.latencies_s))
        decision_us = stats["decision_latency"]["mean_us"] * speed
        cpu_us = cpu_s / answered * 1e6 * speed
        for name, value in (
            ("setup_s", setup_s * booting.speed),
            ("server_rss_mb", rss_mb),
            ("live.server.cpu_us_per_req", cpu_us),
            ("live.server.ctxsw_per_req", switches / answered),
            ("live.service.decision_mean_us", decision_us),
            ("live.server.frontend_us", cpu_us - decision_us),
            ("live.client.cpu_us_per_req", run.client_cpu_s / answered * 1e6),
        ):
            into[name].append(value)

    # -- the traced pass ------------------------------------------------

    def traced_pass(self, live_layers: Sequence[str]) -> Dict[str, Optional[float]]:
        """Per-layer metrics: a probed reference replay beside untraced
        ones, a call-counting replay, and on live workloads the numbers
        taken around the child plus the open-loop run."""
        out: Dict[str, Optional[float]] = {}
        arrivals = self.arrivals
        untraced = [self.replay(), self.replay()]
        with Probes() as probes:
            traced_s = self.replay()
        speed = self.last_speed
        # Probes are gone again: this replay must read like the others.
        untraced.append(self.replay())
        untraced = [w for w in untraced if w is not None]
        self.probes_missing = probes.missing
        if traced_s is None or not untraced:
            return out  # the failure is already counted
        untraced_s = summary(untraced)["median"]
        for name, value in probes.layer_metrics(arrivals).items():
            scaled = value is not None and name.endswith("us")
            out[name] = value * speed if scaled else value
        out["replay.unprobed_share"] = (
            1.0 - probes.ledger.raw_probed_s() * speed / traced_s
        )
        out["replay.trace_overhead"] = traced_s / untraced_s
        out["replay.py_calls_per_inv"] = self._count_calls() / arrivals

        streamed = hasattr(self.prepared.trace, "chunks")
        gen_us = self._generation_s() / arrivals * 1e6 if streamed else 0.0
        out["traces.streaming.gen_us"] = gen_us
        out["sim.columnar.kernel_us"] = (
            untraced_s / arrivals * 1e6 - gen_us if streamed else 0.0
        )

        counters = self.reference.metrics.counters()
        out["outcome.hit_ratio"] = self.reference.metrics.hit_ratio
        out["outcome.deflations"] = counters["deflations"]
        for name, counter in (
            ("evictions", "evictions"), ("expirations", "expirations"),
            ("prewarms", "prewarms"), ("retries", "retries"), ("sheds", "sheds"),
        ):
            out[f"outcome.{name}_per_inv"] = counters[counter] / arrivals

        live = self.samples
        if self.live:
            if not live["live.server.cpu_us_per_req"]:  # no timed pass ran
                for __ in range(self.plan.traced_live_rounds):
                    self._live_round(self.requests, live)
            live["live.service.admit_direct_us"].append(self._admit_direct_us())
            self._open_loop(live)
        for name in live_layers:
            # No serve child on a replay workload: its live layers are 0.
            # On a live one a layer without a sample could not be read.
            absent = None if self.live else 0.0
            out[name] = summary(live[name])["median"] if live[name] else absent
        return out

    def _count_calls(self) -> int:
        """Function calls (Python and builtin, as cProfile counts them)
        made inside one ``simulate()``."""
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        sys.setprofile(profiler)
        try:
            self._simulate()
        finally:
            sys.setprofile(None)
        return calls

    def _generation_s(self) -> float:
        with self.host.beside() as at:
            started = perf_counter()
            for __ in self.prepared.trace.chunks():
                pass
            wall_s = perf_counter() - started
        return wall_s * at.speed

    def _admit_direct_us(self) -> float:
        """``LivePoolService.admit`` over the same arrivals, in process:
        lock + clock + histogram around the bare engine, no HTTP."""
        p = self.prepared
        service = LivePoolService(p.trace, p.policy, p.memory_mb, clock=SimClock())
        arrivals = [(inv.function_name, inv.time_s) for inv in p.trace]
        with self.host.beside() as at:
            started = perf_counter()
            for name, now_s in arrivals:
                service.admit(name, now_s)
            wall_s = perf_counter() - started
        same = service.counters() == self.reference.metrics.counters()
        self._repeat(same, "in-process admit() disagrees with the offline replay")
        return wall_s * at.speed / len(arrivals) * 1e6

    def _open_loop(self, into) -> None:
        """Poisson arrivals against a real-clock child (default tick).
        The pool is sized for the concurrency real seconds-long
        invocations reach at this rate, so decisions are not drops."""
        p = self.prepared
        total = int(OPEN_LOOP_RATE_PER_S * self.plan.open_loop_s)
        names = [inv.function_name for inv in p.trace]
        requests = [encode_admit(names[i % len(names)]) for i in range(total)]
        path = os.path.join(self.tmp_dir, f"{self.workload.name}.open.json")
        with ExitStack() as cleanup:
            save_trace_json(p.trace, path)
            cleanup.callback(os.unlink, path)
            child = cleanup.enter_context(
                ServerChild(str(SRC), path, p.policy, 8.0 * p.memory_mb, False)
            )
            with self.host.beside() as at:
                run = open_loop(
                    child.host, child.port, requests, OPEN_LOOP_RATE_PER_S, self.seed
                )
        latencies, lateness = sorted(run.latencies_s), sorted(run.lateness_s)
        to_us = 1e6 * at.speed
        for name, value in (
            ("live.open.p50_us", _scaled(percentile(latencies, 50), to_us)),
            ("live.open.p99_us", _scaled(percentile(latencies, 99), to_us)),
            ("live.open.late_p99_us", _scaled(percentile(lateness, 99), to_us)),
            ("live.open.fail_share", run.failed / run.attempted),
        ):
            if value is not None:
                into[name].append(value)

    # -- results --------------------------------------------------------

    def end_to_end(self, names: Sequence[str]) -> Dict[str, Dict[str, float]]:
        """Median, quartiles and n of every end-to-end metric. A replay
        workload has no serve child: one arrival is one decision, and
        the mean microseconds an arrival takes stand where the round
        trips would (README.md, "Every metric on every workload")."""
        samples = dict(self.samples)
        if not self.live and samples.get("inv_per_s"):
            samples["decisions_per_s"] = samples["inv_per_s"]
            samples["rtt_p50_us"] = [1e6 / v for v in samples["inv_per_s"]]
            samples["rtt_p99_us"] = samples["rtt_p50_us"]
        return {n: summary(samples[n]) for n in names if samples.get(n)}


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


# ----------------------------------------------------------------------
# One set: set-up, rotated rounds, peak pass, traced pass
# ----------------------------------------------------------------------


def run_set(
    names: Sequence[str],
    seed: int,
    plan: Plan,
    passes: Tuple[bool, bool],
    expected: Dict[str, str],
    spec: dict,
) -> dict:
    """Measure the named workloads once; ``passes`` selects the timed
    (end-to-end) and the traced (per-layer) pass."""
    timed, traced = passes
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    live_layers = [
        m["name"] for m in spec["per_layer"] if m["name"].startswith("live.")
    ]
    report: dict = {"seed": seed, "size": plan.size_name, "workloads": {}}
    host = Host()
    with tempfile.TemporaryDirectory(prefix=".ledger_tmp_", dir=ROOT) as tmp_dir:
        benches = [Bench(BY_NAME[n], seed, plan, tmp_dir, host) for n in names]
        for bench in benches:
            bench.set_up(expected.get(bench.workload.name))
        if timed:
            for bench in benches:
                if plan.warm_up:
                    repeat_s = bench.warm_up()
                    if plan.seconds is not None:
                        fit = int(plan.seconds / max(repeat_s, 1e-3))
                        bench.rounds_wanted = min(MAX_ROUNDS, max(MIN_ROUNDS, fit))
            # Every round runs one repeat of each workload (each beside
            # its own host samples); the order rotates so a slow phase
            # of the host lands on all of them.
            for index in range(max(b.rounds_wanted for b in benches)):
                shift = index % len(benches)
                for bench in benches[shift:] + benches[:shift]:
                    if bench.rounds_done < bench.rounds_wanted:
                        bench.timed_round()
            for bench in benches:
                bench.measure_peak()
        for bench in benches:
            entry = {
                "why": bench.workload.why,
                "fingerprint": bench.reference_fp,
                "end_to_end": bench.end_to_end(end_to_end) if timed else {},
                "per_layer": bench.traced_pass(live_layers) if traced else {},
                "probes_missing": bench.probes_missing,
                "rtt_samples": int(sum(bench.samples["rtt.n"])),
                "attempted": bench.attempted,
                "failed": bench.failed,
                "problems": bench.problems,
            }
            entry["fail_share"] = bench.failed / max(1, bench.attempted)
            report["workloads"][bench.workload.name] = entry
    report["host.calibration_s"] = summary(host.samples)
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def print_report(report: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    host = report["host.calibration_s"]
    print(
        f"host.calibration_s  median {host['median']:.5f} s  q1 {host['q1']:.5f}  "
        f"q3 {host['q3']:.5f}  n {host['n']}  (nominal {NOMINAL_CALIBRATION_S} s: "
        f"times below are measured seconds x {NOMINAL_CALIBRATION_S / host['median']:.3f})"
    )
    for name, entry in report["workloads"].items():
        print(f"== {name}: {entry['why']}")
        for metric, s in entry["end_to_end"].items():
            print(
                f"{name:15s} {metric:32s} {s['median']:14.4f} {units[metric]:10s}"
                f" q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}"
            )
        if entry["rtt_samples"]:
            print(f"{name:15s} {'rtt raw samples':32s} {entry['rtt_samples']:14d}")
        for metric, value in entry["per_layer"].items():
            shown = "null" if value is None else f"{value:14.4f}"
            print(f"{name:15s} {metric:32s} {shown:>14s} {units.get(metric, '')}")
        print(
            f"{name:15s} {'fail_share':32s} {entry['fail_share']:14.6f} share     "
            f" failed {entry['failed']} of {entry['attempted']}"
        )
        for missing in entry["probes_missing"]:
            print(f"{name:15s} probes_missing: {missing}")
        for problem in entry["problems"]:
            print(f"FAIL {problem}")


def result_line(report: dict, spec: dict, passes: Tuple[bool, bool]) -> dict:
    """The contract's last line. One workload: metrics by name; several:
    ``<workload>:<metric>``."""
    timed, traced = passes
    wanted = (spec["end_to_end"] if timed else []) + (spec["per_layer"] if traced else [])
    single = len(report["workloads"]) == 1
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    complete = True
    for name, entry in report["workloads"].items():
        attempted += entry["attempted"]
        failed += entry["failed"]
        values = {k: v["median"] for k, v in entry["end_to_end"].items()}
        values.update(entry["per_layer"])
        for metric in wanted:
            key = metric["name"] if single else f"{name}:{metric['name']}"
            if metric["name"] not in values:
                complete = False
                continue
            metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": failed == 0 and complete,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


def selfcheck(first: dict, second: dict, spec: dict) -> List[str]:
    """Where two sets of one commit disagree: end-to-end medians apart
    by more than the metric's bound, or a count that should repeat
    exactly and did not."""
    complaints: List[str] = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric in spec["end_to_end"] if a["end_to_end"] else []:
            m = metric["name"]
            if m not in a["end_to_end"] or m not in b["end_to_end"]:
                complaints.append(f"{name}: {m} missing from a set")
                continue
            x, y = a["end_to_end"][m]["median"], b["end_to_end"][m]["median"]
            apart = abs(x - y) / min(x, y)
            if apart > metric["bound"]:
                complaints.append(
                    f"{name}: {m} reads {x:.4f} then {y:.4f} {metric['unit']} "
                    f"({apart:.1%} apart, bound {metric['bound']:.0%})"
                )
        for m, x in a["per_layer"].items():
            exact = m.startswith("outcome.") or m == "replay.py_calls_per_inv"
            if exact and x != b["per_layer"].get(m):
                complaints.append(
                    f"{name}: {m} reads {x} then {b['per_layer'].get(m)}; it must repeat"
                )
        for entry in (a, b):
            if entry["failed"]:
                complaints.append(f"{name}: fail_share {entry['fail_share']:.6f}")
    return complaints


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="run only this workload (repeatable; default: all seven)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed-round budget per workload (default: 15 replay / 9 live rounds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: per-layer only (default: both)",
    )
    parser.add_argument("--smoke", action="store_true", help="tenth-size, 2 rounds")
    parser.add_argument("--selfcheck", action="store_true", help="two sets, compared")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin EXPECTED.json for this size and exit")
    parser.add_argument("--out", metavar="FILE", help="also write the full report")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w.name for w in WORKLOADS]
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    plan = SMOKE if args.smoke else FULL
    if args.seconds is not None:
        plan = replace(plan, seconds=args.seconds)
    passes = (args.trace != 1, args.trace != 0)

    expected_path = HERE / "EXPECTED.json"
    pinned = json.loads(expected_path.read_text()) if expected_path.is_file() else {}
    if args.write_expected:
        if seed != DEFAULT_SEED:
            parser.error("--write-expected pins the default seed only")
        report = run_set(names, seed, plan, (False, False), {}, spec)
        pinned.setdefault(plan.size_name, {}).update(
            {n: e["fingerprint"] for n, e in report["workloads"].items()}
        )
        expected_path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"wrote {expected_path}")
        return 0
    # Only the default seed has pinned results; any other seed is held
    # to repeat-to-repeat and live-vs-offline equality alone.
    expected = pinned.get(plan.size_name, {}) if seed == DEFAULT_SEED else {}

    reports = [run_set(names, seed, plan, passes, expected, spec)]
    if args.selfcheck:
        reports.append(run_set(names, seed, plan, passes, expected, spec))
    for index, report in enumerate(reports):
        if args.selfcheck:
            print(f"#### set {index + 1} of {len(reports)}")
        print_report(report, spec)
    complaints = selfcheck(reports[0], reports[1], spec) if args.selfcheck else []
    for complaint in complaints:
        print(f"SELFCHECK {complaint}")
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=2) + "\n")
    line = result_line(reports[-1], spec, passes)
    print(json.dumps(line))
    return 0 if line["correct"] and not complaints else 1


if __name__ == "__main__":
    sys.exit(main())
