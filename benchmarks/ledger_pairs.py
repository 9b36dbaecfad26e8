"""Alternating parent/change pairs of the ledger, one command.

The measuring protocol behind every performance claim in this
repository (docs/performance.md): run ``benchmarks/ledger/run.py`` on a
base commit and on this working tree in N alternating pairs, print each
end-to-end metric's median and quartiles per side with the per-pair
win count and a verdict (:func:`verdict`: ``gain``, ``within bound``,
``unresolved`` or ``WORSE``, from ``BENCHMARK.json``'s bounds), and fail
if any run was not ``correct: true`` or any metric reads ``WORSE``.
``--layers`` runs the same pairs traced (``--trace 1``) and summarises
the per-layer rows instead: "the ledger row that moved", by the same
protocol.

    python benchmarks/ledger_pairs.py --base HEAD~1 --workloads gd_evict gd_warm
    make ledger-pairs BASE=HEAD~1 WORKLOADS="gd_evict gd_warm"
    make ledger-pairs BASE=HEAD~1 WORKLOADS=live_pipelined LAYERS=1
    make ledger-pairs BASE=HEAD~1 WORKLOADS=ttl_stream PAIRS=5 SEED=7

``--base REF`` is checked out into a temporary ``git worktree`` that is
removed afterwards; ``--base-dir DIR`` uses an existing checkout of the
base instead. This file only *calls* the ledger, one fresh process per
(side, workload) exactly as the driver does; it owns no workload,
metric or bound.

Both sides run with the same bytecode-cache state: each gets its own
``PYTHONPYCACHEPREFIX`` directory, filled by one discarded ``--smoke``
run per workload before the first pair. Left to the trees, a fresh
worktree has no ``__pycache__`` and a working tree usually does, which
alone moves ``setup_s`` by a quarter and ``server_rss_mb`` by 0.8 MB.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def run_ledger(tree: Path, env: Dict[str, str], workload: str, *options: str) -> dict:
    """One end-to-end ledger run in a fresh process; its closing result line."""
    command = [
        sys.executable, "benchmarks/ledger/run.py", "--workload", workload, *options,
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return {"correct": False, "metrics": {}}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), by the rule the ledger's own summary uses."""
    q1, __, q3 = quantiles(values, n=4) if len(values) >= 2 else values * 3
    return q1, median(values), q3


def headline(values: Dict[str, Optional[float]]) -> str:
    """The one number of a run worth a progress line: what the server
    decided per second where the workload has a server (``inv_per_s`` is
    then its offline reference replay), else the replay's own rate; on a
    traced run, the server's CPU per request or the replay's call count."""
    names = ["inv_per_s", "live.server.cpu_us_per_req", "replay.py_calls_per_inv"]
    if values.get("decisions_per_s") != values.get("inv_per_s"):
        names.insert(0, "decisions_per_s")
    for name in names:
        if values.get(name):
            return f"{name}={values[name]:.1f}"
    return "no headline metric"


def ratio(change: float, base: float) -> float:
    return change / base if base else float("nan")


def tally(base: List[float], change: List[float], higher: bool) -> Tuple[int, int]:
    """(pairs in which the change read better, pairs that tied)."""
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    return wins, sum(c == b for b, c in zip(base, change))


def verdict(base: List[float], change: List[float], higher: bool, bound: float) -> str:
    """What the pairs say of one end-to-end metric, by the rule every
    claim here is held to (choosing-metrics, "measuring in a small
    sandbox"), ``bound`` being the share of the base's median the
    benchmark lets the metric worsen by. ``gain``: the change wins at
    least nine tenths of the untied pairs and the medians differ by
    more than the distance between the base's quartiles. ``WORSE``: the
    change's median is beyond the bound, the wrong way. ``unresolved``:
    the base's own quartiles are further apart than the bound, and not
    every run of the change reads better than every run of the base.
    ``within bound`` otherwise."""
    (bq1, bmed, bq3), cmed = quartiles(base), median(change)
    ahead = cmed - bmed if higher else bmed - cmed
    wins, ties = tally(base, change, higher)
    untied = len(base) - ties
    if untied and wins >= 0.9 * untied and ahead > bq3 - bq1:
        return "gain"
    if -ahead > bound * abs(bmed):
        return "WORSE"
    clear = min(change) > max(base) if higher else max(change) < min(base)
    if bq3 - bq1 > bound * abs(bmed) and not clear:
        return "unresolved"
    return "within bound"


def verdicts(
    runs: Dict[str, List[Dict[str, Optional[float]]]],
    better: Dict[str, str],
    bounds: Dict[str, float],
) -> Dict[str, str]:
    """The :func:`verdict` of every metric that has a bound (the
    end-to-end ones) and was read in every run."""
    words = {}
    for metric, bound in bounds.items():
        base, change = ([run.get(metric) for run in runs[side]] for side in SIDES)
        if None not in base + change:
            words[metric] = verdict(base, change, better[metric] == "higher", bound)
    return words


def summarize(
    runs: Dict[str, List[Dict[str, Optional[float]]]],
    better: Dict[str, str],
    words: Dict[str, str],
) -> List[str]:
    """One line per metric: both sides' medians and quartiles, the
    ratio of medians, in how many pairs the change read better and its
    word in ``words`` (:func:`verdicts`) where it has one. A
    row that repeats exactly on each side (the ``*_calls`` counts of a
    traced run) is shown as the two counts it is; a row that is zero
    throughout (a layer this workload never enters) is left out."""
    lines = []
    width = max(map(len, runs["base"][0]))
    for metric in runs["base"][0]:
        base = [run[metric] for run in runs["base"]]
        change = [run[metric] for run in runs["change"]]
        if None in base or None in change:
            lines.append(f"  {metric:{width}s} null in some run: a layer not read")
            continue
        word = f"  {words[metric]}" if metric in words else ""
        if len(base) > 1 and len(set(base)) == 1 == len(set(change)):
            if base[0] or change[0]:
                lines.append(
                    f"  {metric:{width}s} base {base[0]:12.4f}  change {change[0]:12.4f}  "
                    f"x{ratio(change[0], base[0]):.3f}  "
                    f"exactly, in all {len(base)} runs of each side{word}"
                )
        else:
            wins, ties = tally(base, change, better.get(metric) == "higher")
            (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
            lines.append(
                f"  {metric:{width}s} base {bmed:12.4f} [{bq1:.4f} {bq3:.4f}]  "
                f"change {cmed:12.4f} [{cq1:.4f} {cq3:.4f}]  "
                f"x{ratio(cmed, bmed):.3f}  "
                f"wins {wins}/{len(base)} ties {ties} ({better.get(metric, '?')} is better)"
                f"{word}"
            )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--base", metavar="REF", help="git ref of the base commit")
    source.add_argument("--base-dir", metavar="DIR", help="existing checkout of the base")
    parser.add_argument("--workloads", nargs="+", default=["gd_evict", "gd_warm"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=7.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--layers", action="store_true",
        help="traced pairs (--trace 1): summarise the per-layer rows, not the end-to-end ones",
    )
    parser.add_argument("--out", metavar="FILE", help="also write every run as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="ledger-pairs-"))
    worktree: Optional[Path] = None
    if args.base_dir:
        base_tree = Path(args.base_dir).resolve()
    else:
        worktree = base_tree = scratch / "base"
    trees = {"base": base_tree, "change": ROOT}
    # A prefix replaces every in-tree ``__pycache__`` (the standard
    # library's too); the warm-up runs must be allowed to fill it.
    writable = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {
        side: dict(writable, PYTHONPYCACHEPREFIX=str(scratch / f"pycache-{side}"))
        for side in SIDES
    }
    options = ["--trace", "1" if args.layers else "0", "--seconds", str(args.seconds)]
    if args.seed is not None:
        options += ["--seed", str(args.seed)]
    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        w: {side: [] for side in SIDES} for w in args.workloads
    }
    incorrect: List[str] = []
    worse: List[str] = []
    try:
        if worktree is not None:
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(worktree), args.base],
                cwd=ROOT, check=True, capture_output=True,
            )
        for side in SIDES:
            for workload in args.workloads:
                run_ledger(trees[side], envs[side], workload, "--trace", "0", "--smoke")
        print(
            f"bytecode caches: PYTHONPYCACHEPREFIX={scratch}/pycache-<side>, each "
            "filled by one discarded --smoke run per workload (in-tree "
            "__pycache__ unused on both sides)",
            flush=True,
        )
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                for side in order:
                    line = run_ledger(trees[side], envs[side], workload, *options)
                    if not line.get("correct"):
                        incorrect.append(f"pair {pair + 1} {side} {workload}")
                    values = {k: v["value"] for k, v in line["metrics"].items()}
                    runs[workload][side].append(values)
                    print(
                        f"pair {pair + 1:2d} {side:6s} {workload:14s} "
                        f"correct={line.get('correct')} {headline(values)}",
                        flush=True,
                    )
    finally:
        if worktree is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)],
                cwd=ROOT, capture_output=True,
            )
        shutil.rmtree(scratch, ignore_errors=True)
    for workload in args.workloads:
        kind = "traced (per-layer)" if args.layers else f"{args.seconds:g} s"
        print(f"== {workload}: {args.pairs} alternating pairs, {kind} runs")
        if all(len(r) == args.pairs and all(r) for r in runs[workload].values()):
            words = verdicts(runs[workload], better, bounds)
            print("\n".join(summarize(runs[workload], better, words)))
            worse += [f"{workload} {m}" for m, word in words.items() if word == "WORSE"]
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=2) + "\n")
    for entry in incorrect:
        print(f"NOT CORRECT {entry}")
    for entry in worse:
        print(f"WORSE {entry}")
    return 1 if incorrect or worse else 0


if __name__ == "__main__":
    sys.exit(main())
