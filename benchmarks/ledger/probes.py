"""Timing probes installed from outside the program.

The traced pass wraps each layer's public callables with a span timer.
Spans nest on a stack: when a span closes, its duration is charged to
its parent as child time, and a span's *self* time is its duration
minus that child time, so the layers' self times partition the time
spent inside probes. Totals are accumulated per ledger key in memory
and read once the pass is over.

The probe table names targets as ``(module, class, attribute)``; an
attribute ending in ``*`` matches by prefix. A probe whose targets no
longer exist is reported in ``missing`` (and its ledger key reads
``null``), never raised: internals may be renamed under this file.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Target = Tuple[str, str, str]

_POOL = "repro.core.pool"
_POLICIES = (
    ("repro.core.policies.base", "KeepAlivePolicy"),
    ("repro.core.policies.greedy_dual", "GreedyDualPolicy"),
    ("repro.core.policies.histogram", "HistogramPolicy"),
)


def _pool(*attrs: str) -> Dict[str, List[Target]]:
    return {a: [(_POOL, "ContainerPool", a)] for a in attrs}


def _policy(*attrs: str) -> Dict[str, List[Target]]:
    # A hook may be defined on the base class, overridden on the
    # concrete policy, or both: every definition found is wrapped.
    return {a: [(m, c, a) for m, c in _POLICIES] for a in attrs}


#: ``*us`` metric name -> probe name -> candidate targets. The calls
#: metric of a row swaps the trailing ``us`` for ``calls``.
PROBE_TABLE: Dict[str, Dict[str, List[Target]]] = {
    "sim.scheduler.self_us": {
        a: [("repro.sim.scheduler", "KeepAliveSimulator", a)]
        for a in ("process_invocation", "housekeeping", "finalize")
    },
    "core.pool.lookup_us": _pool("idle_warm_container", "can_admit"),
    "core.pool.add_evict_us": _pool("add", "evict"),
    "core.pool.victims_us": _pool("iter_victims", "take_victims", "evictable_mb"),
    "core.pool.expiry_us": _pool("schedule_expiry", "pop_expired", "next_expiry_s"),
    "core.pool.deflate_us": _pool("set_capacity", "deflate_to", "resume_deflation"),
    "core.policies.hooks_us": _policy(
        "on_invocation", "on_warm_start", "on_cold_start", "on_evict",
        "on_prewarm", "should_retain",
    ),
    "core.policies.select_us": _policy("select_victims", "select_victims_tenant"),
    "core.policies.expiry_us": _policy(
        "expired_containers", "next_expiry_s", "due_prewarms", "next_prewarm_s"
    ),
    "core.container.us": {
        a: [("repro.core.container", "Container", a)]
        for a in ("__init__", "start_invocation", "finish_invocation", "terminate")
    },
    "sim.metrics.us": {
        "record_*": [("repro.sim.metrics", "SimulationMetrics", "record_*")]
    },
    "faults.us": {
        "invocation_fault": [("repro.faults.model", "FaultModel", "invocation_fault")],
        "spawn_fails": [("repro.faults.model", "FaultModel", "spawn_fails")],
        "next_delay": [("repro.faults.retry", "RetryPolicy", "next_delay")],
    },
}


def calls_name(us_name: str) -> str:
    """``core.pool.lookup_us`` -> ``core.pool.lookup_calls``."""
    return us_name[: -len("us")] + "calls"


class SpanLedger:
    """Per-key self time and call counts, from a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        # key -> [raw self seconds, calls, child spans closed under it]
        self._totals: Dict[str, List[float]] = {}
        # One cell per open span: [seconds its closed children covered,
        # how many children that was].
        self._stack: List[List[float]] = []
        # What one probe costs, measured by calibrate(): seconds inside
        # the probe's own timed interval, and seconds the caller sees
        # around it. Subtracted per call when reading self times.
        self.inner_s = 0.0
        self.outer_s = 0.0

    def wrap(self, key: str, function: Callable) -> Callable:
        """``function`` timed as a span charged to ``key``."""
        stack, clock = self._stack, self._clock
        total = self._totals.setdefault(key, [0.0, 0, 0])

        def close(cell: List[float], duration: float, count: int) -> None:
            # Duration minus what the children covered is this span's
            # self time; the parent sees the whole duration as a child.
            stack.pop()
            total[0] += duration - cell[0]
            total[1] += count
            total[2] += cell[1]
            if stack:
                parent = stack[-1]
                parent[0] += duration
                parent[1] += 1

        if inspect.isgeneratorfunction(function):
            # A generator runs between its caller's next() calls: each
            # resumption is a span (one *call* per generator made).
            def probe(*args, **kwargs):
                generator = function(*args, **kwargs)
                count = 1
                try:
                    while True:
                        cell = [0.0, 0]
                        stack.append(cell)
                        started = clock()
                        try:
                            item = next(generator)
                        except StopIteration:
                            return
                        finally:
                            close(cell, clock() - started, count)
                            count = 0
                        yield item
                finally:
                    generator.close()

        else:

            def probe(*args, **kwargs):
                cell = [0.0, 0]
                stack.append(cell)
                started = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    close(cell, clock() - started, 1)

        probe.__wrapped__ = function
        return probe

    def calls(self, key: str) -> int:
        return int(self._totals.get(key, (0.0, 0, 0))[1])

    def self_s(self, key: str) -> float:
        """Self time of ``key`` with the probes' own cost taken out:
        ``inner_s`` per span of the key, ``outer_s`` per child span."""
        raw, calls, children = self._totals.get(key, (0.0, 0, 0))
        return max(0.0, raw - calls * self.inner_s - children * self.outer_s)

    def raw_probed_s(self) -> float:
        """Wall time spent inside any probe, probe cost included."""
        return sum(total[0] for total in self._totals.values())

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure ``inner_s`` / ``outer_s`` on an empty function probed
        under a probed caller, against the same loop unprobed."""

        def leaf(a, b=None):
            return None

        def caller(function):
            for __ in range(calls):
                function(1, b=2)

        def empty_loop(function):
            for __ in range(calls):
                pass

        def timed(body, function) -> float:
            started = self._clock()
            body(function)
            return (self._clock() - started) / calls

        inner, outer = [], []
        for __ in range(repeats):
            scratch = SpanLedger(self._clock)
            scratch.wrap("caller", caller)(scratch.wrap("leaf", leaf))
            loop_s = timed(empty_loop, leaf)
            call_s = timed(caller, leaf) - loop_s
            inner.append(scratch._totals["leaf"][0] / calls - call_s)
            outer.append(scratch._totals["caller"][0] / calls - loop_s)
        self.inner_s = max(0.0, sorted(inner)[repeats // 2])
        self.outer_s = max(0.0, sorted(outer)[repeats // 2])


def _resolve(target: Target) -> List[Tuple[type, str]]:
    """The ``(class, attribute)`` pairs a target names that exist as
    plain functions defined on that very class."""
    module_name, class_name, attribute = target
    try:
        cls = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError):
        return []
    if attribute.endswith("*"):
        names = [n for n in vars(cls) if n.startswith(attribute[:-1])]
    else:
        names = [attribute]
    return [
        (cls, n) for n in sorted(names) if inspect.isfunction(vars(cls).get(n))
    ]


class Probes:
    """Installs the probe table on entry, removes it on exit."""

    def __init__(self, table: Optional[Dict[str, Dict[str, List[Target]]]] = None):
        self.table = PROBE_TABLE if table is None else table
        self.ledger = SpanLedger()
        self.ledger.calibrate()
        #: ``"<key>:<probe>"`` for every probe with no target left.
        self.missing: List[str] = []
        self._originals: List[Tuple[type, str, Callable]] = []

    def __enter__(self) -> "Probes":
        for key, probes in self.table.items():
            for probe_name, targets in probes.items():
                found = [pair for t in targets for pair in _resolve(t)]
                if not found:
                    self.missing.append(f"{key}:{probe_name}")
                for cls, name in found:
                    original = vars(cls)[name]
                    self._originals.append((cls, name, original))
                    setattr(cls, name, self.ledger.wrap(key, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals.clear()

    def layer_metrics(self, arrivals: int) -> Dict[str, Optional[float]]:
        """Self time in microseconds and calls, per arrival, for every
        row of the table; ``None`` for a row with a missing probe."""
        holes = {entry.split(":", 1)[0] for entry in self.missing}
        out: Dict[str, Optional[float]] = {}
        for key in self.table:
            if key in holes:
                out[key] = out[calls_name(key)] = None
                continue
            out[key] = self.ledger.self_s(key) * 1e6 / arrivals
            out[calls_name(key)] = self.ledger.calls(key) / arrivals
        return out
