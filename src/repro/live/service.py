"""Thread-safe live facade over the keep-alive engine.

:class:`LivePoolService` is the seam between real-time frontends and
the deterministic core: it wraps the *same* :class:`KeepAliveSimulator`
engine the trace replay uses (one policy engine, two drivers —
docs/live-serving.md), stamps arrivals from a
:class:`~repro.core.clock.Clock`, and serializes every entry point
behind a single :class:`threading.Lock`.

Lock discipline: the lock is acquired at the top of
every public method that touches the engine (``admit`` is one
``admit_many`` call, which decides a run of arrivals under one
acquisition) and nothing under it blocks — admission decisions
are microseconds of pure computation — so any number of frontend
threads (one per HTTP connection, plus the expiry timer) can share one
service. No pool or policy state is ever touched outside the lock, and
a frontend writes nothing to a socket while holding it.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.clock import Clock, RealTimeClock, wall_clock_s
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.live.latency import LatencyHistogram
from repro.obs.tracer import Tracer
from repro.sim.config import RunConfig
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace

__all__ = ["AdmitDecision", "LivePoolService", "UnknownFunctionError"]


class UnknownFunctionError(KeyError):
    """Admission was requested for a function the service never saw in
    its registry (frontends map this to HTTP 404)."""


class AdmitDecision(NamedTuple):
    """One admission decision as the frontend reports it."""

    outcome: str  # 'warm' | 'cold' | 'dropped' | 'retried' | 'shed'
    function: str
    now_s: float  # service-clock time the decision was made at
    decision_latency_s: float  # wall time spent inside the engine


# AdmitDecision(...) without its generated __new__'s Python frame.
_new_tuple: Callable[..., Any] = tuple.__new__


class LivePoolService:
    """Drives one ContainerPool + policy engine from live requests.

    ``trace`` supplies the function registry (names, memory, warm/cold
    times) — its invocations, if any, are ignored; live arrivals come
    from :meth:`admit`. ``clock`` defaults to a
    :class:`~repro.core.clock.RealTimeClock`; passing a
    :class:`~repro.core.clock.SimClock` (and per-request ``now_s``
    values) makes the service a deterministic replay target, which is
    how the sim/live equivalence tests and the ``live_smoke`` bench
    scenario pin live mode to the simulator's byte-exact results.
    """

    def __init__(
        self,
        trace: Trace,
        policy: Union[str, KeepAlivePolicy],
        memory_mb: float,
        clock: Optional[Clock] = None,
        tracer: Optional[Tracer] = None,
        config: Optional[RunConfig] = None,
        **kwargs,
    ) -> None:
        """``config`` / its fields as keywords (``tenant_mode=…``,
        ``tenant_quotas=…``, ...) configure the engine exactly as they
        do :func:`repro.sim.scheduler.simulate`; the remaining keywords
        configure the policy and need a policy *name*."""
        config, policy_kwargs = RunConfig.split(kwargs, config)
        if isinstance(policy, str):
            policy = create_policy(policy, **policy_kwargs)
        elif policy_kwargs:
            raise ValueError("policy_kwargs are only valid with a policy name")
        self._lock = threading.Lock()
        self._sim = KeepAliveSimulator(
            trace, policy, memory_mb, config, tracer=tracer
        )
        self._functions = trace.functions
        self._clock: Clock = clock if clock is not None else RealTimeClock()
        # SimClock drivers carry their own instants; a clock without
        # advance_to (the real-time one) ignores per-request times. Like
        # SimClock's, an ``advance_to`` returns the clock's ``now()``
        # (the replay loop reads its timestamps the same way).
        self._advance_to = getattr(self._clock, "advance_to", None)
        self._decision_latency = LatencyHistogram()
        self._outcomes: Dict[str, int] = {}
        self._started_wall_s = wall_clock_s()

    # ------------------------------------------------------------------
    # Clock plumbing (callers hold the lock)
    # ------------------------------------------------------------------

    def _resolve_now(self, now_s: Optional[float]) -> float:
        if now_s is not None and self._advance_to is not None:
            return self._advance_to(now_s)
        return self._clock.now()

    # ------------------------------------------------------------------
    # Public API — every method takes the lock for its whole body
    # ------------------------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self._clock

    def function_names(self) -> Tuple[str, ...]:
        """The registered function names (stable registry; no lock
        needed — the mapping is never mutated after construction)."""
        return tuple(self._functions)

    def admit(
        self, function_name: str, now_s: Optional[float] = None
    ) -> AdmitDecision:
        """Decide one arrival: warm hit, cold start, or drop.

        ``now_s`` is only honoured under an advanceable (sim) clock;
        under the real-time clock the service stamps the arrival
        itself, so clients cannot time-travel the pool. Raises
        :class:`UnknownFunctionError`, or what the engine raised.
        """
        result = self.admit_many(((function_name, now_s),))[0]
        if isinstance(result, Exception):
            raise result
        return result

    def admit_many(
        self, arrivals: Sequence[Tuple[str, Optional[float]]]
    ) -> List[Union[AdmitDecision, Exception]]:
        """Decide ``(function_name, now_s)`` arrivals in order, under
        one lock acquisition: per arrival its :class:`AdmitDecision`,
        or the exception that refused that arrival alone
        (:class:`UnknownFunctionError`, or what the engine raised).
        Each decision is timed on its own into the latency histogram."""
        with self._lock:
            function_of = self._functions.get
            advance_to = self._advance_to
            clock_now = self._clock.now
            process = self._sim.process_invocation
            record = self._decision_latency.record
            wall = wall_clock_s  # read twice per decision
            outcomes = self._outcomes
            results: List[Union[AdmitDecision, Exception]] = []
            append = results.append
            for name, now_s in arrivals:
                function = function_of(name)
                if function is None:
                    append(UnknownFunctionError(name))
                    continue
                try:
                    if now_s is not None and advance_to is not None:
                        now = advance_to(now_s)
                    else:
                        now = clock_now()
                    entered_s = wall()
                    outcome = process(function, now)
                    latency_s = wall() - entered_s
                except Exception as exc:  # noqa: BLE001 - refuses this arrival alone
                    append(exc)
                    continue
                record(latency_s)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                append(_new_tuple(AdmitDecision, (outcome, name, now, latency_s)))
            return results

    def release(self, now_s: Optional[float] = None) -> int:
        """Return finished invocations to the warm pool (and apply any
        other housekeeping due by now). Returns how many completed."""
        with self._lock:
            now = self._resolve_now(now_s)
            before = self._sim.outstanding
            self._sim.housekeeping(now)
            return before - self._sim.outstanding

    def expire_tick(self, now_s: Optional[float] = None) -> int:
        """Timer entry point: drain the expiry heap (plus completions
        and due prewarms) up to now. Returns expirations applied —
        this is what keeps idle periods from pinning dead containers,
        since no arrival would otherwise trigger the sweep."""
        with self._lock:
            now = self._resolve_now(now_s)
            before = self._sim.metrics.expirations
            self._sim.housekeeping(now)
            return self._sim.metrics.expirations - before

    def stats(self) -> dict:
        """JSON-ready snapshot: engine counters, per-outcome decision
        counts, pool occupancy, and the decision-latency histogram."""
        with self._lock:
            pool = self._sim.pool
            return {
                "counters": dict(self._sim.metrics.counters()),
                "decisions": dict(self._outcomes),
                "outstanding": self._sim.outstanding,
                "pool": {
                    "capacity_mb": pool.capacity_mb,
                    "used_mb": pool.used_mb,
                    "free_mb": pool.free_mb,
                    "containers": len(pool),
                },
                "decision_latency": self._decision_latency.summary(),
                "clock_now_s": self._clock.now(),
                "uptime_s": wall_clock_s() - self._started_wall_s,
            }

    def counters(self) -> Dict[str, int]:
        """The engine's aggregate lifecycle counters (the counter
        table's keys, as SimulationMetrics.counters() reports them)."""
        with self._lock:
            return dict(self._sim.metrics.counters())
