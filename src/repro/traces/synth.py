"""Synthetic litmus workloads for the OpenWhisk evaluation (Section 7.2).

Figure 7 uses three kinds of skewed workload traces — a skewed
*frequency* workload (one function invoked much more often than the
rest), a *cyclic* access pattern, and a skewed *size* workload (two
memory-size classes). Figure 8 uses the Table 1 FunctionBench
applications with the paper's stated inter-arrival times: 1500 ms for
the CNN, disk-bench, and web-serving functions and 400 ms for the
floating-point function.

All generators are deterministic given a seed: arrivals are periodic
with optional exponential jitter so container reuse patterns are
realistic rather than metronomic.

Two stress workloads for the simulator's own tests close the module:
a keep-alive churn trace (:func:`churn_trace`) and a working set far
above capacity (:func:`eviction_trace`); ``tests/test_pinned_replays.py``
pins their replays' metrics.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.domains import int_at_least, nonneg, positive, probability
from repro.traces.functionbench import functionbench_apps
from repro.traces.model import Invocation, Trace, TraceFunction

__all__ = [
    "periodic_arrivals",
    "bursty_arrivals",
    "skewed_frequency_trace",
    "cyclic_trace",
    "skewed_size_trace",
    "figure8_trace",
    "multitenant_trace",
    "noisy_neighbor_trace",
    "harvest_day_trace",
    "churn_trace",
    "eviction_trace",
]


def periodic_arrivals(
    function_name: str,
    interarrival_s: float,
    duration_s: float,
    start_s: float = 0.0,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
) -> List[Invocation]:
    """Periodic arrivals with optional multiplicative exponential jitter.

    ``jitter`` of 0 gives exact periodicity; 1.0 gives a Poisson
    process with the same mean rate (each gap drawn exponentially).
    Intermediate values interpolate linearly between the two.
    """
    positive.check("interarrival_s", interarrival_s)
    probability.check("jitter", jitter)
    if jitter > 0 and rng is None:
        rng = random.Random(0)
    arrivals: List[Invocation] = []
    t = start_s
    while t < start_s + duration_s:
        arrivals.append(Invocation(t, function_name))
        gap = interarrival_s
        if jitter > 0:
            exponential = rng.expovariate(1.0 / interarrival_s)
            gap = (1.0 - jitter) * interarrival_s + jitter * exponential
        t += max(gap, 1e-6)
    return arrivals


def bursty_arrivals(
    function_name: str,
    burst_rate_per_s: float,
    burst_duration_s: float,
    idle_duration_s: float,
    total_duration_s: float,
    start_s: float = 0.0,
    rng: Optional[random.Random] = None,
) -> List[Invocation]:
    """On/off (interrupted-Poisson) arrivals: Poisson bursts separated
    by idle gaps.

    FaaS workloads are bursty, not just diurnal — the controller and
    keep-alive experiments need arrival processes whose short-term
    rate departs violently from the mean. Burst and idle lengths are
    exponential with the given means; within a burst, arrivals are
    Poisson at ``burst_rate_per_s``.
    """
    positive.check("burst_rate_per_s", burst_rate_per_s)
    positive.check("burst_duration_s", burst_duration_s)
    nonneg.check("idle_duration_s", idle_duration_s)
    rng = rng if rng is not None else random.Random(0)
    arrivals: List[Invocation] = []
    t = start_s
    end = start_s + total_duration_s
    while t < end:
        burst_end = t + rng.expovariate(1.0 / burst_duration_s)
        while t < min(burst_end, end):
            arrivals.append(Invocation(t, function_name))
            t += rng.expovariate(burst_rate_per_s)
        if idle_duration_s > 0:
            t = burst_end + rng.expovariate(1.0 / idle_duration_s)
        else:
            t = burst_end
    return arrivals


def skewed_frequency_trace(
    duration_s: float = 7200.0,
    hot_interarrival_s: float = 0.4,
    cold_interarrival_s: float = 1.5,
    jitter: float = 0.3,
    seed: int = 42,
) -> Trace:
    """One function invoked far more frequently than the others.

    Mirrors the paper's skewed-frequency workload: the floating-point
    function arrives every 400 ms while the CNN, disk-bench, and
    web-serving functions arrive every 1500 ms.
    """
    rng = random.Random(seed)
    apps = functionbench_apps()
    hot = apps["floating-point"]
    cold_names = ("ml-inference-cnn", "disk-bench-dd", "web-serving")
    invocations = periodic_arrivals(
        hot.name, hot_interarrival_s, duration_s, jitter=jitter, rng=rng
    )
    for name in cold_names:
        invocations += periodic_arrivals(
            name,
            cold_interarrival_s,
            duration_s,
            start_s=rng.uniform(0, cold_interarrival_s),
            jitter=jitter,
            rng=rng,
        )
    functions = [hot] + [apps[name] for name in cold_names]
    return Trace(functions, invocations, name="skewed-frequency")


def cyclic_trace(
    num_functions: int = 12,
    cycle_gap_s: float = 2.0,
    num_cycles: int = 400,
    memory_choices_mb: Sequence[float] = (128.0, 256.0, 384.0, 512.0),
    init_choices_s: Sequence[float] = (4.0, 3.0, 2.0, 1.0),
    warm_time_s: float = 0.5,
    seed: int = 42,
) -> Trace:
    """A strict cyclic access pattern: f0, f1, ..., fN-1, f0, f1, ...

    Cyclic access is the classic LRU-adversarial pattern: when the
    cache is smaller than the working set, LRU misses every access.
    The cycle's functions are *heterogeneous* (sizes and init costs
    drawn round-robin from the choice lists, deliberately out of
    phase), so value-aware policies like Greedy-Dual can pin the
    high-value subset (small and expensive-to-initialize functions)
    while recency-only policies thrash.

    With identical functions, Greedy-Dual provably degenerates to LRU
    (equal value terms leave only the clock), so heterogeneity is what
    makes this workload discriminating.
    """
    int_at_least(2).check("num_functions", num_functions)  # a cycle
    functions = [
        TraceFunction(
            name=f"cyclic-{i:03d}",
            memory_mb=memory_choices_mb[i % len(memory_choices_mb)],
            warm_time_s=warm_time_s,
            cold_time_s=warm_time_s + init_choices_s[i % len(init_choices_s)],
        )
        for i in range(num_functions)
    ]
    invocations: List[Invocation] = []
    t = 0.0
    for __ in range(num_cycles):
        for func in functions:
            invocations.append(Invocation(t, func.name))
            t += cycle_gap_s
    return Trace(functions, invocations, name="cyclic")


def skewed_size_trace(
    duration_s: float = 7200.0,
    interarrival_s: float = 1.0,
    num_small: int = 6,
    num_large: int = 6,
    small_mb: float = 128.0,
    large_mb: float = 1024.0,
    warm_time_s: float = 0.5,
    init_time_s: float = 2.0,
    jitter: float = 0.3,
    seed: int = 42,
) -> Trace:
    """Two memory-size classes with equal request rates.

    Size-aware policies shine here: evicting one large container frees
    as much memory as evicting eight small ones, at the same future
    cold-start cost.
    """
    rng = random.Random(seed)
    functions: List[TraceFunction] = []
    for i in range(num_small):
        functions.append(
            TraceFunction(
                name=f"small-{i:03d}",
                memory_mb=small_mb,
                warm_time_s=warm_time_s,
                cold_time_s=warm_time_s + init_time_s,
            )
        )
    for i in range(num_large):
        functions.append(
            TraceFunction(
                name=f"large-{i:03d}",
                memory_mb=large_mb,
                warm_time_s=warm_time_s,
                cold_time_s=warm_time_s + init_time_s,
            )
        )
    invocations: List[Invocation] = []
    for func in functions:
        invocations += periodic_arrivals(
            func.name,
            interarrival_s * len(functions),
            duration_s,
            start_s=rng.uniform(0, interarrival_s * len(functions)),
            jitter=jitter,
            rng=rng,
        )
    return Trace(functions, invocations, name="skewed-size")


def figure8_trace(
    duration_s: float = 7200.0,
    jitter: float = 0.2,
    seed: int = 42,
) -> Trace:
    """The Figure 8 foreground workload: Table 1 apps at the paper's rates.

    CNN, disk-bench (dd), and web-serving arrive every 1500 ms; the
    floating-point function arrives every 400 ms. The paper replays
    this against a 48 GB server for two hours.
    """
    return skewed_frequency_trace(
        duration_s=duration_s,
        hot_interarrival_s=0.4,
        cold_interarrival_s=1.5,
        jitter=jitter,
        seed=seed,
    )


#: Background-tenant classes for :func:`multitenant_trace`: memory MB
#: mapped to (init time s, base inter-arrival s). Large functions are
#: cheap to initialize but frequent; small ones expensive but rarer —
#: the recency-vs-value contradiction of real Azure-style populations
#: (Section 2.1: sizes and rates vary by orders of magnitude).
_TENANT_CLASSES = {
    64.0: (6.0, 25.0),
    128.0: (5.0, 30.0),
    256.0: (4.0, 40.0),
    512.0: (2.0, 20.0),
    1024.0: (1.0, 12.0),
    2048.0: (0.5, 15.0),
}


def multitenant_trace(
    duration_s: float = 7200.0,
    num_tenants: int = 48,
    tenant_warm_time_s: float = 0.4,
    jitter: float = 0.15,
    seed: int = 7,
) -> Trace:
    """The Figure 8 workload on a realistically shared server.

    The paper measures the four Table 1 foreground functions on an
    invoker that — per Section 3.1 — concurrently runs hundreds of
    other short-lived functions. This trace combines
    :func:`figure8_trace` with ``num_tenants`` heterogeneous
    background tenants drawn from Azure-like size/cost/frequency
    classes, producing the sustained memory pressure under which the
    keep-alive policy choice decides who stays warm.
    """
    rng = random.Random(seed)
    foreground = figure8_trace(duration_s=duration_s, jitter=jitter, seed=seed)
    functions: List[TraceFunction] = list(foreground.functions.values())
    invocations: List[Invocation] = list(foreground.invocations)
    classes = list(_TENANT_CLASSES.items())
    for i in range(num_tenants):
        memory_mb, (init_s, base_iat_s) = classes[i % len(classes)]
        function = TraceFunction(
            name=f"tenant-{i:02d}-{int(memory_mb)}mb",
            memory_mb=memory_mb,
            warm_time_s=tenant_warm_time_s,
            cold_time_s=tenant_warm_time_s + init_s,
        )
        functions.append(function)
        iat = base_iat_s * rng.uniform(0.8, 1.2)
        invocations += periodic_arrivals(
            function.name,
            iat,
            duration_s,
            start_s=rng.uniform(0, iat),
            jitter=jitter,
            rng=rng,
        )
    return Trace(functions, invocations, name="fig8-multitenant")


def noisy_neighbor_trace(
    duration_s: float = 3600.0,
    num_victims: int = 24,
    num_attacker_functions: int = 8,
    attacker_memory_mb: float = 512.0,
    victim_memory_mb: float = 128.0,
    victim_interarrival_s: float = 120.0,
    victim_init_s: float = 2.0,
    burst_rate_per_s: float = 4.0,
    burst_duration_s: float = 90.0,
    idle_duration_s: float = 60.0,
    jitter: float = 0.2,
    seed: int = 11,
) -> Trace:
    """One bursty tenant attacking a long tail of small tenants.

    The multi-tenancy litmus workload (docs/multi-tenancy.md): tenant
    ``1`` — the *noisy neighbor* — owns ``num_attacker_functions``
    large functions driven by on/off Poisson bursts, while tenants
    ``2..num_victims+1`` each own a single small function with slow
    periodic arrivals and an expensive cold start. In a ``shared``
    pool the attacker's bursts flood the warm pool and evict the
    victims between their arrivals; under ``quota`` the attacker goes
    over its soft limit and becomes preferentially evictable, so the
    victims keep their containers. Jain's fairness index over
    per-tenant hit ratios quantifies the gap (gated by the
    ``tenant-fairness`` CI job).

    Deterministic given ``seed``; tenant id 0 is never used so the
    trace always reads as tenant-carrying.
    """
    int_at_least(1).check("num_victims", num_victims)
    int_at_least(1).check("num_attacker_functions", num_attacker_functions)
    rng = random.Random(seed)
    functions: List[TraceFunction] = []
    invocations: List[Invocation] = []
    for i in range(num_attacker_functions):
        function = TraceFunction(
            name=f"attacker-{i:03d}",
            memory_mb=attacker_memory_mb,
            warm_time_s=0.2,
            cold_time_s=0.7,
            tenant_id=1,
        )
        functions.append(function)
        invocations += bursty_arrivals(
            function.name,
            burst_rate_per_s=burst_rate_per_s,
            burst_duration_s=burst_duration_s,
            idle_duration_s=idle_duration_s,
            total_duration_s=duration_s,
            start_s=rng.uniform(0.0, burst_duration_s),
            rng=rng,
        )
    for i in range(num_victims):
        function = TraceFunction(
            name=f"victim-{i:03d}",
            memory_mb=victim_memory_mb,
            warm_time_s=0.2,
            cold_time_s=0.2 + victim_init_s,
            tenant_id=i + 2,
        )
        functions.append(function)
        invocations += periodic_arrivals(
            function.name,
            victim_interarrival_s,
            duration_s,
            start_s=rng.uniform(0.0, victim_interarrival_s),
            jitter=jitter,
            rng=rng,
        )
    return Trace(functions, invocations, name="noisy-neighbor")


def harvest_day_trace(
    duration_s: float = 3600.0,
    num_steady: int = 24,
    num_bursty: int = 6,
    steady_interarrival_s: float = 20.0,
    burst_rate_per_s: float = 3.0,
    burst_duration_s: float = 60.0,
    idle_duration_s: float = 120.0,
    jitter: float = 0.2,
    seed: int = 13,
) -> Trace:
    """The harvested-capacity litmus workload (docs/robustness.md).

    A server living on harvested/spot resources sees its memory shrink
    and grow underneath a *full* warm pool — so this trace is built to
    keep the pool full: ``num_steady`` heterogeneous functions (sizes
    and init costs from the Azure-like tenant classes) arrive steadily
    enough that each stays warm between invocations, plus
    ``num_bursty`` larger on/off functions whose bursts re-fill any
    memory a harvest shrink reclaimed. Replayed with a harvest/spot
    :class:`~repro.faults.FaultSpec`, every shrink must deflate
    gracefully (victim-order evictions, deferral while busy) rather
    than raise a ``CapacityError`` — the property the ``chaos-replay``
    CI job pins byte-for-byte.

    Deterministic given ``seed``; functions carry no tenant ids so the
    workload composes with any tenant mode.
    """
    int_at_least(1).check("num_steady", num_steady)
    int_at_least(0).check("num_bursty", num_bursty)
    rng = random.Random(seed)
    classes = list(_TENANT_CLASSES.items())
    functions: List[TraceFunction] = []
    invocations: List[Invocation] = []
    for i in range(num_steady):
        memory_mb, (init_s, __) = classes[i % len(classes)]
        function = TraceFunction(
            name=f"steady-{i:03d}",
            memory_mb=memory_mb,
            warm_time_s=0.3,
            cold_time_s=0.3 + init_s,
        )
        functions.append(function)
        iat = steady_interarrival_s * rng.uniform(0.7, 1.3)
        invocations += periodic_arrivals(
            function.name,
            iat,
            duration_s,
            start_s=rng.uniform(0.0, iat),
            jitter=jitter,
            rng=rng,
        )
    for i in range(num_bursty):
        function = TraceFunction(
            name=f"bursty-{i:03d}",
            memory_mb=768.0,
            warm_time_s=0.2,
            cold_time_s=1.0,
        )
        functions.append(function)
        invocations += bursty_arrivals(
            function.name,
            burst_rate_per_s=burst_rate_per_s,
            burst_duration_s=burst_duration_s,
            idle_duration_s=idle_duration_s,
            total_duration_s=duration_s,
            start_s=rng.uniform(0.0, burst_duration_s + idle_duration_s),
            rng=rng,
        )
    return Trace(functions, invocations, name="harvest-day")


def churn_trace(
    num_functions: int = 1620,
    duration_s: float = 9600.0,
    seed: int = 1001,
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
    return Trace(functions, invocations, name=name)


def eviction_trace(
    num_functions: int = 800,
    rounds: int = 125,
    seed: int = 1003,
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
