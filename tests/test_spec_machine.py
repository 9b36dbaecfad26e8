"""One differential suite: the real simulator against the executable
specification (tests/reference_model.py, docs/specification.md).

:class:`Pair` steps a ``KeepAliveSimulator`` and the naive ``Server``
together and, after **every** step, requires the same outcome, the same
victims in the same order (by creation ordinal), the same
``next_expiry_s()``, the same used / free / evictable MB and all 14
``COUNTERS``. Everything below drives a ``Pair``: the hypothesis state
machine (every registered policy x the three tenant modes), the ledger's
object-engine workloads as fixed scripts, and the mutants that prove the
machine bites. A new optimized path adds a *rule or an observation*
here, never another oracle file.
"""

import ast
import inspect
import itertools
import math
import pathlib
import random
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import container as container_module
from repro.core.container import Container
from repro.core.policies import PAPER_POLICIES, available_policies, create_policy
from repro.core.policies.base import KeepAlivePolicy
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.policies.histogram import FunctionHistogram
from repro.core.pool import TENANT_MODES, CapacityError, ContainerPool
from repro.faults import FaultSpec
from repro.sim.events import EventQueue
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Invocation, Trace, TraceFunction
from tests import reference_model
from tests.reference_model import Server

REPO = pathlib.Path(__file__).resolve().parents[1]
OBSERVED = ("outcome", "victims", "next_expiry_s", "used_mb", "free_mb", "evictable_mb", "counters")


def make_policy(name, trace):
    """Any registered policy; the oracles read their future from ``trace``."""
    return create_policy(name, **({"trace": trace} if name.startswith("ORACLE") else {}))


class Pair:
    """The real simulator and the model, one step at a time."""

    def __init__(self, trace, policy_name, memory_mb, **config):
        # Container ids come from a process-global counter: restart it
        # so an id *is* the creation ordinal on both sides, as victims
        # are compared by id (restored by close()).
        self._ids = container_module._container_ids
        container_module._container_ids = itertools.count()
        if config.get("tenant_mode", "shared") != "shared" and "tenant_quotas" not in config:
            tenants = sorted({f.tenant_id for f in trace.functions.values()})
            config["tenant_quotas"] = {t: memory_mb / len(tenants) for t in tenants}
        self.sim = KeepAliveSimulator(trace, make_policy(policy_name, trace), memory_mb, **config)
        self.model = Server(
            dict(trace.functions), policy_name, memory_mb,
            policy=None if policy_name in PAPER_POLICIES else make_policy(policy_name, trace),
            tenant_mode=config.get("tenant_mode", "shared"),
            quotas=config.get("tenant_quotas"),
            reserved=config.get("reserved_concurrency"),
            fault_spec=config.get("fault_spec"),
            horizon_s=trace.last_arrival_s,
        )
        self.steps = 0
        self.victims = []  # ordinals the real pool evicted this step
        self.scheduled = []  # (at_s, frac) resizes waiting on the real timeline
        evict = self.sim.pool.evict

        def recording_evict(container):
            evict(container)
            self.victims.append(container.container_id)

        self.sim.pool.evict = recording_evict

    def close(self):
        container_module._container_ids = self._ids

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def step(self, what, real, model):
        """Run one operation on both sides, then compare everything."""
        self.steps += 1
        del self.victims[:]
        mark = len(self.model.evicted)
        got, want = real(), model()
        pool, spec = self.sim.pool, self.model
        seen = (
            got, self.victims, pool.next_expiry_s(), pool.used_mb, pool.free_mb,
            pool.evictable_mb(), self.sim.metrics.counters(),
        )
        expected = (
            want, spec.evicted[mark:], spec.next_expiry_s(), spec.used_mb, spec.free_mb,
            spec.evictable_mb(), spec.counters,
        )
        for name, real_value, spec_value in zip(OBSERVED, seen, expected):
            assert real_value == spec_value, (
                f"step {self.steps}, {what}: {name} is {real_value!r}, "
                f"the specification says {spec_value!r}"
            )
        return got

    # -- the operations ----------------------------------------------------

    def _model_timeline(self, now_s):
        """What the real timeline fires by ``now_s``, on the model: it
        has no driver events, so a scheduled resize that is due is
        handed to it as the same ``(at_s, frac)``, after whatever of its
        own was due by then."""
        due = sorted((r for r in self.scheduled if r[0] <= now_s), key=lambda r: r[0])
        self.scheduled = [r for r in self.scheduled if r[0] > now_s]
        for at_s, frac in due:
            self.model._advance_faults(at_s)
            self.model.set_harvest_capacity(at_s, frac)
        self.model._advance_faults(now_s)

    def admit(self, function, now_s):
        """One arrival; what is due fires inside it, on both sides."""

        def model():
            self._model_timeline(now_s)
            return self.model.admit(function, now_s)

        return self.step(
            f"admit {function.name} at {now_s}",
            lambda: self.sim.process_invocation(function, now_s), model,
        )

    def settle(self, now_s):
        """The clock moves to ``now_s`` with no arrival: retries and
        outages that fall due on the way fire first, as in a replay,
        where nothing runs ahead of the server's own timeline (a retry
        fired *after* later housekeeping would see time run backwards)."""
        if self.sim._events.next_s <= now_s:
            self.step(
                f"timeline to {now_s}",
                lambda: self.sim._advance_faults(now_s), lambda: self._model_timeline(now_s),
            )

    def advance(self, now_s):
        self.step(
            f"housekeeping at {now_s}",
            lambda: self.sim.housekeeping(now_s), lambda: self.model.housekeeping(now_s),
        )

    def _resize(self, frac, absolute):
        """The real engine's resize to ``frac`` of nominal, by either
        door of the one capacity seam."""
        def resize(at_s):  # the victims set_capacity returns are compared as evictions
            if absolute:
                self.sim.set_capacity(at_s, frac * self.model.nominal_mb)
            else:
                self.sim.set_harvest_capacity(at_s, frac)

        return resize

    def deflate(self, now_s, frac, absolute=False):
        resize = self._resize(frac, absolute)
        self.step(
            f"harvest capacity {frac} at {now_s}",
            lambda: resize(now_s), lambda: self.model.set_harvest_capacity(now_s, frac),
        )

    def schedule_resize(self, at_s, frac, absolute):
        """A driver-timed resize on the real timeline (``schedule``);
        it fires inside a later :meth:`admit`."""
        self.sim.schedule(at_s, self._resize(frac, absolute))
        self.scheduled.append((at_s, frac))

    def set_capacity(self, capacity_mb):
        """The strict resize (vertical scaling): applied or refused."""

        def real():
            try:
                self.sim.pool.set_capacity(capacity_mb)
            except CapacityError:
                return "refused"

        return self.step(
            f"set_capacity {capacity_mb}", real, lambda: self.model.set_capacity(capacity_mb)
        )

    def fail(self, now_s):
        self.step(
            f"fail at {now_s}",
            lambda: self.sim.fail_server(now_s), lambda: self.model.fail_server(now_s),
        )

    def recover(self, now_s):
        self.step(
            f"recover at {now_s}",
            lambda: self.sim.recover_server(now_s), lambda: self.model.recover_server(now_s),
        )

    def notice(self, now_s):
        self.step(
            f"eviction notice at {now_s}",
            lambda: self.sim.notice_eviction(now_s, now_s + 30.0),
            lambda: self.model.notice_eviction(now_s),
        )

    def reschedule(self, ordinal, deadline_s):
        """Move one container's expiry deadline, as a re-plan does."""
        real = {c.container_id: c for c in self.sim.pool.all_containers()}
        spec = {b.container_id: b for b in self.model.boxes}
        assert sorted(real) == sorted(spec)
        if ordinal in real:
            self.step(
                f"reschedule {ordinal} to {deadline_s}",
                lambda: self.sim.pool.schedule_expiry(real[ordinal], deadline_s),
                lambda: self.model.schedule_expiry(spec[ordinal], deadline_s),
            )

    def set_quota(self, tenant_id, quota_mb):
        """A soft quota changes (quota mode). The engine has no runtime
        setter yet (ROADMAP item 2c), so this writes the pool's limit
        table the way one would."""

        def real():
            self.sim.pool._tenant_limits_mb[tenant_id] = quota_mb

        def model():
            self.model.limits[tenant_id] = quota_mb

        self.step(f"quota of tenant {tenant_id} to {quota_mb}", real, model)

    def peek_order(self, now_s):
        """The whole victim order, next victim first. The walk consumes
        and re-files index entries, so it is a step of its own, not part
        of every comparison: lazily stale entries must be exercised too."""
        self.step(
            f"victim order at {now_s}",
            lambda: [c.container_id for c in self.sim.policy.victim_order(self.sim.pool, now_s)],
            lambda: [b.container_id for b in self.model.order(now_s)],
        )

    def finish(self, end_s):
        """Past the last arrival: every pending retry gets its outcome."""

        def real():  # under the sanitizer, also trace/metrics counter equality
            self.sim.finalize(end_s, 0.0)

        self.step("finish", real, self.model.finish)


def replay_both(trace, policy_name, memory_mb, **config):
    """``trace`` through both as a fixed script; returns the real metrics."""
    with Pair(trace, policy_name, memory_mb, **config) as pair:
        end_s = 0.0
        for end_s, function in trace.arrivals():
            pair.admit(function, end_s)
        pair.finish(end_s)
        return pair.sim.metrics


# ----------------------------------------------------------------------
# The state machine: every policy x every tenant mode
# ----------------------------------------------------------------------

#: Whole-MB sizes and half-second durations: every sum the two sides
#: compare is exact, whichever order it was added up in.
FUNCTIONS = [
    TraceFunction("f0", 100.0, 1.0, 3.0, tenant_id=1),
    TraceFunction("f1", 200.0, 8.0, 20.0, tenant_id=1),
    TraceFunction("f2", 300.0, 15.0, 45.0, tenant_id=2),  # busy across several steps
    TraceFunction("f3", 100.0, 0.5, 8.5, tenant_id=2),
    TraceFunction("f4", 300.0, 30.0, 90.0, tenant_id=3),
    TraceFunction("f5", 200.0, 3.0, 3.0, tenant_id=3),  # costs nothing to restart
]
CAPACITY_MB = 1000.0
QUOTAS = {1: 400.0, 2: 300.0, 3: 300.0}
#: What the two oracles "know": a fixed future, whatever the script does.
REGISTRY = Trace(
    FUNCTIONS,
    [Invocation(37.0 * i, FUNCTIONS[i * i % len(FUNCTIONS)].name) for i in range(600)],
    name="spec",
)
FAULTS = FaultSpec(
    seed=23, spawn_failure_rate=0.1, crash_rate=0.15, timeout_rate=0.1,
    max_retries=2, max_pending_retries=3,
)
#: Short outages and unjittered retries (1 s, then 2 s) on the same half-
#: second grid as the gaps below: a retry falls due at the very instant
#: the server goes down, and the tie has a rule (server events first).
OUTAGES = FaultSpec(
    seed=23, crash_rate=0.4, max_retries=2, max_pending_retries=3, jitter=0.0,
    server_downtimes=tuple((0, t, t + 0.25) for t in (1.0, 1.5, 2.0, 3.5, 11.0, 62.0)),
)
FAULT_SPECS = {"none": None, "rates": FAULTS, "outages": OUTAGES}  # by name: scripts stay short
#: From concurrent (0 s) over one HIST bucket and the TTL to past the
#: generic two hours.
GAP_CHOICES_S = [0.0, 0.5, 1.0, 2.5, 10.0, 61.0, 125.0, 650.0, 7300.0]
GAPS_S = st.sampled_from(GAP_CHOICES_S)
INDEX = st.integers(0, len(FUNCTIONS) - 1)
FRACTIONS = st.sampled_from([0.3, 0.6, 1.0])
#: (time before it, fraction of nominal, through ``set_capacity``'s absolute target?)
RESIZES = st.tuples(GAPS_S, FRACTIONS, st.booleans())

REPLANS_S = [
    shape
    for a, b in itertools.permutations([100.0, 200.0, 1300.0], 2)
    for shape in ((a,), (a, b), (a, b, a))
]


def hawkes_times(seed, base=0.3, jump=0.9, decay=1.5, limit=8):
    """Arrival offsets of a self-exciting process (Ogata thinning, on a
    1/8 s grid): every arrival raises the rate of the next, so they come
    in bursts — concurrent spawns, parked entries, deferred shrinks —
    as in *Keep-Alive Caching for the Hawkes process* (PAPERS.md)."""
    rng, t, times = random.Random(seed), 0.0, [0.0]
    while len(times) < limit and t < 20.0:
        ceiling = base + jump * sum(math.exp(-decay * (t - s)) for s in times)
        t += rng.expovariate(ceiling)
        rate = base + jump * sum(math.exp(-decay * (t - s)) for s in times)
        if rng.random() * ceiling <= rate:
            times.append(round(t * 8.0) / 8.0)
    return times


def random_script(policy_name, seed, steps=300, reschedules=0.0, **config):
    """Arrivals, housekeeping and (a ``reschedules`` share of) re-plans
    from a seeded generator, through a :class:`Pair`: the fixed-seed
    differential other suites keep beside the machine. Returns the real
    metrics."""
    rng = random.Random(seed)
    with Pair(REGISTRY, policy_name, CAPACITY_MB, **config) as pair:
        now_s = 0.0
        for __ in range(steps):
            now_s += rng.choice(GAP_CHOICES_S[:-1])
            roll = rng.random()
            if roll < reschedules and pair.model.boxes:
                ordinal = rng.choice(pair.model.boxes).container_id
                pair.reschedule(ordinal, now_s + rng.choice([-20.0, 5.0, 40.0, 700.0]))
            elif roll < 0.85:
                pair.admit(rng.choice(FUNCTIONS), now_s)
            else:
                pair.advance(now_s)
        return pair.sim.metrics


class SpecMachine(RuleBasedStateMachine):
    policy_name = "GD"
    tenant_mode = "shared"

    def __init__(self):
        super().__init__()
        self.pair = None
        self.now = 0.0

    @initialize(pinned=st.booleans(), faults=st.sampled_from(sorted(FAULT_SPECS)))
    def boot(self, pinned, faults):
        config = {"tenant_mode": self.tenant_mode, "fault_spec": FAULT_SPECS[faults]}
        if self.tenant_mode != "shared":
            config["tenant_quotas"] = dict(QUOTAS)
        if pinned:
            config["reserved_concurrency"] = {"f0": 1, "f3": 1}
        self.pair = Pair(REGISTRY, self.policy_name, CAPACITY_MB, **config)

    def teardown(self):
        if self.pair is not None:
            self.pair.close()

    def _running(self):
        return [b.busy_until_s for b in self.pair.model.boxes if b.running]

    @rule(arrivals=st.lists(st.tuples(INDEX, GAPS_S), min_size=1, max_size=3))
    def admit(self, arrivals):
        for index, gap_s in arrivals:
            self.now += gap_s
            self.pair.admit(FUNCTIONS[index], self.now)

    @rule(marks=st.lists(INDEX, min_size=1, max_size=4), seed=st.integers(0, 999))
    def hawkes_burst(self, marks, seed):
        start = self.now
        for i, offset_s in enumerate(hawkes_times(seed)):
            self.now = start + offset_s
            self.pair.admit(FUNCTIONS[marks[i % len(marks)]], self.now)

    def _pass(self, now_s):
        self.now = now_s
        self.pair.settle(now_s)

    @rule(gap_s=GAPS_S)
    def advance(self, gap_s):
        self._pass(self.now + gap_s)
        self.pair.advance(self.now)

    @precondition(lambda self: self._running())
    @rule()
    def release(self):
        self._pass(max(self.now, min(self._running())))
        self.pair.advance(self.now)

    @rule(capacity_mb=st.sampled_from([300.0, 600.0, 900.0, 1000.0, 1200.0]))
    def set_capacity(self, capacity_mb):
        self.pair.set_capacity(capacity_mb)

    @rule(burst=st.lists(INDEX, max_size=3), schedule=st.lists(RESIZES, min_size=1, max_size=3),
          racing=st.lists(INDEX, max_size=2), given_back=st.booleans())
    def deflate_to(self, burst, schedule, racing, given_back):
        """A harvest schedule cutting into a burst: arrivals, then up to
        three resizes with time passing before each, arrivals racing the
        last one, and maybe all of the memory given back after them."""
        for index in burst:
            self.pair.admit(FUNCTIONS[index], self.now)
        for gap_s, frac, absolute in schedule:
            self._pass(self.now + gap_s)
            self.pair.advance(self.now)
            self.pair.deflate(self.now, frac, absolute)
        for index in racing:
            self.pair.admit(FUNCTIONS[index], self.now)
        if given_back:
            self.pair.deflate(self.now, 1.0)

    @rule(delay_s=GAPS_S, frac=FRACTIONS, absolute=st.booleans(),
          arrivals=st.lists(st.tuples(INDEX, GAPS_S), max_size=2), last=INDEX)
    def scheduled_resize(self, delay_s, frac, absolute, arrivals, last):
        """A driver's timed resize (a controller tick, a demand change):
        put on the timeline now, fired inside whichever arrival first
        reaches its time — among, or after, the ``arrivals``. It is due an
        eighth of a second off the grid arrivals, retries and outages
        live on: at a tie with a retry the real queue goes by insertion,
        and the model, which has no queue, cannot say which came first."""
        due_s = self.now + delay_s + 0.125
        self.pair.schedule_resize(due_s, frac, absolute)
        for index, gap_s in arrivals:
            self.now += gap_s
            self.pair.admit(FUNCTIONS[index], self.now)
        self.now = max(self.now, due_s + 0.375)
        self.pair.admit(FUNCTIONS[last], self.now)
        assert not self.pair.scheduled

    @precondition(lambda self: self.pair.model.target is not None and self._running())
    @rule()
    def resume_deflation(self):
        self._pass(max(self.now, max(self._running())))
        self.pair.advance(self.now)

    @rule()
    def fail_server(self):
        self.pair.fail(self.now)

    @rule()
    def recover_server(self):
        self.pair.recover(self.now)

    @rule()
    def notice_eviction(self):
        self.pair.notice(self.now)

    @precondition(lambda self: self.pair.model.boxes)
    @rule(which=st.integers(0, 63), deadlines_s=st.sampled_from(REPLANS_S))
    def reschedule(self, which, deadlines_s):
        """Re-plan one container: once, twice, or there and back again
        (A, B, A). Deadlines count from the current 1000 s epoch, so the
        same value can come round again."""
        boxes = self.pair.model.boxes
        ordinal = boxes[which % len(boxes)].container_id
        epoch_s = 1000.0 * (self.now // 1000.0)
        for deadline_s in deadlines_s:
            self.pair.reschedule(ordinal, epoch_s + deadline_s)

    @precondition(lambda self: self.tenant_mode == "quota")
    @rule(tenant=st.sampled_from(sorted(QUOTAS)), quota_mb=st.sampled_from([0.0, 100.0, 500.0]))
    def change_quota(self, tenant, quota_mb):
        self.pair.set_quota(tenant, quota_mb)

    @rule()
    def peek_victim_order(self):
        self.pair.peek_order(self.now)


#: The budgets live here and nowhere else: no profile, environment
#: variable or option selects another. Derandomized, so a failure
#: repeats; the explain phase re-runs failures under a tracer, slowly.
PHASES = [Phase.generate, Phase.shrink]
MACHINE_SETTINGS = settings(
    max_examples=15, stateful_step_count=40, deadline=None, derandomize=True,
    database=None, suppress_health_check=list(HealthCheck), phases=PHASES,
)
#: Short scripts shrink fast; the search stops at the first failure, so
#: the example budget only bounds a mutant that survives.
BITE_SETTINGS = settings(
    MACHINE_SETTINGS, max_examples=5000, stateful_step_count=8, report_multiple_bugs=False
)


def machine(policy_name, tenant_mode, only=None):
    """The machine for one policy and tenant mode; ``only`` narrows it
    to the named rules (hypothesis drops a rule overridden by None)."""
    rules = [
        name for name, member in vars(SpecMachine).items()
        if callable(member) and not name.startswith("_") and name not in ("boot", "teardown")
    ]
    return type(
        f"Spec_{policy_name}_{tenant_mode}".replace("-", "_"), (SpecMachine,),
        {"policy_name": policy_name, "tenant_mode": tenant_mode,
         **{name: None for name in rules if only is not None and name not in only}},
    )


@pytest.mark.parametrize("tenant_mode", TENANT_MODES)
@pytest.mark.parametrize("policy_name", available_policies())
def test_machine_agrees_with_the_specification(policy_name, tenant_mode):
    run_state_machine_as_test(machine(policy_name, tenant_mode), settings=MACHINE_SETTINGS)


# ----------------------------------------------------------------------
# The traffic the benchmark serves, as fixed scripts
# ----------------------------------------------------------------------


def ledger_workload(name):
    """One of BENCHMARK.json's object-engine workloads at ``--smoke`` scale."""
    sys.path.insert(0, str(REPO / "benchmarks" / "ledger"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    (workload,) = [w for w in workloads.WORKLOADS if w.name == name]
    return workload.build(workloads.DEFAULT_SEED, 0.1)


@pytest.mark.parametrize(
    "name, exercised",
    [
        ("gd_evict", "evictions"),
        ("gd_warm", "warm_starts"),
        ("hist_churn", "prewarms"),
        ("gd_harvest", "deflations"),
    ],
)
def test_ledger_workload_follows_the_specification(name, exercised):
    prepared = ledger_workload(name)
    metrics = replay_both(
        prepared.trace, prepared.policy, prepared.memory_mb, **prepared.sim_kwargs
    )
    assert getattr(metrics, exercised) > 100


def test_the_model_stands_alone():
    """The specification may not lean on what it specifies."""
    source = pathlib.Path(reference_model.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"repro.analysis.stats", "repro.faults", "repro.obs.counters"}
    for word in ("_parked", "_taken", "heapq", "bisect", ".plan"):
        assert word not in source
    assert len(source.splitlines()) <= 400
    assert reference_model.PAPER_POLICIES == PAPER_POLICIES


# ----------------------------------------------------------------------
# The machine bites: each seeded fault must fail it
# ----------------------------------------------------------------------


def mutate(monkeypatch, owner, name, old, new):
    """Swap one line of ``owner.name``'s source and install the result."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{name} no longer reads {old!r}"
    scope = {}
    exec(source.replace(old, new), function.__globals__, scope)  # noqa: S102
    monkeypatch.setattr(owner, name, scope[name])


#: id -> (owner, function, the line, what replaces it), the machine that
#: must fail — policy, tenant mode, the rules it is narrowed to (a script
#: spent on the operations around a fault finds it in hundreds of examples
#: instead of thousands) — and the symptom.
INDEX_ORDER = "lambda c: (self.policy.priority(c, now_s), c.last_used_s, c.container_id)"
MUTANTS = {
    "add-enrols-running-as-evictable": (
        (ContainerPool, "add", "if container.state == ContainerState.WARM:", "if True:"),
        ("GD", "shared", None), "evictable",  # the model's figure, or the sanitizer's
    ),
    "arrival-keeps-stale-plan": (
        (FunctionHistogram, "record_arrival", "self.plan = None", "pass"),
        ("HIST", "shared", None), "next_expiry_s",
    ),
    "freq-survives-last-container": (
        (GreedyDualPolicy, "on_evict", "self._frequency.pop(name, None)", "pass"),
        ("GD", "shared", ("admit", "hawkes_burst", "advance", "release")), "victims",
    ),
    "double-expiry-of-parent-commit": (  # this PR's pop_expired fix reverted
        (ContainerPool, "pop_expired", "if entry == last:", "if False:"),
        ("HIST", "shared", ("admit", "advance", "reschedule")), "not in pool",
    ),
    "pr15-deflation-walks-the-index": (  # ... for a non-monotone policy
        (
            KeepAliveSimulator, "set_capacity",
            "self.policy.victim_order(self.pool, now_s)", f"self.pool.iter_victims({INDEX_ORDER})",
        ),
        ("ORACLE", "shared", ("admit", "hawkes_burst", "deflate_to")), "victims|monotonicity",
    ),
    "pr15-miss-measures-slice-only": (  # ... under a shrink, partitioned
        (
            KeepAlivePolicy, "select_victims_tenant",
            "deficit = max(deficit, needed_mb - pool.tenant_free_mb(tenant_id))",
            "deficit = needed_mb - pool.tenant_free_mb(tenant_id)",
        ),
        ("GD", "partitioned", ("deflate_to",)), "MB is free",
    ),
    "retry-ahead-of-a-same-instant-server-event": (  # the one queue's tie rule, broken
        (EventQueue, "push", "next(self._counter), payload", "-next(self._counter), payload"),
        ("GD", "shared", ("admit", "advance")), "used_mb",  # served ahead of the outage
    ),
    "idle-enrols-above-the-current-key": (  # the one way the lazy index skips the minimum
        (
            Container, "finish_invocation",
            "(key_of(self), cid)", "((key_of(self)[0], self.last_used_s + 1, cid), cid)",
        ),
        ("GD", "shared", ("admit", "hawkes_burst", "release", "peek_victim_order")),
        "victims|monotonicity",
    ),
}


class TestMachineBites:
    """PR 15's two bugs are re-introduced by monkeypatch (no worktree of
    its parent is needed). The search is derandomized, so a mutant that
    starts surviving after a rule changed means the machine lost that
    bite: widen the rule, do not delete the mutant."""

    @pytest.mark.parametrize("fault", MUTANTS)
    def test_mutant_fails_with_a_shrunk_script(self, fault, monkeypatch):
        mutation, (policy_name, tenant_mode, only), symptom = MUTANTS[fault]
        mutate(monkeypatch, *mutation)
        with pytest.raises(Exception, match=symptom) as caught:
            run_state_machine_as_test(
                machine(policy_name, tenant_mode, only), settings=BITE_SETTINGS
            )
        script = "\n".join(getattr(caught.value, "__notes__", ()))
        assert "Falsifying example" in script and "state.teardown()" in script
        assert len(script.splitlines()) <= 12, script
