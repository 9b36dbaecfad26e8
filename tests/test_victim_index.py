"""The pool's lazy victim index and its policy-facing contract.

Two layers: unit tests of :meth:`ContainerPool.iter_victims` (lazy
revalidation, busy deferral, pinned exclusion, the consuming walk:
evictions mid-scan, abandoned and partly-evicted walks), and
end-to-end equivalence — every ``monotone_priority`` policy, walking
the index, must evict exactly what the executable specification
(tests/reference_model.py) evicts by sorting the idle set.
"""

import pytest

from repro.bench import churn_trace
from repro.core.container import Container
from repro.core.policies import available_policies, create_policy
from repro.core.pool import ContainerPool
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import TraceFunction
from repro.traces.synth import multitenant_trace, skewed_frequency_trace
from tests.conftest import make_function, make_trace
from tests.test_spec_machine import random_script, replay_both

def _has_flag(name):
    if name.startswith("ORACLE"):
        return False  # needs a trace to construct; overrides selection
    return create_policy(name).monotone_priority


#: Every registered policy that opts into the index.
MONOTONE = sorted(n for n in available_policies() if _has_flag(n))


def _key_of(container):
    return (container.priority, container.last_used_s, container.container_id)


class TestIterVictims:
    def _pool_with(self, *specs):
        """specs: (name, memory_mb, priority) triples."""
        pool = ContainerPool(100_000.0)
        containers = []
        for i, (name, mem, prio) in enumerate(specs):
            c = Container(make_function(name, memory_mb=mem), float(i))
            c.priority = prio
            pool.add(c)
            containers.append(c)
        return pool, containers

    def test_ascending_key_order(self):
        pool, (a, b, c) = self._pool_with(
            ("A", 100.0, 3.0), ("B", 100.0, 1.0), ("C", 100.0, 2.0)
        )
        assert list(pool.iter_victims(_key_of)) == [b, c, a]

    def test_stale_entry_repushed_under_new_key(self):
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        list(pool.iter_victims(_key_of))  # settle real keys
        a.priority = 5.0  # grew past b (monotone: only increases)
        assert list(pool.iter_victims(_key_of)) == [b, a]

    def test_busy_containers_deferred_and_restored(self):
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        a.start_invocation(10.0, 100.0)
        assert list(pool.iter_victims(_key_of)) == [b]
        a.finish_invocation(110.0)
        a.priority = 1.0
        # A's entry survived the scan it sat out.
        assert a in list(pool.iter_victims(_key_of))

    def test_pinned_never_yielded(self):
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        a.pinned = True  # pinned after add: entry must be discarded
        assert list(pool.iter_victims(_key_of)) == [b]

    def test_evicted_entries_dropped_lazily(self):
        pool, (a, b, c) = self._pool_with(
            ("A", 100.0, 1.0), ("B", 100.0, 2.0), ("C", 100.0, 3.0)
        )
        pool.evict(a)
        assert list(pool.iter_victims(_key_of)) == [b, c]

    def test_partial_consumption_keeps_remainder(self):
        pool, (a, b, c) = self._pool_with(
            ("A", 100.0, 1.0), ("B", 100.0, 2.0), ("C", 100.0, 3.0)
        )
        it = pool.iter_victims(_key_of)
        assert next(it) == a
        it.close()  # caller stopped early: nothing lost
        assert list(pool.iter_victims(_key_of)) == [a, b, c]

    def test_abandoned_walk_reoffers_its_yields_first(self):
        """A walk dropped after k yields (never closed, nothing
        evicted) costs nothing: the next walk starts with the same k."""
        pool, (a, b, c, d) = self._pool_with(
            ("A", 100.0, 1.0), ("B", 100.0, 2.0),
            ("C", 100.0, 3.0), ("D", 100.0, 4.0),
        )
        abandoned = pool.iter_victims(_key_of)
        assert [next(abandoned), next(abandoned)] == [a, b]
        again = pool.iter_victims(_key_of)
        assert [next(again), next(again)] == [a, b]
        assert list(pool.iter_victims(_key_of)) == [a, b, c, d]

    def test_yielded_then_reused_container_offered_exactly_once(self):
        """Yielded, not evicted, then busy and idle again: its entry
        comes back from the walk's pending set, not a second time from
        the idle transition."""
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        walk = pool.iter_victims(_key_of)
        assert next(walk) == a
        a.start_invocation(10.0, 5.0)
        a.finish_invocation(15.0)
        assert list(pool.iter_victims(_key_of)) == [a, b]
        # Same while it is still busy when the next walk starts.
        walk = pool.iter_victims(_key_of)
        assert next(walk) == a
        a.start_invocation(20.0, 5.0)
        assert list(pool.iter_victims(_key_of)) == [b]
        a.finish_invocation(25.0)
        assert list(pool.iter_victims(_key_of)) == [a, b]

    def test_eviction_of_yielded_victim_during_scan(self):
        """The simulator's actual pattern: evict what was yielded."""
        pool, (a, b, c) = self._pool_with(
            ("A", 100.0, 1.0), ("B", 100.0, 2.0), ("C", 100.0, 3.0)
        )
        victims = []
        for container in pool.iter_victims(_key_of):
            victims.append(container)
            if len(victims) == 2:
                break
        for v in victims:
            pool.evict(v)
        assert list(pool.iter_victims(_key_of)) == [c]

    def test_eviction_inside_the_loop(self):
        """The invoker's and the deflation engine's pattern: evict
        each container as the walk hands it over."""
        pool, (a, b, c) = self._pool_with(
            ("A", 100.0, 1.0), ("B", 100.0, 2.0), ("C", 100.0, 3.0)
        )
        for container in pool.iter_victims(_key_of):
            pool.evict(container)
            if container is b:
                break
        assert list(pool.iter_victims(_key_of)) == [c]


class TestEvictableAccounting:
    def test_busy_idle_transitions(self):
        pool = ContainerPool(1000.0)
        c = Container(make_function("A", memory_mb=300.0), 0.0)
        pool.add(c)
        assert pool.evictable_mb() == 300.0
        c.start_invocation(0.0, 10.0)
        assert pool.evictable_mb() == 0.0
        c.finish_invocation(10.0)
        assert pool.evictable_mb() == 300.0
        pool.evict(c)
        assert pool.evictable_mb() == 0.0

    def test_matches_idle_scan_during_replay(self):
        trace = make_trace("ABCDBCADACBD" * 10, gap_s=2.0)
        policy = create_policy("GD")
        sim = KeepAliveSimulator(trace, policy, 700.0)
        functions = trace.functions
        for invocation in trace:
            sim.process_invocation(
                functions[invocation.function_name], invocation.time_s
            )
            expected = sum(c.memory_mb for c in sim.pool.idle_containers())
            assert sim.pool.evictable_mb() == pytest.approx(expected)

    def test_add_rejects_double_enrollment(self):
        pool_a, pool_b = ContainerPool(1000.0), ContainerPool(1000.0)
        c = Container(make_function("A"), 0.0)
        pool_a.add(c)
        with pytest.raises(ValueError, match="already belongs"):
            pool_b.add(c)


@pytest.mark.parametrize("name", MONOTONE)
class TestIndexedMatchesSort:
    """The index walk against the specification's ``sorted()``, step by
    step, on the traces that pinned it when the sort lived in ``src/``."""

    @pytest.mark.parametrize("memory_gb", [0.5, 1.0, 2.0])
    def test_multitenant(self, name, memory_gb):
        trace = multitenant_trace(duration_s=200.0, num_tenants=30, seed=7)
        assert replay_both(trace, name, memory_gb * 1024.0).evictions > 100

    def test_skewed(self, name):
        trace = skewed_frequency_trace(seed=3).truncated(675.0)
        assert replay_both(trace, name, 1024.0).evictions > 20

    def test_sequence_trace_victim_counts(self, name):
        trace = make_trace("ABCDBCADACBDDBCA" * 8, gap_s=3.0)
        assert replay_both(trace, name, 700.0).evictions > 40


class TestCoverRule:
    """:meth:`ContainerPool.take_victims` over a plain ordered list:
    the rule is independent of how the order was produced."""

    def _ordered(self, *specs):
        """specs: (tenant_id, memory_mb) pairs, already in victim order."""
        pool = ContainerPool(100_000.0)
        ordered = []
        for i, (tenant, mem) in enumerate(specs):
            function = TraceFunction(
                f"f{i}", mem, 1.0, 3.0, tenant_id=tenant
            )
            c = Container(function, float(i))
            pool.add(c)
            ordered.append(c)
        return pool, ordered

    def test_shortest_covering_prefix(self):
        pool, (a, b, c) = self._ordered((0, 100.0), (0, 100.0), (0, 100.0))
        assert pool.take_victims(iter([a, b, c]), 150.0) == [a, b]
        assert pool.take_victims(iter([a, b, c]), 200.0) == [a, b]
        assert pool.take_victims(iter([a, b, c]), 300.0 + 1e-10) == [a, b, c]
        assert pool.take_victims(iter([a, b, c]), 301.0) is None

    def test_stream_consumed_no_further_than_the_cover(self):
        pool, (a, b, c) = self._ordered((0, 100.0), (0, 100.0), (0, 100.0))
        stream = iter([a, b, c])
        assert pool.take_victims(stream, 100.0) == [a]
        assert list(stream) == [b, c]

    def test_slack_is_the_callers(self):
        pool, (a, b) = self._ordered((0, 100.0), (0, 100.0))
        assert pool.take_victims(iter([a, b]), 100.5) == [a, b]
        assert pool.take_victims(iter([a, b]), 100.5, slack_mb=1.0) == [a]

    def test_preferred_tenants_first_in_stream_order(self):
        pool, (a, b, c, d) = self._ordered(
            (1, 100.0), (2, 100.0), (1, 100.0), (2, 100.0)
        )
        take = lambda deficit: pool.take_victims(
            iter([a, b, c, d]), deficit, preferred=frozenset({2})
        )
        assert take(100.0) == [b]
        assert take(200.0) == [b, d]
        assert take(300.0) == [b, d, a]  # then everyone else, in order
        assert take(401.0) is None

    def test_allowed_filters_everyone_but_preferred(self):
        pool, (a, b, c, d) = self._ordered(
            (1, 100.0), (2, 100.0), (3, 100.0), (1, 100.0)
        )
        take = lambda deficit: pool.take_victims(
            iter([a, b, c, d]),
            deficit,
            preferred=frozenset({3}),
            allowed={1},
        )
        assert take(100.0) == [c]
        assert take(300.0) == [c, a, d]
        assert take(301.0) is None  # tenant 2's container is off limits
        assert pool.take_victims(iter([a, b, c, d]), 200.0, allowed={2}) is None


class TestParkedBusyEntries:
    """Busy containers leave the heap entirely while running: parked
    on first encounter, re-enrolled only on the idle transition. A
    long-running container must not be re-popped and re-pushed by
    every scan in between (the churn that dominated eviction-heavy
    replays)."""

    def _pool_with(self, *specs):
        pool = ContainerPool(100_000.0)
        containers = []
        for i, (name, mem, prio) in enumerate(specs):
            c = Container(make_function(name, memory_mb=mem), float(i))
            c.priority = prio
            pool.add(c)
            containers.append(c)
        return pool, containers

    def test_busy_entry_skipped_across_repeated_scans(self):
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        a.start_invocation(10.0, 100.0)
        for __ in range(5):
            assert list(pool.iter_victims(_key_of)) == [b]
        a.finish_invocation(110.0)
        a.priority = 1.0
        # Exactly one entry re-enrolled on the idle transition.
        assert list(pool.iter_victims(_key_of)) == [a, b]

    def test_take_victims_parks_busy_and_restores_on_idle(self):
        pool, (a, b, c) = self._pool_with(
            ("A", 100.0, 1.0), ("B", 100.0, 2.0), ("C", 100.0, 3.0)
        )
        a.start_invocation(10.0, 100.0)
        victims = pool.take_victims(pool.iter_victims(_key_of), 200.0)
        assert victims == [b, c]
        for victim in victims:
            pool.evict(victim)
        a.finish_invocation(110.0)
        a.priority = 1.0
        assert pool.take_victims(pool.iter_victims(_key_of), 100.0) == [a]

    def test_uncovered_take_loses_nothing(self):
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        assert pool.take_victims(pool.iter_victims(_key_of), 300.0) is None
        assert pool.take_victims(pool.iter_victims(_key_of), 200.0) == [a, b]

    def test_parked_entry_discarded_when_evicted_after_idle(self):
        pool, (a, b) = self._pool_with(("A", 100.0, 1.0), ("B", 100.0, 2.0))
        a.start_invocation(10.0, 100.0)
        assert list(pool.iter_victims(_key_of)) == [b]  # parks a
        a.finish_invocation(110.0)  # re-enrolls a
        a.priority = 1.0
        pool.evict(a)
        assert list(pool.iter_victims(_key_of)) == [b]


@pytest.mark.parametrize("name", ["HIST", "TTL"])
def test_stale_entries_stay_bounded_without_walks(name):
    """HIST never walks the index and TTL walks it only under pressure,
    so nothing pops an expired container's entry: the heap sheds them
    itself and never holds more than twice the live containers (it
    held 9,592 entries for 476 containers here under HIST before)."""
    trace = churn_trace(650, 9600.0)
    sim = KeepAliveSimulator(trace, create_policy(name), 1.5 * 650 * 128.0)
    pool = sim.pool
    for time_s, function in trace.arrivals():
        sim.process_invocation(function, time_s)
        assert len(pool._victim_heap) <= 2 * len(pool) + 1
    assert sim.metrics.expirations > 1000 and sim.metrics.evictions == 0


class TestAdmitRunningIsInvisible:
    """A cold container is started before ``add`` (it parks, and is
    enrolled at its first idle): to the specification, which knows no
    admission order, that must be invisible."""

    @pytest.mark.parametrize("name", MONOTONE)
    def test_same_victims_and_accounting_after_every_step(self, name, sanitized):
        metrics = random_script(name, 16, steps=400)
        assert metrics.evictions > 50 and metrics.warm_starts > 50

    def test_admitted_running_and_never_finished_is_never_offered(
        self, sanitized
    ):
        pool = ContainerPool(1000.0)
        idle = Container(make_function("A", memory_mb=100.0), 0.0)
        pool.add(idle)
        busy = Container(make_function("B", memory_mb=100.0), 0.0)
        busy.start_invocation(0.0, 1e9)
        pool.add(busy)
        assert pool.evictable_mb() == 100.0 and pool._idle_unpinned == 1
        for __ in range(3):
            assert list(pool.iter_victims(_key_of)) == [idle]
        assert pool.take_victims(pool.iter_victims(_key_of), 150.0) is None
        assert busy.container_id in pool._parked

    def test_never_idled_parked_container_cannot_be_evicted(self, sanitized):
        pool = ContainerPool(1000.0)
        busy = Container(make_function("A", memory_mb=100.0), 0.0)
        busy.start_invocation(0.0, 5.0)
        pool.add(busy)
        with pytest.raises(RuntimeError, match="while running"):
            pool.evict(busy)
        # The refused eviction changed nothing.
        assert busy in pool and pool.used_mb == 100.0
        assert busy.container_id in pool._parked
        busy.finish_invocation(5.0)  # first idle: enrolled and counted
        assert not pool._parked and pool.evictable_mb() == 100.0
        assert list(pool.iter_victims(_key_of)) == [busy]
        pool.evict(busy)
        assert len(pool) == 0 and pool.evictable_mb() == 0.0

    def test_add_enrolls_by_state(self, sanitized):
        """WARM: enrolled and evictable at once (prewarm, external
        drivers). RUNNING: parked. Pinned: never enrolled either way."""
        pool = ContainerPool(1000.0)
        warm = Container(make_function("A", memory_mb=100.0), 0.0)
        pool.add(warm)
        assert pool.evictable_mb() == 100.0
        assert list(pool.iter_victims(_key_of)) == [warm]
        for start in (False, True):
            pinned = Container(make_function("P", memory_mb=100.0), 0.0)
            pinned.pinned = True
            if start:
                pinned.start_invocation(0.0, 1.0)
            pool.add(pinned)
            if start:
                pinned.finish_invocation(1.0)
            assert pinned.container_id not in pool._parked
            assert pool.evictable_mb() == 100.0 and pool._idle_unpinned == 1
            assert list(pool.iter_victims(_key_of)) == [warm]
