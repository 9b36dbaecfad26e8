"""The pool's incremental expiry index (PR 5's hot-path overhaul).

Unit tests pin the index's contract — non-consuming pops, busy
deferral, reschedule supersession (deadlines are *not* monotone),
evict cleanup, pinned exclusion, and that only a scheduled deadline
expires a container — and a
randomized equivalence suite drives thousands of mixed operations
through the simulator and the executable specification's full scan.
"""

from repro.core.pool import ContainerPool
from repro.traces.model import TraceFunction
from tests.conftest import make_container
from tests.test_spec_machine import random_script


def make_function(name, memory_mb=10.0):
    return TraceFunction(name, memory_mb, 0.1, 1.0)


def pooled(pool, name="F", at=0.0):
    container = make_container(make_function(name), at)
    pool.add(container)
    return container


class TestScheduleAndPop:
    def test_nothing_due(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 100.0)
        assert pool.pop_expired(99.9) == []

    def test_due_entry_reported_with_deadline(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 100.0)
        assert pool.pop_expired(100.0) == [(c, 100.0)]

    def test_pop_is_non_consuming(self):
        # The simulator evicts what it pops, but unit-test drivers call
        # expired_containers repeatedly without evicting; the index
        # must keep reporting until the caller acts.
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 50.0)
        assert pool.pop_expired(60.0) == [(c, 50.0)]
        assert pool.pop_expired(60.0) == [(c, 50.0)]

    def test_ascending_deadline_then_id_order(self):
        pool = ContainerPool(1000.0)
        a = pooled(pool, "A")
        b = pooled(pool, "B")
        c = pooled(pool, "C")
        pool.schedule_expiry(a, 30.0)
        pool.schedule_expiry(b, 10.0)
        pool.schedule_expiry(c, 30.0)
        assert pool.pop_expired(40.0) == [(b, 10.0), (a, 30.0), (c, 30.0)]

    def test_reschedule_later_supersedes(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 10.0)
        pool.schedule_expiry(c, 90.0)
        assert pool.pop_expired(50.0) == []
        assert pool.pop_expired(90.0) == [(c, 90.0)]

    def test_reschedule_earlier_supersedes(self):
        # HIST re-plans can pull a deadline *earlier*; the index must
        # not assume monotone deadlines.
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 90.0)
        pool.schedule_expiry(c, 10.0)
        assert pool.pop_expired(50.0) == [(c, 10.0)]

    def test_busy_container_deferred_until_idle(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 10.0)
        c.start_invocation(5.0, 20.0)  # busy until 25, past the deadline
        assert pool.pop_expired(15.0) == []
        c.finish_invocation(25.0)
        assert pool.pop_expired(26.0) == [(c, 10.0)]

    def test_evicted_entry_is_dropped(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        pool.schedule_expiry(c, 10.0)
        pool.evict(c)
        assert pool.pop_expired(20.0) == []
        assert pool.expiry_deadline_of(c) is None

    def test_pinned_is_never_scheduled(self):
        pool = ContainerPool(1000.0)
        container = make_container(make_function("P"), 0.0)
        container.pinned = True
        pool.add(container)
        pool.schedule_expiry(container, 1.0)
        assert pool.expiry_deadline_of(container) is None
        assert pool.pop_expired(100.0) == []

    def test_unscheduled_never_expires(self):
        # Only a policy hook's deadline expires a container.
        pool = ContainerPool(1000.0)
        pooled(pool, "A")
        assert pool.next_expiry_s() == float("inf")
        assert pool.pop_expired(1e9) == []
        b = pooled(pool, "B")
        pool.schedule_expiry(b, 80.0)
        assert pool.next_expiry_s() == 80.0
        assert pool.pop_expired(100.0) == [(b, 80.0)]


class TestDoubleExpiry:
    """A deadline that returns to a value it held before (A, B, A) leaves
    two live ``(A, id)`` heap entries; the container must still be
    reported once. Found by tests/test_spec_machine.py, which shrank it
    to the three calls below."""

    def there_and_back_again(self):
        pool = ContainerPool(1000.0)
        c = pooled(pool)
        for deadline in (100.0, 200.0, 100.0):
            pool.schedule_expiry(c, deadline)
        return pool, c

    def test_there_and_back_again_reports_once(self):
        pool, c = self.there_and_back_again()
        assert pool.pop_expired(150.0) == [(c, 100.0)]
        assert pool.pop_expired(150.0) == [(c, 100.0)]  # and the twin is gone for good
        assert pool._expiry_heap.count((100.0, c.container_id)) == 1

    def test_busy_twin_is_dropped_too(self):
        pool, c = self.there_and_back_again()
        c.start_invocation(90.0, 100.0)
        assert pool.pop_expired(150.0) == []
        c.finish_invocation(190.0)
        assert pool.pop_expired(195.0) == [(c, 100.0)]

    def test_hist_replans_a_deadline_back_without_crashing(self):
        # The smallest trace that tripped it: A's generic keep-alive from
        # t=60 ends at 7260; its second arrival moves that to 13140; its
        # third makes it predictable (release after 60 s): 7200 + 60 is
        # 7260 again. B's entry tops the heap and shields the stale one
        # from the purge in next_expiry_s().
        from repro.sim.scheduler import simulate
        from repro.traces.model import Invocation, Trace

        arrivals = [(0.0, "B"), (60.0, "A"), (5940.0, "A"), (7200.0, "A"), (7300.0, "B")]
        trace = Trace(
            [make_function("A"), make_function("B")],
            [Invocation(time_s, name) for time_s, name in arrivals],
        )
        metrics = simulate(trace, "HIST", 1024.0).metrics  # KeyError before the fix
        assert metrics.expirations == 2 and metrics.cold_starts == 3


class TestRandomizedEquivalence:
    """The heap-backed index against the specification's full scan
    (tests/reference_model.py): seeded arrivals, housekeeping and a
    third of the steps re-planning a deadline, possibly into the past,
    compared after every step."""

    def test_equivalence_across_seeds(self):
        expired = sum(
            random_script("TTL", seed, steps=400, reschedules=0.35).expirations
            for seed in range(8)
        )
        assert expired > 400

    def test_equivalence_with_eviction_of_expired(self):
        # HIST re-plans on its own too, and pre-warms what it released.
        metrics = random_script("HIST", 99, steps=600, reschedules=0.2)
        assert metrics.expirations > 100 and metrics.prewarms > 5
