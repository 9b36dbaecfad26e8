"""Unit tests for the event queue and the sweep memory grid."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.sweep import memory_sizes_gb


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop() for __ in range(3)] == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_fifo_for_equal_times(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_pop_until(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0, 4.0):
            q.push(t, t)
        drained = list(q.pop_until(2.5))
        assert [t for t, __ in drained] == [1.0, 2.0]
        assert len(q) == 2

    def test_pop_before_is_strict(self):
        q = EventQueue([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        assert list(q.pop_before(2.0)) == [(1.0, "a")]
        assert q.next_s == 2.0 and len(q) == 2

    def test_entries_are_filed_first(self):
        q = EventQueue([(1.0, "schedule"), (2.0, "later")])
        q.push(1.0, "pushed")
        assert [q.pop()[1] for __ in range(3)] == ["schedule", "pushed", "later"]

    def test_retries_are_counted(self):
        q = EventQueue([(1.0, "event")])
        q.push(2.0, "retry", retry=True)
        q.push(0.5, "tick")
        assert q.retries == 1
        q.pop(), q.pop()
        assert q.retries == 1
        q.pop()
        assert q.retries == 0

    def test_merge_puts_each_arrival_after_what_is_due_by_it(self):
        q = EventQueue([(1.0, "event")])
        q.push(2.0, "retry", retry=True)
        seen = []
        for time_s, arrival in q.merge([(1.0, "a1"), (1.5, "a2"), (3.0, "a3")]):
            if arrival is None:  # a due entry: the consumer pops it
                __, entry = q.pop()
                seen.append((time_s, entry))
                if entry == "retry":  # filed on the way, due before a3
                    q.push(2.5, "again", retry=True)
            else:
                seen.append((time_s, arrival))
        assert seen == [
            (1.0, "event"), (1.0, "a1"), (1.5, "a2"), (2.0, "retry"), (2.5, "again"),
            (3.0, "a3"),
        ]

    def test_merge_runs_on_past_the_arrivals_only_while_a_retry_is_pending(self):
        q = EventQueue()
        q.push(5.0, "retry", retry=True)
        q.push(5.0, "same instant")
        q.push(9.0, "tick")
        fired = []
        for time_s, __ in q.merge([(1.0, "arrival")]):
            if time_s > 1.0:
                fired.append(q.pop())
        assert fired == [(5.0, "retry"), (5.0, "same instant")]
        assert q.next_s == 9.0  # beyond the last retry: stays queued

    def test_fire_runs_the_earliest_action_at_its_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, fired.append)
        q.fire()
        assert fired == [2.0] and not q

    def test_next_s_is_the_earliest_time_or_inf(self):
        q = EventQueue()
        assert q.next_s == float("inf")
        q.push(5.0, "x")
        q.push(3.0, "y")
        q.push(4.0, "z")
        assert q.next_s == 3.0
        q.pop()
        assert q.next_s == 4.0
        q.clear()
        assert q.next_s == float("inf")
        # "Due by the end of time" on an empty queue is nothing, not a pop.
        assert list(q.pop_until(float("inf"))) == []

    def test_bool_and_clear(self):
        q = EventQueue()
        assert not q
        q.push(1.0, "x")
        assert q
        q.clear()
        assert not q


class TestMemorySizes:
    def test_inclusive_grid(self):
        assert memory_sizes_gb(1.0, 3.0, 1.0) == [1.0, 2.0, 3.0]

    def test_fractional_steps(self):
        sizes = memory_sizes_gb(0.5, 2.0, 0.5)
        assert sizes == [0.5, 1.0, 1.5, 2.0]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            memory_sizes_gb(1.0, 2.0, 0.0)
