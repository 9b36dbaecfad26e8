"""Unit tests for the HIST (hybrid histogram) policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.container import Container
from repro.core.policies.histogram import FunctionHistogram, HistogramPolicy
from repro.core.pool import ContainerPool
from repro.traces.model import Trace
from tests.conftest import make_function
from tests.test_hot_path_budget import CONTAINER_MB, churn_trace
from tests.test_spec_machine import Pair, replay_both

MIN = 60.0


def naive_windows(in_window_buckets):
    """``(head_s, tail_s)`` by nearest rank over the sorted list of
    every in-window sample's bucket: the definition the rank cursors
    must agree with."""
    ranked = sorted(in_window_buckets)
    if not ranked:
        return 0.0, 0.0
    total = len(ranked)
    head = ranked[max(1, int(round(0.05 * total))) - 1]
    tail = ranked[max(1, int(round(99.0 / 100.0 * total))) - 1]
    return float(head) * MIN, float(tail + 1) * MIN


@st.composite
def windows_and_gaps(draw):
    """A window (tiny or the policy's 240 minutes) and up to 300 gaps in
    whole seconds (so arrival times add up exactly): mostly spread over
    the window and a quarter beyond it, salted with zero gaps, bucket
    edges, the window's own edge and repeats of all of those."""
    window = draw(st.sampled_from([1, 3, 240]))
    edge = window * 60
    gap = st.one_of(
        st.integers(0, edge * 5 // 4),
        st.sampled_from([0, 59, 60, 61, edge - 1, edge, edge + 1, 4 * edge]),
    )
    return window, draw(st.lists(gap, max_size=300))


class TestFunctionHistogram:
    def test_first_arrival_records_nothing(self):
        h = FunctionHistogram(window_minutes=240)
        h.record_arrival(100.0)
        assert h.in_window_count == 0
        assert h.last_arrival_s == 100.0

    def test_iat_bucketing(self):
        h = FunctionHistogram(window_minutes=240)
        h.record_arrival(0.0)
        h.record_arrival(90.0)  # 1.5 minutes -> bucket 1
        assert h.buckets[1] == 1
        assert h.in_window_count == 1

    def test_out_of_window_iat(self):
        h = FunctionHistogram(window_minutes=240)
        h.record_arrival(0.0)
        h.record_arrival(241.0 * MIN)
        assert h.out_of_window == 1
        assert h.in_window_count == 0

    def test_predictable_requires_samples(self):
        h = FunctionHistogram(window_minutes=240)
        assert not h.is_predictable(cov_threshold=2.0, min_samples=2)

    def test_regular_iats_are_predictable(self):
        h = FunctionHistogram(window_minutes=240)
        for i in range(10):
            h.record_arrival(i * 10 * MIN)
        assert h.is_predictable(cov_threshold=2.0, min_samples=2)

    def test_wild_iats_are_unpredictable(self):
        h = FunctionHistogram(window_minutes=240)
        t = 0.0
        # Alternating 1-minute and ~3.9-hour gaps: CoV > 2.
        for i in range(40):
            t += MIN if i % 2 else 232 * MIN
            h.record_arrival(t)
        assert not h.is_predictable(cov_threshold=0.5, min_samples=2)

    def test_mostly_out_of_window_is_unpredictable(self):
        h = FunctionHistogram(window_minutes=240)
        t = 0.0
        for i in range(10):
            t += 300 * MIN  # beyond the window
            h.record_arrival(t)
        h.record_arrival(t + MIN)
        assert not h.is_predictable(cov_threshold=2.0, min_samples=1)

    def test_head_and_tail_windows(self):
        h = FunctionHistogram(window_minutes=240)
        for i in range(100):
            h.record_arrival(i * 10 * MIN)  # all IATs exactly 10 min
        assert h.head_s() == pytest.approx(10 * MIN)
        assert h.tail_s() == pytest.approx(11 * MIN)  # upper bucket edge

    def test_percentiles_on_empty_histogram(self):
        h = FunctionHistogram(window_minutes=240)
        assert h.head_s() == 0.0
        assert h.tail_s() == 0.0
        assert h.mean_iat_s() is None

    def test_state_is_fed_by_arrivals_only(self):
        # Preloaded buckets used to rank percentiles against a total
        # that is_predictable / mean_iat_s never saw (welford.count
        # stayed 0): the constructor takes the window and nothing else.
        with pytest.raises(TypeError):
            FunctionHistogram(window_minutes=240, buckets=[0, 3] + [0] * 238)
        h = FunctionHistogram(window_minutes=240)
        for i in range(4):
            h.record_arrival(i * 90.0)
        assert h.in_window_count == sum(h.buckets) == 3
        assert h.head_s() == 1 * MIN and h.tail_s() == 2 * MIN
        assert h.is_predictable(cov_threshold=2.0, min_samples=3)
        assert h.mean_iat_s() == pytest.approx(90.0)

    @settings(deadline=None, max_examples=150)
    @given(windows_and_gaps())
    def test_rank_cursors_match_naive_nearest_rank(self, window_and_gaps):
        window, gaps = window_and_gaps
        h = FunctionHistogram(window_minutes=window)
        now_s, in_window, beyond = 0.0, [], 0
        h.record_arrival(now_s)
        for gap_s in gaps:
            now_s += gap_s
            h.record_arrival(now_s)
            if gap_s // 60 < window:
                in_window.append(gap_s // 60)
            else:
                beyond += 1
            assert (h.head_s(), h.tail_s()) == naive_windows(in_window)
            assert (h.in_window_count, h.out_of_window) == (len(in_window), beyond)


class TestHistogramPolicyExpiry:
    def test_unpredictable_gets_generic_ttl(self):
        policy = HistogramPolicy(generic_ttl_s=7200.0)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 0.0)
        pool.add(c)
        policy.on_invocation(f, 0.0)
        policy.on_cold_start(c, 0.0, pool)
        assert policy.expired_containers(pool, 7199.0) == []
        expired = policy.expired_containers(pool, 7200.0)
        assert [e[0] for e in expired] == [c]

    def test_frequent_predictable_keeps_through_tail(self):
        policy = HistogramPolicy(min_samples=2)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 0.0)
        pool.add(c)
        # Train: IATs of ~30 s (bucket 0 -> head 0, release threshold
        # keeps the container alive through the tail).
        t = 0.0
        for __ in range(10):
            policy.on_invocation(f, t)
            t += 30.0
        policy.on_cold_start(c, t, pool)
        # Tail is 1 minute (bucket 0 upper edge), margin 1.15.
        assert policy.expired_containers(pool, t + 60.0) == []
        assert policy.expired_containers(pool, t + 1.15 * 60.0 + 1.0)

    def test_sparse_predictable_releases_then_prewarms(self):
        policy = HistogramPolicy(min_samples=2, release_threshold_s=60.0)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 0.0)
        pool.add(c)
        t = 0.0
        for __ in range(10):
            policy.on_invocation(f, t)
            t += 600.0  # 10-minute IATs: head = 10 min > release threshold
        policy.on_cold_start(c, t, pool)
        # Container released quickly...
        assert policy.expired_containers(pool, t + 61.0)
        # ...and a prewarm is scheduled around 0.85 * head.
        assert policy.due_prewarms(t + 0.85 * 600.0 - 5.0) == []
        due = policy.due_prewarms(t + 0.85 * 600.0 + 5.0)
        assert len(due) == 1
        assert due[0].function.name == "A"
        assert due[0].expiry_s > due[0].at_time_s

    def test_prewarm_cancelled_by_real_arrival(self):
        policy = HistogramPolicy(min_samples=2, release_threshold_s=60.0)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 0.0)
        pool.add(c)
        t = 0.0
        for __ in range(10):
            policy.on_invocation(f, t)
            t += 600.0
        policy.on_cold_start(c, t, pool)
        # The next invocation arrives before the prewarm fires.
        policy.on_invocation(f, t + 120.0)
        policy.on_warm_start(c, t + 120.0, pool)
        # The original prewarm (for time t + 510) must not fire.
        due = policy.due_prewarms(t + 520.0)
        assert all(r.at_time_s > t + 520.0 for r in due) or due == []

    def test_prewarm_expiry_applied_via_on_prewarm(self):
        policy = HistogramPolicy()
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 100.0)
        pool.add(c)
        from repro.core.policies.base import PrewarmRequest

        request = PrewarmRequest(f, at_time_s=100.0, expiry_s=400.0)
        policy.on_prewarm(c, request, pool)
        assert policy.expired_containers(pool, 399.0) == []
        assert policy.expired_containers(pool, 400.0)

    def test_eviction_cleans_expiry_state(self):
        policy = HistogramPolicy()
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 0.0)
        pool.add(c)
        policy.on_invocation(f, 0.0)
        policy.on_cold_start(c, 0.0, pool)
        pool.evict(c)
        policy.on_evict(c, 1.0, pool, pressure=True)
        assert pool.expiry_deadline_of(c) is None


class TestPlanCache:
    def _started(self, policy, arrivals_s):
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = Container(f, 0.0)
        pool.add(c)
        for t in arrivals_s:
            policy.on_invocation(f, t)
        policy.on_warm_start(c, arrivals_s[-1], pool)
        return pool, f, c

    @pytest.mark.parametrize("gap_s", [600.0, 241 * MIN])  # in / out of window
    def test_every_arrival_invalidates_the_plan(self, gap_s):
        policy = HistogramPolicy()
        pool, f, c = self._started(policy, [0.0, 600.0, 1200.0])
        hist = policy.histogram_of("A")
        stale = hist.plan
        policy.on_invocation(f, 1200.0 + gap_s)
        assert hist.plan is None
        policy.on_warm_start(c, 1200.0 + gap_s, pool)
        assert hist.plan is not None and hist.plan is not stale

    def test_reset_drops_cached_plans(self):
        policy = HistogramPolicy()
        self._started(policy, [0.0, 600.0, 1200.0])
        policy.reset()
        assert policy.histogram_of("A").plan is None

    def test_unannounced_start_plans_the_generic_ttl(self):
        # Bare lifecycle drivers may call a start hook with no
        # on_invocation before it: no histogram yet, generic TTL.
        policy = HistogramPolicy(generic_ttl_s=7200.0)
        pool = ContainerPool(1000.0)
        c = Container(make_function("A"), 5.0)
        pool.add(c)
        policy.on_cold_start(c, 5.0, pool)
        assert pool.expiry_deadline_of(c) == 5.0 + 7200.0
        assert policy.due_prewarms(float("inf")) == []
        assert policy.priority(c, 5.0) == -(c.last_used_s + 7200.0 - 5.0)

    @pytest.mark.parametrize("mean_gap_s", [20.0, 200.3, 613.7, 3333.3])
    def test_cached_offsets_reproduce_the_absolute_plan_exactly(self, mean_gap_s):
        # Frequent (keep through the tail), sparse (release + prewarm)
        # and not-yet-predictable starts, at times with no short binary
        # form: every deadline and every prewarm must be the one the
        # specification recomputes from the raw IAT list at the start
        # itself (tests/reference_model.py), bit for bit.
        f = make_function("A")
        now_s = 0.1
        with Pair(Trace([f], []), "HIST", 1000.0) as pair:
            for i in range(40):
                now_s += mean_gap_s * (0.7 + 0.6 * ((i * 7) % 10) / 9.0)
                pair.admit(f, now_s)
            assert (pair.sim.metrics.prewarms > 0) == (mean_gap_s > 100.0)


class TestHistogramPolicyPressure:
    def test_evicts_furthest_predicted_first(self):
        policy = HistogramPolicy(min_samples=2)
        pool = ContainerPool(200.0)
        soon = make_function("SOON", memory_mb=100.0)
        late = make_function("LATE", memory_mb=100.0)
        # SOON arrives every 2 minutes, LATE every 30 minutes.
        t = 0.0
        for i in range(10):
            policy.on_invocation(soon, i * 120.0)
            policy.on_invocation(late, i * 1800.0)
        cs = Container(soon, 1080.0)
        cs.last_used_s = 1080.0
        cl = Container(late, 1080.0)
        cl.last_used_s = 1080.0
        pool.add(cs)
        pool.add(cl)
        victims = policy.select_victims(pool, 100.0, 1100.0)
        assert victims == [cl]

    def test_cached_priorities_evict_the_naive_order(self):
        # The hist_churn shape at 0.4 x working set, scaled down: every
        # miss under pressure scores the whole idle set. Scoring from
        # the cached plan must pick the victims, in the order, that the
        # specification picks recomputing every plan from the raw IATs.
        metrics = replay_both(
            churn_trace(duration_s=3600.0), "HIST", 0.4 * 60 * CONTAINER_MB
        )
        assert metrics.evictions > 200

    def test_reset_clears_everything(self):
        policy = HistogramPolicy()
        f = make_function("A")
        policy.on_invocation(f, 0.0)
        policy.on_invocation(f, 60.0)
        policy.reset()
        assert policy.frequency_of("A") == 0
        assert policy.histogram_of("A").in_window_count == 0
