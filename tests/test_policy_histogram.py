"""Unit tests for the HIST (hybrid histogram) policy."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.histogram import GROWTH_BUCKETS, FunctionHistogram, HistogramPolicy
from repro.core.pool import ContainerPool
from repro.traces.model import Trace
from tests.conftest import make_container, make_function
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
        # that is_predictable / mean_iat_s never saw (the Welford count
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
            assert sum(h.buckets) == h.in_window_count
            # Grown to cover the highest in-window bucket, by at most one
            # block past it and never past the window.
            highest = max(in_window, default=-1)
            assert highest < len(h.buckets) <= min(highest + GROWTH_BUCKETS, window)

    def test_buckets_grow_by_blocks_up_to_the_window(self):
        h = FunctionHistogram(window_minutes=20)
        assert h.buckets == []
        h.record_arrival(0.0)
        assert h.buckets == []  # a first arrival has no IAT
        widths = []
        for gap_minutes in (0.5, 7.9, 8.0, 3.0, 19.99, 25.0):
            h.record_arrival(h.last_arrival_s + gap_minutes * MIN)
            widths.append(len(h.buckets))
        assert widths == [8, 8, 16, 16, 20, 20]
        assert h.out_of_window == 1

    @pytest.mark.parametrize("window", [0, -1, 2.5, 240.0, True, None])
    def test_window_is_a_positive_int(self, window):
        with pytest.raises(ValueError, match="window_minutes must be an int >= 1"):
            FunctionHistogram(window_minutes=window)

    @pytest.mark.parametrize("back_s", [0.001, 30.0, 90.0, 300 * MIN])
    def test_an_arrival_before_the_last_records_nothing(self, back_s):
        # Before, -30 s landed in bucket 0, -90 s in the window's last
        # bucket (``buckets[-1]``) and -300 minutes raised IndexError.
        h = FunctionHistogram(window_minutes=240)
        for now_s in (0.0, 600.0, 1200.0):
            h.record_arrival(now_s)

        def state():
            return (list(h.buckets), h.in_window_count, h.iat_mean, h.iat_m2,
                    h.out_of_window, h.head_s(), h.tail_s())

        before = state()
        h.record_arrival(1200.0 - back_s)
        assert state() == before
        # The series restarts at the earlier arrival.
        assert h.last_arrival_s == 1200.0 - back_s
        h.record_arrival(1200.0 - back_s + 600.0)
        assert h.buckets[10] == 3 and h.in_window_count == 3

    def test_a_nan_arrival_is_refused(self):
        h = FunctionHistogram(window_minutes=240)
        h.record_arrival(0.0)
        with pytest.raises(ValueError):
            h.record_arrival(float("nan"))
        assert (h.buckets, h.in_window_count, h.last_arrival_s) == ([], 0, 0.0)

    def test_footprint_follows_the_iats_not_the_window(self):
        """1,000 functions whose IATs all stay under 16 minutes of a
        240-minute window: the eager list of 240 zeros alone took
        1,976 B per function."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            histograms = [FunctionHistogram(window_minutes=240) for __ in range(1000)]
            for i, h in enumerate(histograms):
                now_s = float(i)
                h.record_arrival(now_s)
                for gap_s in (59.0, 900.0, 450.5, 61.0, 959.0):
                    now_s += gap_s
                    h.record_arrival(now_s)
            per_function = (tracemalloc.get_traced_memory()[0] - before) / len(histograms)
        finally:
            tracemalloc.stop()
        assert all(len(h.buckets) == 16 for h in histograms)
        assert per_function < 1000, f"{per_function:.0f} B per function"


class TestHistogramPolicyExpiry:
    def test_unpredictable_gets_generic_ttl(self):
        policy = HistogramPolicy(generic_ttl_s=7200.0)
        pool = ContainerPool(1000.0)
        f = make_function("A")
        c = make_container(f, 0.0)
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
        c = make_container(f, 0.0)
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
        c = make_container(f, 0.0)
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
        c = make_container(f, 0.0)
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
        c = make_container(f, 100.0)
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
        c = make_container(f, 0.0)
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
        c = make_container(f, 0.0)
        pool.add(c)
        for t in arrivals_s:
            policy.on_invocation(f, t)
        policy.on_warm_start(c, arrivals_s[-1], pool)
        return pool, f, c

    # In the window on the head's bucket, out of the window, and in the
    # window a bucket that becomes the head: only the last moves the plan.
    @pytest.mark.parametrize("gap_s", [600.0, 241 * MIN, 60.0])
    def test_every_arrival_invalidates_the_plan(self, gap_s):
        arrivals_s = [0.0, 600.0, 1200.0, 1200.0 + gap_s]
        policy = HistogramPolicy()
        pool, f, c = self._started(policy, arrivals_s[:-1])
        hist = policy.histogram_of("A")
        before = hist.plan
        policy.on_invocation(f, arrivals_s[-1])
        assert hist.plan is None
        policy.on_warm_start(c, arrivals_s[-1], pool)
        fresh = HistogramPolicy()
        self._started(fresh, arrivals_s)
        assert hist.plan == fresh.histogram_of("A").plan
        assert (hist.plan != before) == (gap_s == 60.0)

    @settings(deadline=None, max_examples=100)
    @given(
        windows_and_gaps(),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0.0, 60.0, 3600.0]),
    )
    def test_the_memoised_plan_is_the_fresh_plan(
        self, window_and_gaps, min_samples, release_threshold_s
    ):
        # A generic TTL no predictable plan can hold (its keep-alive is
        # at least 1.15 minutes) tells the two branches apart, so the
        # spelled-out CoV test is held to is_predictable as well.
        window, gaps = window_and_gaps
        params = dict(
            window_minutes=window, min_samples=min_samples,
            release_threshold_s=release_threshold_s, generic_ttl_s=0.5,
        )
        policy = HistogramPolicy(**params)
        hist = policy.histogram_of("A")
        arrivals_s = [0.0]
        for gap_s in gaps:
            arrivals_s.append(arrivals_s[-1] + gap_s)
        for i, now_s in enumerate(arrivals_s):
            hist.record_arrival(now_s)
            plan = policy._plan(hist)
            fresh = FunctionHistogram(window)
            for then_s in arrivals_s[: i + 1]:
                fresh.record_arrival(then_s)
            assert plan == HistogramPolicy(**params)._plan(fresh)
            unpredictable = not hist.is_predictable(2.0, min_samples)
            assert (plan[2] == 0.5) == unpredictable

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
        c = make_container(make_function("A"), 5.0)
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
        pair = Pair(Trace([f], []), "HIST", 1000.0)
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
        cs = make_container(soon, 1080.0)
        cs.last_used_s = 1080.0
        cl = make_container(late, 1080.0)
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
