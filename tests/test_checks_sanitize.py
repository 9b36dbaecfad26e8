"""Tests for the runtime invariant sanitizer (REPRO_SANITIZE=1).

The sanitizer must (a) catch deliberately-injected accounting drift,
victim-order violations, and trace/metrics counter divergence, and
(b) install nothing at all when disabled — the zero-overhead contract
the bench-smoke budget relies on.
"""

import os

import pytest

from repro.checks.sanitize import (
    SanitizeError,
    sanitize_enabled,
    set_sanitize,
)
from repro.core.container import Container
from repro.core.policies.base import create_policy
from repro.core.pool import ContainerPool
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.synth import skewed_frequency_trace
from tests.conftest import make_function


@pytest.fixture
def unsanitized():
    set_sanitize(False)
    yield
    set_sanitize(None)


def make_pool(capacity_mb=1000.0):
    return ContainerPool(capacity_mb)


def pooled(pool, memory_mb=200.0, name="f"):
    container = Container(make_function(name=name, memory_mb=memory_mb), 0.0)
    pool.add(container)
    return container


class TestEnablement:
    def test_env_var_controls_default(self, monkeypatch):
        set_sanitize(None)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled()

    def test_set_sanitize_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        set_sanitize(False)
        try:
            assert not sanitize_enabled()
        finally:
            set_sanitize(None)

    def test_cli_sanitize_flag_exports_env(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_SANITIZE", "0")
        code = cli_main(
            [
                "simulate",
                "--trace",
                "skewed-frequency",
                "--memory-gb",
                "2",
                "--sanitize",
            ]
        )
        assert code == 0
        assert os.environ["REPRO_SANITIZE"] == "1"
        capsys.readouterr()


class TestPoolAccounting:
    def test_detects_used_mb_drift(self, sanitized):
        pool = make_pool()
        pooled(pool, name="a")
        pool._used_mb += 64.0  # simulate a bookkeeping bug
        with pytest.raises(SanitizeError, match="memory conservation"):
            pooled(pool, name="b")

    def test_detects_evictable_drift(self, sanitized):
        pool = make_pool()
        container = pooled(pool, name="a")
        pool._evictable_mb += 64.0
        with pytest.raises(SanitizeError, match="evictable-memory"):
            pool.evict(container)

    def test_clean_pool_passes(self, sanitized):
        pool = make_pool()
        a = pooled(pool, name="a")
        pooled(pool, name="b")
        pool.evict(a)
        assert pool.used_mb == 200.0

    def test_disabled_pool_tolerates_drift(self, unsanitized):
        pool = make_pool()
        pooled(pool, name="a")
        pool._used_mb += 64.0
        pooled(pool, name="b")  # no hook installed, no error


class TestVictimOrder:
    def _two_idle(self, sanitized_pool):
        a = pooled(sanitized_pool, name="a")
        b = pooled(sanitized_pool, name="b")
        return a, b

    def test_monotone_iteration_passes(self, sanitized):
        pool = make_pool()
        a, b = self._two_idle(pool)
        keys = {
            a.container_id: (1.0, 0.0, a.container_id),
            b.container_id: (2.0, 0.0, b.container_id),
        }
        victims = list(pool.iter_victims(lambda c: keys[c.container_id]))
        assert victims == [a, b]

    def test_key_decrease_mid_scan_raises(self, sanitized):
        pool = make_pool()
        a, b = self._two_idle(pool)
        keys = {
            a.container_id: (1.0, 0.0, a.container_id),
            b.container_id: (2.0, 0.0, b.container_id),
        }
        iterator = pool.iter_victims(lambda c: keys[c.container_id])
        assert next(iterator) is a
        # A policy breaking the monotone-key contract: b's key drops
        # below the key already yielded.
        keys[b.container_id] = (0.5, 0.0, b.container_id)
        with pytest.raises(SanitizeError, match="monotonicity"):
            list(iterator)


class TestCounterEquality:
    def test_clean_run_passes(self, sanitized):
        result = simulate(skewed_frequency_trace(seed=1), "GD", 2048.0)
        assert result.metrics.served > 0

    def test_metrics_corruption_detected(self, sanitized):
        trace = skewed_frequency_trace(seed=1)
        sim = KeepAliveSimulator(trace, create_policy("GD"), 2048.0)
        assert sim._sanitize_report is not None
        sim.metrics.cold_starts += 1  # diverge from the event stream
        with pytest.raises(SanitizeError, match="counter equality"):
            sim.run()

    def test_user_tracer_suppresses_internal_report(self, sanitized):
        trace = skewed_frequency_trace(seed=1)
        tracer = Tracer(RingBufferSink())
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 2048.0, tracer=tracer
        )
        assert sim._sanitize_report is None

    def test_warmup_run_skips_counter_check(self, sanitized):
        trace = skewed_frequency_trace(seed=1)
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 2048.0, warmup_s=60.0
        )
        assert sim._sanitize_report is None
        sim.run()  # pool invariants still checked, counters not


class TestZeroOverheadWhenDisabled:
    def test_no_hooks_installed(self, unsanitized):
        trace = skewed_frequency_trace(seed=1)
        sim = KeepAliveSimulator(trace, create_policy("GD"), 2048.0)
        assert sim._sanitize_report is None
        assert sim._tracer is None
        assert not sim.pool._sanitize


class TestDriftClampChurn:
    """Regression for the float-drift clamps (see ContainerPool.evict):
    they must fire only when the population is actually empty, so
    fractional-size churn neither accumulates visible drift nor trips
    the sanitizer's exact recomputation."""

    def test_fractional_churn_clean_under_sanitizer(self, sanitized):
        import random

        pool = ContainerPool(10_000.0)
        rng = random.Random(2024)
        for round_no in range(30):
            live = []
            for i in range(20):
                mem = rng.choice((33.3, 128.7, 0.07, 501.101, 76.49))
                c = Container(
                    make_function(name=f"f{i}", memory_mb=mem), 0.0
                )
                pool.add(c)  # sanitizer recomputes exactly per op
                live.append(c)
            rng.shuffle(live)
            for c in live:
                pool.evict(c)
            # Fully drained: the clamp must have zeroed the residue.
            assert pool.used_mb == 0.0
            assert pool.evictable_mb() == 0.0

    def test_clamp_never_fires_while_populated(self, sanitized):
        pool = ContainerPool(1000.0)
        keeper = pooled(pool, memory_mb=0.1, name="keeper")
        for i in range(200):
            c = pooled(pool, memory_mb=3.7, name=f"churn{i}")
            pool.evict(c)
        # The keeper's footprint must survive the churn (float
        # residue within the sanitizer's tolerance is fine) — a clamp
        # firing mid-population would have zeroed used_mb with a
        # container still pooled, and the sanitizer's per-op exact
        # recomputation would have raised above.
        assert pool.used_mb == pytest.approx(0.1)
        pool.evict(keeper)
        assert pool.used_mb == 0.0

    def test_can_fit_tolerates_relative_drift(self, sanitized):
        # 100 x 0.1 accumulates binary-representation error well
        # within the capacity-relative slack; the final exact-fit add
        # must still be admitted.
        pool = ContainerPool(10.0)
        for i in range(100):
            assert pool.can_fit(0.1)
            pool.add(
                Container(
                    make_function(name=f"s{i}", memory_mb=0.1), 0.0
                )
            )
        assert not pool.can_fit(0.1 + 1e-6)

    def test_set_capacity_tolerates_relative_drift(self, sanitized):
        pool = ContainerPool(10.0)
        for i in range(100):
            pool.add(
                Container(
                    make_function(name=f"s{i}", memory_mb=0.1), 0.0
                )
            )
        # Shrinking to the nominal sum must survive the accumulated
        # float residue in used_mb.
        pool.set_capacity(10.0)
        assert pool.capacity_mb == 10.0
