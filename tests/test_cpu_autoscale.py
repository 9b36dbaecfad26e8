"""Tests for the reactive CPU auto-scaler."""

import pytest

from repro.provisioning.cpu_autoscale import ReactiveCpuScaler


def reactive(**kwargs):
    defaults = dict(
        target_utilization=0.5,
        min_cores=1,
        max_cores=64,
        scale_down_hold_s=1000.0,
        ewma_alpha=1.0,  # no smoothing: deterministic tests
        initial_cores=2,
    )
    defaults.update(kwargs)
    return ReactiveCpuScaler(**defaults)


class TestReactive:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReactiveCpuScaler(target_utilization=1.0)
        with pytest.raises(ValueError):
            ReactiveCpuScaler(min_cores=0)
        with pytest.raises(ValueError):
            ReactiveCpuScaler(min_cores=8, max_cores=4)
        with pytest.raises(ValueError):
            reactive().step(0.0, 1.0, 0.0)

    def test_scale_up_is_immediate(self):
        scaler = reactive()
        decision = scaler.step(0.0, arrival_rate=10.0, mean_service_time_s=1.0)
        # offered load 10 cores / 0.5 target -> 20 cores.
        assert decision.cores == 20
        assert decision.resized

    def test_scale_down_held_then_applied(self):
        scaler = reactive()
        scaler.step(0.0, 10.0, 1.0)  # up to 20
        d1 = scaler.step(100.0, 1.0, 1.0)  # wants 2, hold starts
        assert d1.cores == 20 and not d1.resized
        d2 = scaler.step(500.0, 1.0, 1.0)  # still inside the hold
        assert d2.cores == 20
        d3 = scaler.step(1200.0, 1.0, 1.0)  # hold elapsed
        assert d3.cores == 2 and d3.resized

    def test_demand_spike_resets_hold(self):
        scaler = reactive()
        scaler.step(0.0, 10.0, 1.0)  # 20 cores
        scaler.step(100.0, 1.0, 1.0)  # hold starts
        scaler.step(600.0, 12.0, 1.0)  # spike: back above, hold cancelled
        d = scaler.step(1300.0, 1.0, 1.0)  # new hold only started now
        assert d.cores > 2

    def test_bounds_respected(self):
        scaler = reactive(max_cores=8)
        assert scaler.step(0.0, 1000.0, 1.0).cores == 8
        scaler2 = reactive(min_cores=4)
        scaler2.step(0.0, 0.001, 1.0)
        assert scaler2.cores >= 4
