"""Multi-tenant keep-alive: tenant identity, pool modes, weighted GDSF,
fairness metrics, and backward compatibility (docs/multi-tenancy.md).

The backward-compat tests are the load-bearing ones: a tenant-less
trace simulated in shared mode must behave — and serialize, and
fingerprint — exactly as it did before multi-tenancy existed, so the
committed baselines (benchmarks/BASELINE.json) stay valid.
"""

import dataclasses
import json

import pytest

from repro.checks.sanitize import SanitizeError, check_tenant_counter_equality
from repro.cli import build_parser
from repro.core.container import Container
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.pool import CapacityError, ContainerPool
from repro.obs.report import report_from_events
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim.metrics import SimulationMetrics, jain_index
from repro.sim.scheduler import simulate
from repro.sim.sweep import SweepPoint, point_fingerprint, run_cell
from repro.traces.io import (
    load_trace_csv,
    load_trace_json,
    save_trace_csv,
    save_trace_json,
)
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.streaming import StreamingChurnTrace
from repro.traces.synth import noisy_neighbor_trace
from tests.conftest import from_columns


def _two_tenant_trace():
    """Two tenants, one function each, interleaved arrivals."""
    functions = [
        TraceFunction("alpha", 256.0, 0.1, 1.0, tenant_id=1),
        TraceFunction("beta", 256.0, 0.1, 1.0, tenant_id=2),
    ]
    invocations = [
        Invocation(t, name)
        for t, name in enumerate(["alpha", "beta"] * 20)
    ]
    return Trace(functions, invocations, name="two-tenant")


# ---------------------------------------------------------------------------
# Tenant identity in the trace model and serialization
# ---------------------------------------------------------------------------


class TestTenantModel:
    def test_default_tenant_is_zero(self):
        func = TraceFunction("f", 128.0, 0.1, 1.0)
        assert func.tenant_id == 0

    def test_negative_tenant_rejected(self):
        with pytest.raises(ValueError):
            TraceFunction("f", 128.0, 0.1, 1.0, tenant_id=-1)

    def test_trace_tenant_ids_sorted_and_has_tenants(self):
        trace = _two_tenant_trace()
        assert trace.tenant_ids() == (1, 2)
        assert trace.has_tenants
        plain = Trace(
            [TraceFunction("f", 128.0, 0.1, 1.0)],
            [Invocation(0.0, "f")],
        )
        assert plain.tenant_ids() == (0,)
        assert not plain.has_tenants

    def test_json_round_trip_preserves_tenants(self, tmp_path):
        trace = _two_tenant_trace()
        path = tmp_path / "trace.json"
        save_trace_json(trace, path)
        loaded = load_trace_json(path)
        assert {
            f.name: f.tenant_id for f in loaded.functions.values()
        } == {"alpha": 1, "beta": 2}

    def test_csv_round_trip_preserves_tenants(self, tmp_path):
        trace = _two_tenant_trace()
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert {
            f.name: f.tenant_id for f in loaded.functions.values()
        } == {"alpha": 1, "beta": 2}

    def test_tenantless_json_has_no_tenant_field(self, tmp_path):
        """Tenant-less saves must be byte-compatible with pre-tenancy
        files: no ``tenant_id`` keys may appear anywhere."""
        trace = Trace(
            [TraceFunction("f", 128.0, 0.1, 1.0)],
            [Invocation(0.0, "f")],
        )
        path = tmp_path / "plain.json"
        save_trace_json(trace, path)
        assert "tenant" not in path.read_text()

    def test_columnar_round_trip_preserves_tenants(self):
        trace = _two_tenant_trace()
        col = from_columns(trace)
        assert col.has_tenants
        assert col.tenant_ids() == (1, 2)
        back = Trace(col.functions.values(), col.invocations)
        assert {
            f.name: f.tenant_id for f in back.functions.values()
        } == {"alpha": 1, "beta": 2}

    def test_streaming_round_robin_tenants(self):
        stream = StreamingChurnTrace(
            num_functions=6, duration_s=60.0, num_tenants=3
        )
        tenants = sorted(
            {f.tenant_id for f in stream.functions_table.objects()}
        )
        assert tenants == [1, 2, 3]


# ---------------------------------------------------------------------------
# Pool tenant modes
# ---------------------------------------------------------------------------


def _container(name, memory_mb, tenant_id, created_at=0.0):
    func = TraceFunction(name, memory_mb, 0.1, 1.0, tenant_id=tenant_id)
    return Container(func, created_at)


class TestPoolModes:
    def test_shared_mode_rejects_limits(self):
        with pytest.raises(ValueError):
            ContainerPool(1024.0, tenant_mode="shared",
                          tenant_limits_mb={1: 512.0})

    def test_non_shared_requires_limits(self):
        with pytest.raises(ValueError):
            ContainerPool(1024.0, tenant_mode="quota")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ContainerPool(1024.0, tenant_mode="bursty")

    def test_partitioned_slices_must_fit_capacity(self):
        with pytest.raises(CapacityError):
            ContainerPool(
                1024.0,
                tenant_mode="partitioned",
                tenant_limits_mb={1: 768.0, 2: 512.0},
            )

    def test_partitioned_enforces_per_tenant_slice(self):
        pool = ContainerPool(
            1024.0,
            tenant_mode="partitioned",
            tenant_limits_mb={1: 256.0, 2: 768.0},
        )
        pool.add(_container("a", 256.0, tenant_id=1))
        # Tenant 1's slice is now full even though the pool is not.
        with pytest.raises(CapacityError):
            pool.add(_container("a2", 128.0, tenant_id=1))
        pool.add(_container("b", 512.0, tenant_id=2))
        assert pool.tenant_used_mb(1) == 256.0
        assert pool.tenant_free_mb(1) == 0.0

    def test_quota_exceeded_by(self):
        pool = ContainerPool(
            1024.0, tenant_mode="quota", tenant_limits_mb={1: 256.0}
        )
        assert not pool.quota_exceeded_by(1, 256.0)
        assert pool.quota_exceeded_by(1, 257.0)
        # Unlimited tenants never report as over quota.
        assert not pool.quota_exceeded_by(2, 1e9)
        pool.add(_container("a", 256.0, tenant_id=1))
        assert pool.quota_exceeded_by(1, 1.0)
        assert pool.over_quota_tenants() == frozenset()

    def test_tenant_accounting_tracks_add_and_evict(self):
        pool = ContainerPool(1024.0)
        cont = _container("a", 256.0, tenant_id=7)
        pool.add(cont)
        assert pool.tenant_used_mb(7) == 256.0
        assert pool.tenant_container_count(7) == 1
        pool.evict(cont)
        assert pool.tenant_used_mb(7) == 0.0
        assert pool.tenant_container_count(7) == 0


class TestPoolModeSimulations:
    def test_zero_quota_tenant_always_preferentially_evicted(self):
        """A tenant with quota 0 is over-quota the moment it holds any
        memory, so its idle containers go first under pressure."""
        functions = [
            TraceFunction("victim", 512.0, 0.1, 1.0, tenant_id=1),
            TraceFunction("zeroed", 512.0, 0.1, 1.0, tenant_id=2),
        ]
        invocations = [
            Invocation(0.0, "zeroed"),
            Invocation(10.0, "victim"),
            Invocation(20.0, "victim"),
        ]
        trace = Trace(functions, invocations)
        result = simulate(
            trace, "GD", 512.0,
            tenant_mode="quota", tenant_quotas={2: 0.0},
        )
        counters = result.metrics.tenant_counters()
        # The zero-quota tenant's container was displaced, letting the
        # victim tenant warm-hit its second arrival.
        assert counters[1]["warm_starts"] == 1

    def test_partitioned_oversized_function_dropped(self):
        """A function bigger than its tenant's slice can never run in
        partitioned mode — it must be dropped, not wedge the pool."""
        functions = [
            TraceFunction("big", 512.0, 0.1, 1.0, tenant_id=1),
            TraceFunction("small", 128.0, 0.1, 1.0, tenant_id=2),
        ]
        invocations = [Invocation(0.0, "big"), Invocation(1.0, "small")]
        trace = Trace(functions, invocations)
        result = simulate(
            trace, "GD", 1024.0,
            tenant_mode="partitioned",
            tenant_quotas={1: 256.0, 2: 768.0},
        )
        counters = result.metrics.tenant_counters()
        assert counters[1]["dropped"] == 1
        assert counters[2]["cold_starts"] == 1

    def test_partitioned_isolates_thrashing_neighbor(self):
        """An empty slice stays usable no matter how hard the other
        tenant thrashes its own partition."""
        functions = [
            TraceFunction(f"noisy-{i}", 256.0, 0.1, 1.0, tenant_id=1)
            for i in range(8)
        ] + [TraceFunction("quiet", 256.0, 0.1, 1.0, tenant_id=2)]
        invocations = [
            Invocation(float(i), f"noisy-{i % 8}") for i in range(64)
        ] + [Invocation(70.0, "quiet"), Invocation(71.0, "quiet")]
        trace = Trace(functions, invocations)
        result = simulate(
            trace, "GD", 1024.0,
            tenant_mode="partitioned",
            tenant_quotas={1: 768.0, 2: 256.0},
        )
        counters = result.metrics.tenant_counters()
        # The quiet tenant cold-starts once and then warm-hits inside
        # its untouched slice; the noisy tenant never dropped (its own
        # slice churns but admits).
        assert counters[2] == {
            "warm_starts": 1, "cold_starts": 1, "dropped": 0,
        }
        assert counters[1]["dropped"] == 0


# ---------------------------------------------------------------------------
# Weighted GDSF
# ---------------------------------------------------------------------------


class TestTenantWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GreedyDualPolicy(tenant_weights={1: -0.5})

    def test_weights_bias_eviction_order(self):
        """Under pressure, the low-weight tenant's container goes
        first even with identical access patterns."""
        functions = [
            TraceFunction("gold", 512.0, 0.1, 1.0, tenant_id=1),
            TraceFunction("bronze", 512.0, 0.1, 1.0, tenant_id=2),
            TraceFunction("probe", 512.0, 0.1, 1.0, tenant_id=3),
        ]
        invocations = [
            Invocation(0.0, "gold"),
            Invocation(1.0, "bronze"),
            Invocation(10.0, "probe"),   # forces one eviction
            Invocation(20.0, "gold"),
            Invocation(21.0, "bronze"),
        ]
        trace = Trace(functions, invocations)
        result = simulate(
            trace, "GD", 1024.0,
            tenant_weights={1: 10.0, 2: 0.1},
        )
        counters = result.metrics.tenant_counters()
        assert counters[1]["warm_starts"] == 1   # gold survived
        assert counters[2]["warm_starts"] == 0   # bronze was evicted

    def test_none_weights_identical_to_unweighted(self):
        trace = _two_tenant_trace()
        base = simulate(trace, GreedyDualPolicy(), 512.0)
        weightless = simulate(
            trace, GreedyDualPolicy(tenant_weights=None), 512.0
        )
        assert base.metrics.counters() == weightless.metrics.counters()
        assert (
            base.metrics.tenant_counters()
            == weightless.metrics.tenant_counters()
        )


# ---------------------------------------------------------------------------
# Fairness metrics and the trace/aggregate tenant contract
# ---------------------------------------------------------------------------


class TestFairnessMetrics:
    def test_jain_index_bounds(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.5]) == 1.0
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        # One tenant getting everything over n tenants → 1/n.
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_metrics_tenant_counters_shape(self):
        metrics = SimulationMetrics()
        metrics.record_warm("f", 0.1, tenant_id=1)
        metrics.record_cold("f", 0.1, 1.0, tenant_id=1)
        metrics.record_dropped("g", tenant_id=2)
        assert metrics.tenant_counters() == {
            1: {"warm_starts": 1, "cold_starts": 1, "dropped": 0},
            2: {"warm_starts": 0, "cold_starts": 0, "dropped": 1},
        }

    def test_tenantless_metrics_have_no_tenant_counters(self):
        metrics = SimulationMetrics()
        metrics.record_warm("f", 0.1)
        assert metrics.tenant_counters() == {}
        assert metrics.jain_fairness_index == 1.0

    def test_trace_report_agrees_with_metrics(self):
        trace = _two_tenant_trace()
        sink = RingBufferSink(capacity=100_000)
        result = simulate(
            trace, "GD", 512.0, tracer=Tracer(sink, strict=True)
        )
        report = report_from_events(sink)
        assert (
            report.tenant_counters() == result.metrics.tenant_counters()
        )
        assert report.jain_fairness_index == pytest.approx(
            result.metrics.jain_fairness_index
        )
        # The runtime sanitizer check accepts the matching snapshot...
        check_tenant_counter_equality(
            report, result.metrics.tenant_counters()
        )
        # ...and rejects a drifted one.
        drifted = {
            tid: dict(counts, warm_starts=counts["warm_starts"] + 1)
            for tid, counts in result.metrics.tenant_counters().items()
        }
        with pytest.raises(SanitizeError):
            check_tenant_counter_equality(report, drifted)

    def test_report_check_tenant_counters(self):
        trace = _two_tenant_trace()
        sink = RingBufferSink(capacity=100_000)
        result = simulate(
            trace, "GD", 512.0, tracer=Tracer(sink, strict=True)
        )
        report = report_from_events(sink)
        assert (
            report.check_tenant_counters(
                result.metrics.tenant_counters()
            )
            == []
        )
        mismatches = report.check_tenant_counters(
            {99: {"warm_starts": 1, "cold_starts": 0, "dropped": 0}}
        )
        assert any("tenant 99" in m for m in mismatches)


# ---------------------------------------------------------------------------
# The headline fairness claim and engine agreement
# ---------------------------------------------------------------------------


class TestNoisyNeighbor:
    def test_quota_strictly_improves_jain(self):
        """The acceptance claim: on the noisy-neighbor scenario the
        quota pool's Jain index strictly beats the shared pool's."""
        shared = simulate(
            noisy_neighbor_trace(duration_s=900.0), "GD", 4096.0
        )
        quota = simulate(
            noisy_neighbor_trace(duration_s=900.0), "GD", 4096.0,
            tenant_mode="quota", tenant_quotas={1: 1024.0},
        )
        assert (
            quota.metrics.jain_fairness_index
            > shared.metrics.jain_fairness_index
        )
        # The improvement is dramatic, not marginal.
        assert quota.metrics.jain_fairness_index > 0.9
        assert shared.metrics.jain_fairness_index < 0.1

    def test_object_and_columnar_engines_agree_on_tenants(self):
        kwargs = dict(tenant_mode="quota", tenant_quotas={1: 1024.0})
        obj = simulate(
            noisy_neighbor_trace(duration_s=900.0), "GD", 4096.0,
            engine="object", **kwargs,
        )
        col = simulate(
            noisy_neighbor_trace(duration_s=900.0), "GD", 4096.0,
            engine="columnar", **kwargs,
        )
        assert obj.metrics.counters() == col.metrics.counters()
        assert (
            obj.metrics.tenant_counters() == col.metrics.tenant_counters()
        )
        assert obj.metrics.jain_fairness_index == pytest.approx(
            col.metrics.jain_fairness_index
        )


# ---------------------------------------------------------------------------
# Shared-mode neutrality and fingerprint backward compatibility
# ---------------------------------------------------------------------------


class TestBackwardCompat:
    def test_shared_mode_ignores_tenant_identity(self):
        """Tagging functions with tenants must not change a shared-mode
        replay's aggregate outcome at all."""
        tagged = noisy_neighbor_trace(duration_s=900.0)
        stripped = Trace(
            [
                dataclasses.replace(f, tenant_id=0)
                for f in tagged.functions.values()
            ],
            tagged.invocations,
            name=tagged.name,
        )
        tagged_result = simulate(tagged, "GD", 2048.0)
        stripped_result = simulate(stripped, "GD", 2048.0)
        assert (
            tagged_result.metrics.counters()
            == stripped_result.metrics.counters()
        )

    def test_tenantless_fingerprint_matches_legacy_point(self):
        """A tenant-less SweepPoint must hash exactly as a pre-tenancy
        point with the same values: BASELINE.json stays valid."""
        values = dict(
            policy="GD", memory_gb=1.0, cold_start_pct=12.5,
            exec_time_increase_pct=3.0, drop_ratio=0.0, hit_ratio=0.875,
            global_hit_ratio=0.875, wall_time_s=1.0,
            invocations_per_s=1000.0,
            counters={"warm_starts": 7, "cold_starts": 1},
        )
        modern = SweepPoint(**values)
        legacy_payload = {
            "policy": "GD",
            "memory_gb": repr(1.0),
            "cold_start_pct": repr(12.5),
            "exec_time_increase_pct": repr(3.0),
            "drop_ratio": repr(0.0),
            "hit_ratio": repr(0.875),
            "global_hit_ratio": repr(0.875),
            "counters": {"cold_starts": 1, "warm_starts": 7},
        }
        import hashlib

        legacy = hashlib.sha256(
            json.dumps(
                legacy_payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        ).hexdigest()
        assert point_fingerprint(modern) == legacy

    def test_tenant_payload_changes_fingerprint(self):
        base = SweepPoint(
            policy="GD", memory_gb=1.0, cold_start_pct=0.0,
            exec_time_increase_pct=0.0, drop_ratio=0.0, hit_ratio=1.0,
            global_hit_ratio=1.0, wall_time_s=0.0, invocations_per_s=0.0,
            counters={"warm_starts": 1},
        )
        tenanted = dataclasses.replace(
            base,
            tenant_counters={
                "1": {"warm_starts": 1, "cold_starts": 0, "dropped": 0}
            },
            jain_fairness_index=1.0,
        )
        assert point_fingerprint(base) != point_fingerprint(tenanted)

    def test_run_cell_carries_tenant_counters(self):
        point = run_cell(
            _two_tenant_trace(), "GD", 512.0 / 1024.0,
            tenant_mode="quota", tenant_quotas={1: 256.0},
        )
        assert set(point.tenant_counters) == {"1", "2"}
        assert 0.0 < point.jain_fairness_index <= 1.0


# ---------------------------------------------------------------------------
# CLI flag parsing
# ---------------------------------------------------------------------------


class TestCliTenantFlags:
    @staticmethod
    def quotas(*specs):
        argv = ["simulate", "--trace", "t"] + (["--tenant-quota", *specs] if specs else [])
        return build_parser().parse_args(argv).tenant_quotas

    def test_parse_tenant_map(self):
        assert self.quotas() is None
        assert build_parser().parse_args(
            ["simulate", "--trace", "t", "--tenant-quota"]
        ).tenant_quotas is None
        assert self.quotas("1=1024", "2=512.5") == {1: 1024.0, 2: 512.5}

    @pytest.mark.parametrize(
        "spec", ["nope", "1:1024", "x=1024", "1=lots"]
    )
    def test_parse_tenant_map_rejects_bad_specs(self, spec):
        with pytest.raises(SystemExit, match="TENANT=MB"):
            self.quotas(spec)
