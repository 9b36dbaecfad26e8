"""The fault-injection/recovery layer (`repro.faults`).

The contract under test, end to end:

* a fault spec is a validated, serializable frozen value; a disabled
  one is indistinguishable from no spec at all;
* every fault decision is a pure function of the seed and the
  decision's coordinates — same spec, same answers, any order, any
  process;
* the simulator's injection, retry, and shed paths feed the metrics
  and event-stream counters consistently;
* whole-server failure and recovery work standalone (cluster-driven)
  and from the spec's outage schedule.
"""

import dataclasses
import hashlib
import itertools
import json
import random
import struct

import pytest

from repro.core.policies import create_policy
from repro.faults import (
    FaultModel,
    FaultSpec,
    RetryPolicy,
    ServerDowntime,
    cell_fault_spec,
    derive_seed,
    load_fault_spec,
)
from repro.faults.model import _INVOKE, _SPAWN, UniformDraws, _pack, _pack_key
from repro.faults.retry import _JITTER
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.synth import skewed_frequency_trace
from tests.conftest import make_trace

#: A spec hot enough to exercise every injection/recovery path on the
#: short synthetic traces used below.
CHAOS = FaultSpec(
    seed=11,
    spawn_failure_rate=0.05,
    crash_rate=0.03,
    timeout_rate=0.02,
    server_downtimes=((0, 200.0, 260.0),),
    max_retries=2,
    per_function_retry_budget=10,
)


class TestFaultSpec:
    def test_defaults_are_disabled(self):
        assert not FaultSpec().enabled
        assert not FaultSpec(seed=123).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spawn_failure_rate": 0.01},
            {"crash_rate": 0.5},
            {"timeout_rate": 1.0},
            {"server_mtbf_s": 3600.0},
            {"server_downtimes": ((0, 1.0, 2.0),)},
        ],
    )
    def test_any_fault_source_enables(self, kwargs):
        assert FaultSpec(**kwargs).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spawn_failure_rate": -0.1},
            {"crash_rate": 1.5},
            {"crash_rate": 0.6, "timeout_rate": 0.6},
            {"server_mtbf_s": -1.0},
            {"server_recovery_s": 0.0},
            {"max_retries": -1},
            {"base_delay_s": 0.0},
            {"base_delay_s": 10.0, "max_delay_s": 5.0},
            {"jitter": 1.5},
            {"max_pending_retries": -1},
            {"per_function_retry_budget": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_downtime_validation(self):
        with pytest.raises(ValueError):
            ServerDowntime(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            ServerDowntime(0, 5.0, 5.0)  # empty span

    def test_downtime_entries_normalized(self):
        # Tuples, dicts, and ServerDowntime instances all coerce.
        spec = FaultSpec(
            server_downtimes=(
                (0, 1.0, 2.0),
                {"server": 1, "down_s": 3.0, "up_s": 4.0},
                ServerDowntime(2, 5.0, 6.0),
            )
        )
        assert all(isinstance(d, ServerDowntime) for d in spec.server_downtimes)
        assert spec.server_downtimes[1].server == 1

    def test_round_trip(self):
        spec = CHAOS
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-spec fields"):
            FaultSpec.from_dict({"crash_rate": 0.1, "nope": 1})

    def test_load_fault_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CHAOS.to_dict()))
        assert load_fault_spec(path) == CHAOS

    def test_load_fault_spec_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_fault_spec(path)

    def test_example_spec_loads_and_is_enabled(self):
        spec = load_fault_spec("examples/fault_spec.json")
        assert spec.enabled
        assert spec.server_downtimes  # the demo outage

    def test_cell_fault_spec_varies_only_the_seed(self):
        a = cell_fault_spec(CHAOS, "GD", 1.0)
        b = cell_fault_spec(CHAOS, "GD", 2.0)
        c = cell_fault_spec(CHAOS, "GD", 1.0)
        assert a == c
        assert a.seed != b.seed
        assert dataclasses.replace(a, seed=0) == dataclasses.replace(
            b, seed=0
        )

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(5, "x", 1) == derive_seed(5, "x", 1)
        assert derive_seed(5, "x", 1) != derive_seed(5, "x", 2)
        assert derive_seed(5, "x", 1) != derive_seed(6, "x", 1)
        # Type-tagged packing: ("a", 1) never collides with ("a1",).
        assert derive_seed(0, "a", "1") != derive_seed(0, "a1")


def frozen_u01(base, *parts):
    """The draw as first shipped: a salted blake2b built per call over
    each part's type-tagged packing. Every seeded decision of every
    fault spec ever recorded rests on these bytes."""

    def pack(part):
        if isinstance(part, str):
            data = part.encode("utf-8")
            return b"s" + len(data).to_bytes(4, "little") + data
        if isinstance(part, bool):
            return b"b" + bytes([part])
        if isinstance(part, int):
            return b"i" + part.to_bytes(16, "little", signed=True)
        if isinstance(part, float):
            return b"f" + struct.pack("<d", part)
        raise TypeError(part)

    h = hashlib.blake2b(digest_size=8, salt=(base & ((1 << 64) - 1)).to_bytes(8, "little"))
    for part in parts:
        h.update(pack(part))
    return (int.from_bytes(h.digest(), "little") & ((1 << 53) - 1)) / float(1 << 53)


class Name(str):
    pass


class TestUniformDraws:
    """The draw behind every injection and jitter decision keeps its
    bytes: one hasher per seed, copied per draw, packed by type."""

    EDGE_PARTS = (
        "", "jitter", "fn-ü", True, False, 0, -1, -(1 << 70), (1 << 64) + 3, (1 << 126),
        0.0, -0.0, 1234.5, float("inf"), float("-inf"), 5e-324,
    )

    def test_equal_to_the_frozen_draw(self):
        rng = random.Random(2026)
        seeds = (0, 1, 2026, (1 << 64) - 1, 1 << 64, (1 << 64) + 7, (1 << 90) + 5)
        for seed in seeds:
            draws = UniformDraws(seed)
            for part in self.EDGE_PARTS:
                assert draws.draw(_pack("k") + _pack(part)) == frozen_u01(seed, "k", part), (
                    seed, part
                )
            for __ in range(500):
                parts = tuple(rng.choice(self.EDGE_PARTS) for __ in range(rng.randint(0, 5)))
                key = b"".join(_pack(part) for part in parts)
                assert draws.draw(key) == frozen_u01(seed, *parts), (seed, parts)
        with pytest.raises(TypeError):
            _pack(None)

    def test_packed_keys_equal_the_frozen_draw(self):
        """The owners' keys, packed whole (``_pack_key``) and hashed in one
        update (``draw``), are the bytes ``frozen_u01`` hashes part by
        part: an ``int`` time stays ``i``, a ``bool`` ``b``, a ``str``
        subclass ``s``."""
        names = ("f", "fn-ü", "", Name("f"))
        numbers = (0, 3, True, False, -(1 << 70), 12.5, -0.0, 7, float("inf"))
        for seed in (0, 1 << 65):
            draws = UniformDraws(seed)
            for kind, head in (("spawn", _SPAWN), ("invoke", _INVOKE), ("jitter", _JITTER)):
                for name, first, second in itertools.product(names, numbers, numbers):
                    assert draws.draw(_pack_key(head, name, first, second)) == frozen_u01(
                        seed, kind, name, first, second
                    ), (seed, kind, name, first, second)

    def test_owners_draw_from_their_own_seed(self):
        """Each owner's draw is the frozen one of its key, whatever the
        runtime types of the parts: a live ``now_s`` may be an ``int``."""
        spec = FaultSpec(
            seed=1 << 65, spawn_failure_rate=0.5, crash_rate=0.3, timeout_rate=0.3, jitter=1.0
        )
        model = FaultModel(spec)
        for name, time_s in itertools.product(("f", Name("f")), (12.5, 12)):
            for attempt in (*range(40), True):
                draw = frozen_u01(spec.seed, "spawn", name, time_s, attempt)
                assert model.spawn_fails(name, time_s, attempt) == (draw < 0.5)
                draw = frozen_u01(spec.seed, "invoke", name, time_s, attempt)
                assert model.invocation_fault(name, time_s, attempt) == (
                    "crash" if draw < spec.crash_rate
                    else "timeout" if draw < spec.crash_rate + spec.timeout_rate else None
                )
            retry = RetryPolicy.from_spec(spec)
            u = frozen_u01(spec.seed, "jitter", name, 1, time_s)
            assert retry.next_delay(name, 1, time_s) == min(
                spec.max_delay_s, spec.base_delay_s * (1.0 + spec.jitter * (u - 0.5))
            )


class TestFaultModel:
    def test_decisions_deterministic_across_models(self):
        a, b = FaultModel(CHAOS), FaultModel(CHAOS)
        for t in (0.0, 17.3, 400.0):
            for attempt in (0, 1, 2):
                assert a.spawn_fails("f", t, attempt) == b.spawn_fails(
                    "f", t, attempt
                )
                assert a.invocation_fault("f", t, attempt) == (
                    b.invocation_fault("f", t, attempt)
                )

    def test_decisions_vary_with_seed(self):
        a = FaultModel(dataclasses.replace(CHAOS, spawn_failure_rate=0.5))
        b = FaultModel(
            dataclasses.replace(CHAOS, spawn_failure_rate=0.5, seed=99)
        )
        answers_a = [a.spawn_fails("f", float(t), 0) for t in range(200)]
        answers_b = [b.spawn_fails("f", float(t), 0) for t in range(200)]
        assert answers_a != answers_b

    def test_rates_zero_never_fire(self):
        model = FaultModel(FaultSpec(server_mtbf_s=100.0))  # enabled, rates 0
        for t in range(100):
            assert not model.spawn_fails("f", float(t), 0)
            assert model.invocation_fault("f", float(t), 0) is None

    def test_rate_one_always_fires(self):
        model = FaultModel(FaultSpec(spawn_failure_rate=1.0))
        assert all(
            model.spawn_fails("f", float(t), 0) for t in range(50)
        )

    def test_empirical_rate_tracks_spec(self):
        model = FaultModel(FaultSpec(spawn_failure_rate=0.2))
        hits = sum(
            model.spawn_fails(f"fn{i}", float(t), 0)
            for i in range(20)
            for t in range(100)
        )
        assert 0.15 < hits / 2000 < 0.25

    def test_crash_timeout_partition_one_draw(self):
        model = FaultModel(FaultSpec(crash_rate=0.5, timeout_rate=0.5))
        kinds = {
            model.invocation_fault("f", float(t), 0) for t in range(100)
        }
        assert kinds == {"crash", "timeout"}  # never None at rate 1

    def test_downtime_spans_merge_overlaps(self):
        spec = FaultSpec(
            server_downtimes=((0, 10.0, 30.0), (0, 20.0, 40.0), (0, 50.0, 60.0))
        )
        assert FaultModel(spec).downtime_spans(0, 100.0) == [
            (10.0, 40.0),
            (50.0, 60.0),
        ]

    def test_downtime_spans_per_server(self):
        spec = FaultSpec(server_downtimes=((1, 10.0, 20.0),))
        model = FaultModel(spec)
        assert model.downtime_spans(0, 100.0) == []
        assert model.downtime_spans(1, 100.0) == [(10.0, 20.0)]

    def test_rate_based_spans_deterministic_and_bounded(self):
        spec = FaultSpec(server_mtbf_s=500.0, server_recovery_s=50.0)
        a = FaultModel(spec).downtime_spans(3, 10_000.0)
        b = FaultModel(spec).downtime_spans(3, 10_000.0)
        assert a == b
        assert a  # an outage is overwhelmingly likely over 20 MTBFs
        assert all(down < up for down, up in a)
        # Other servers get independent streams.
        assert FaultModel(spec).downtime_spans(4, 10_000.0) != a

    def test_server_schedule_ordering(self):
        spec = FaultSpec(
            server_downtimes=((1, 10.0, 20.0), (0, 10.0, 30.0))
        )
        schedule = FaultModel(spec).server_events(range(2), 100.0)
        times = [t for t, *__ in schedule]
        assert times == sorted(times)
        # Server index breaks equal-time, equal-kind ties.
        assert schedule[0] == (10.0, 0, "down", 0.0)
        assert schedule[1] == (10.0, 1, "down", 0.0)

    def test_server_events_tie_order(self):
        """The one merged schedule all three consumers pop from: at
        equal times up < down < restore < capacity < notice < evict."""
        base = FaultSpec(
            seed=5, spot_mtbf_s=800.0, spot_notice_s=0.0,
            server_recovery_s=120.0,
        )
        __, evict_s = FaultModel(base).spot_evictions(0, 5000.0)[0]
        restore_s = evict_s + 120.0
        spec = dataclasses.replace(
            base,
            server_downtimes=(
                (1, evict_s - 50.0, evict_s),
                (0, evict_s, evict_s + 1.0),
            ),
            capacity_steps=((0, evict_s, 0.7), (0, restore_s, 0.8)),
        )
        events = FaultModel(spec).server_events(range(2), 5000.0)
        assert [t for t, *__ in events] == sorted(t for t, *__ in events)
        assert [e[1:] for e in events if e[0] == evict_s] == [
            (1, "up", 0.0),
            (0, "down", 0.0),
            (0, "capacity", 0.7),
            (0, "notice", evict_s),
            (0, "evict", 0.0),
        ]
        assert [e[1:] for e in events if e[0] == restore_s] == [
            (0, "restore", 1.0),
            (0, "capacity", 0.8),
        ]


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(
            max_retries=10, base_delay_s=1.0, max_delay_s=8.0, jitter=0.0
        )
        delays = [policy.next_delay("f", n, 0.0) for n in range(1, 7)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(jitter=0.5, base_delay_s=4.0, max_delay_s=4.0)
        delay = policy.next_delay("f", 1, 100.0)
        # The cap bounds the *jittered* delay: with base == max the
        # stretch may pull below, never above.
        assert 4.0 * 0.75 <= delay <= 4.0
        again = RetryPolicy(jitter=0.5, base_delay_s=4.0, max_delay_s=4.0)
        assert again.next_delay("f", 1, 100.0) == delay
        # Different coordinates draw different jitter.
        assert again.next_delay("f", 2, 100.0) != delay or True

    def test_cap_bounds_jittered_delay_property(self):
        """The documented invariant: next_delay never exceeds
        max_delay_s, for any jitter setting, retry number, or retry
        identity — including when the exponential term saturates the
        cap and upward jitter used to overshoot it."""
        for jitter in (0.0, 0.1, 0.5, 1.0):
            for max_delay_s in (1.0, 4.0, 60.0):
                policy = RetryPolicy(
                    max_retries=12,
                    base_delay_s=1.0,
                    max_delay_s=max_delay_s,
                    jitter=jitter,
                    per_function_budget=10_000,
                )
                for name in ("f", "g", "h"):
                    for n in range(1, 13):
                        for failed_at_s in (0.0, 17.3, 86_400.0):
                            delay = policy.next_delay(name, n, failed_at_s)
                            assert delay is not None
                            assert 0.0 < delay <= max_delay_s, (
                                jitter, max_delay_s, name, n, failed_at_s,
                            )

    def test_max_retries_exhausted(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.next_delay("f", 2, 0.0) is not None
        assert policy.next_delay("f", 3, 0.0) is None

    def test_per_function_budget(self):
        policy = RetryPolicy(max_retries=1, per_function_budget=3)
        for __ in range(3):
            assert policy.next_delay("f", 1, 0.0) is not None
        assert policy.next_delay("f", 1, 0.0) is None  # budget gone
        assert policy.budget_remaining("f") == 0
        assert policy.next_delay("other", 1, 0.0) is not None

    def test_retry_number_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().next_delay("f", 0, 0.0)

    def test_from_spec(self):
        policy = RetryPolicy.from_spec(CHAOS)
        assert policy.max_retries == CHAOS.max_retries
        assert policy.per_function_budget == CHAOS.per_function_retry_budget
        assert policy.seed == CHAOS.seed


class TestZeroFaultBaseline:
    """A disabled spec must be *exactly* no spec."""

    @pytest.mark.parametrize("policy", ["GD", "TTL", "HIST"])
    def test_simulator_results_identical(self, policy):
        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        base = simulate(trace, policy, 512.0)
        nulled = simulate(trace, policy, 512.0, fault_spec=FaultSpec(seed=9))
        assert base.metrics.summary() == nulled.metrics.summary()
        assert base.metrics.counters() == nulled.metrics.counters()

    def test_disabled_spec_stores_none(self):
        sim = KeepAliveSimulator(
            make_trace("AB", gap_s=1.0), create_policy("GD"), 1024.0,
            fault_spec=FaultSpec(),
        )
        assert sim._faults is None


class TestInjectionAndRecovery:
    def run_chaos(self, spec=CHAOS, policy="GD", memory_mb=512.0):
        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        return simulate(trace, policy, memory_mb, fault_spec=spec)

    def test_counters_populated(self):
        metrics = self.run_chaos().metrics
        assert metrics.faults_injected > 0
        assert metrics.retries > 0
        assert metrics.sheds > 0
        assert metrics.server_downs == 1
        assert metrics.downtime_s == pytest.approx(60.0)
        assert set(metrics.faults_by_kind) <= {
            "spawn_failure", "crash", "timeout"
        }
        assert sum(metrics.faults_by_kind.values()) == metrics.faults_injected
        assert sum(metrics.sheds_by_reason.values()) == metrics.sheds
        assert 0.0 < metrics.shed_ratio < 1.0

    def test_outage_on_a_trace_not_starting_at_zero(self):
        """Schedules run on absolute time, so their horizon is the
        last arrival — not the first-to-last span, which left the tail
        of a shifted trace silently fault-free."""
        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        for offset_s in (0.0, 1000.0):
            spec = FaultSpec(
                server_downtimes=(
                    ServerDowntime(0, 300.0 + offset_s, 400.0 + offset_s),
                )
            )
            result = simulate(
                trace.shifted(offset_s), "GD", 512.0, fault_spec=spec
            )
            assert result.metrics.server_downs == 1, offset_s

    def test_deterministic_across_runs(self):
        a = self.run_chaos().metrics
        b = self.run_chaos().metrics
        assert a.summary() == b.summary()
        assert a.counters() == b.counters()
        assert a.faults_by_kind == b.faults_by_kind
        assert a.sheds_by_reason == b.sheds_by_reason

    def test_timeout_keeps_container_crash_kills_it(self):
        # Pure-timeout chaos evicts nothing; pure-crash chaos must
        # tear containers down with reason "failure" (visible as
        # faults but not as evictions/expirations).
        timeout_only = self.run_chaos(
            FaultSpec(seed=3, timeout_rate=0.2), memory_mb=8192.0
        ).metrics
        assert timeout_only.faults_injected > 0
        assert timeout_only.evictions == 0
        assert timeout_only.expirations == 0

        crash_only = self.run_chaos(
            FaultSpec(seed=3, crash_rate=0.2), memory_mb=8192.0
        ).metrics
        assert crash_only.faults_by_kind.get("crash", 0) > 0
        # Crashed containers die as "failure" evictions, which count
        # toward neither cache-policy counter.
        assert crash_only.evictions == 0
        assert crash_only.expirations == 0

    def test_retry_can_recover(self):
        # Low fault rate + generous retries: most faulted invocations
        # eventually serve, so served + sheds + dropped covers every
        # arrival and sheds stay well below faults.
        result = self.run_chaos(
            FaultSpec(seed=5, crash_rate=0.05, max_retries=5,
                      per_function_retry_budget=10_000),
            memory_mb=8192.0,
        )
        metrics = result.metrics
        assert metrics.retries > 0
        assert metrics.sheds < metrics.faults_injected

    def test_zero_retries_shed_immediately(self):
        metrics = self.run_chaos(
            FaultSpec(seed=5, crash_rate=0.1, max_retries=0),
            memory_mb=8192.0,
        ).metrics
        assert metrics.retries == 0
        assert metrics.sheds == metrics.faults_injected
        assert metrics.sheds_by_reason == {"retry_budget": metrics.sheds}

    def test_fail_recover_server_without_spec(self):
        # The cluster layers drive outages on spec-less members.
        trace = make_trace("ABAB", gap_s=10.0)
        sim = KeepAliveSimulator(trace, create_policy("GD"), 8192.0)
        functions = trace.functions
        sim.process_invocation(functions["A"], 0.0)
        assert not sim.is_down
        sim.fail_server(5.0)
        assert sim.is_down
        sim.fail_server(6.0)  # idempotent
        assert sim.metrics.server_downs == 1
        assert sim.process_invocation(functions["A"], 7.0) == "shed"
        assert sim.metrics.sheds_by_reason == {"unavailable": 1}
        sim.recover_server(9.0)
        assert not sim.is_down
        assert sim.metrics.downtime_s == pytest.approx(4.0)
        # Warm state was lost: the next invocation cold-starts.
        assert sim.process_invocation(functions["A"], 10.0) == "cold"

    def test_outage_evicts_warm_but_not_pinned(self):
        trace = make_trace("AB", gap_s=1.0)
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 8192.0,
            reserved_concurrency={"B": 1},
        )
        functions = trace.functions
        sim.process_invocation(functions["A"], 0.0)
        sim.fail_server(100.0)  # A's container is idle by now
        assert sim.pool.idle_containers() == []
        # The pinned B container survived the outage.
        assert any(c.pinned for c in sim.pool.all_containers())

    def test_warmup_gates_fault_counters(self):
        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        full = simulate(trace, "GD", 512.0, fault_spec=CHAOS).metrics
        gated = simulate(
            trace, "GD", 512.0, fault_spec=CHAOS, warmup_s=300.0
        ).metrics
        assert gated.faults_injected < full.faults_injected
        assert gated.sheds < full.sheds


class TestFaultedSweeps:
    def test_serial_parallel_identical(self):
        from repro.sim.sweep import point_fingerprint, run_sweep

        trace = make_trace("ABCDABCDBCAD" * 20, gap_s=2.0)
        spec = dataclasses.replace(CHAOS, server_downtimes=())
        sequential, parallel = (
            run_sweep(
                trace, [0.5, 1.0], policies=("GD", "TTL", "LRU", "HIST"),
                max_workers=workers, fault_spec=spec,
            )
            for workers in (1, 2)
        )
        assert sequential.failed_cells == parallel.failed_cells == []
        assert parallel.points == sequential.points
        assert [p.counters for p in parallel.points] == [
            p.counters for p in sequential.points
        ]
        assert [point_fingerprint(p) for p in parallel.points] == [
            point_fingerprint(p) for p in sequential.points
        ]
        totals = sequential.total_counters()
        assert totals["faults_injected"] > 0

    def test_cells_see_independent_faults(self):
        from repro.sim.sweep import run_sweep

        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        spec = dataclasses.replace(CHAOS, server_downtimes=())
        sweep = run_sweep(
            trace, [1.0, 2.0], policies=("GD",), fault_spec=spec
        )
        a, b = sweep.points
        # Same rates, different derived seeds: the realized fault
        # counts should differ between cells.
        assert a.counters["faults_injected"] != b.counters["faults_injected"]
