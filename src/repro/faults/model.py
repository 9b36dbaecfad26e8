"""Seeded, fully deterministic fault specification and injection model.

Two design rules make chaos experiments reproducible here where naive
``random.random()`` injection is not:

1. **Decisions are pure functions of coordinates, not draw order.**
   Whether invocation ``(function, time, attempt)`` suffers a spawn
   failure is a blake2b hash of the seed and those coordinates mapped
   to a uniform ``[0, 1)`` draw. Re-running a sweep cell in another
   worker process, retrying it after a crash, or reordering the grid
   cannot shift any decision — there is no shared RNG stream to
   perturb.
2. **A disabled spec is indistinguishable from no spec.** Every rate
   zero and no downtime schedule means :attr:`FaultSpec.enabled` is
   false; the simulators then store ``None`` and take the exact
   baseline code path, so zero-fault runs stay byte-identical to
   pre-fault builds (a CI-gated invariant).

Whole-server outages are the one place a generator is used — the
downtime spans for server *i* come from ``random.Random`` seeded with
``derive_seed(seed, "server", i)``, so each server's outage timeline is
an independent, replayable stream regardless of how many servers the
cluster has or in which order they are asked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

__all__ = [
    "FaultSpec",
    "FaultModel",
    "ServerDowntime",
    "CapacityStep",
    "FAULT_KINDS",
    "derive_seed",
    "load_fault_spec",
    "cell_fault_spec",
]

#: Injectable invocation-level fault kinds (see ``fault_injected``).
FAULT_KINDS: Tuple[str, ...] = ("spawn_failure", "crash", "timeout")

_SEED_BYTES = 8
_MASK_53 = (1 << 53) - 1


def _pack(part: Union[str, int, float]) -> bytes:
    """Stable byte encoding of one hash-key part.

    Each part is tagged with its type so ``("a", 1)`` and ``("a1",)``
    can never collide, and floats go through IEEE-754 packing so the
    encoding is platform- and repr-independent.
    """
    if isinstance(part, str):
        data = part.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "little") + data
    if isinstance(part, bool):  # bool before int: it is an int subclass
        return b"b" + bytes([part])
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, float):
        return b"f" + struct.pack("<d", part)
    raise TypeError(f"unhashable fault-key part: {part!r}")


def _digest(base: int, parts: Tuple[Union[str, int, float], ...]) -> bytes:
    h = hashlib.blake2b(
        digest_size=_SEED_BYTES,
        salt=(base & ((1 << 64) - 1)).to_bytes(8, "little"),
    )
    for part in parts:
        h.update(_pack(part))
    return h.digest()


def derive_seed(base: int, *parts: Union[str, int, float]) -> int:
    """A stable child seed from a base seed and identifying parts.

    >>> derive_seed(0, "cell", "GD", "1") != derive_seed(0, "cell", "GD", "2")
    True
    >>> derive_seed(7, "server", 3) == derive_seed(7, "server", 3)
    True
    """
    return int.from_bytes(_digest(base, parts), "little")


def _u01(base: int, *parts: Union[str, int, float]) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed on coordinates."""
    value = int.from_bytes(_digest(base, parts), "little")
    return (value & _MASK_53) / float(1 << 53)


@dataclass(frozen=True)
class ServerDowntime:
    """One explicitly scheduled outage of one server."""

    server: int
    down_s: float
    up_s: float

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError(f"server index must be >= 0, got {self.server}")
        if not 0.0 <= self.down_s < self.up_s:
            raise ValueError(
                f"need 0 <= down_s < up_s, got [{self.down_s}, {self.up_s}]"
            )


@dataclass(frozen=True)
class CapacityStep:
    """One explicit capacity change of one server.

    ``capacity_frac`` is the fraction of the server's *nominal*
    capacity available from ``time_s`` onward — ``1.0`` restores full
    capacity, ``0.5`` harvests half the memory away. Fractions are
    relative to the original provisioned size, never to the previous
    step, so steps commute with reordering of equal-time duplicates.
    """

    server: int
    time_s: float
    capacity_frac: float

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError(f"server index must be >= 0, got {self.server}")
        if self.time_s < 0.0:
            raise ValueError(f"time_s must be >= 0, got {self.time_s}")
        if not 0.0 < self.capacity_frac <= 1.0:
            raise ValueError(
                f"capacity_frac must be in (0, 1], got {self.capacity_frac}"
            )


@dataclass(frozen=True)
class FaultSpec:
    """Everything a chaos experiment needs, in one frozen value.

    Rates are per-attempt probabilities in ``[0, 1]``; ``crash_rate``
    and ``timeout_rate`` together must not exceed 1 (they partition the
    same draw). Server outages come from an explicit
    ``server_downtimes`` schedule, a rate-based
    ``server_mtbf_s``/``server_recovery_s`` pair, or both merged.

    Recovery knobs configure the :class:`~repro.faults.retry.RetryPolicy`
    paired with the model: capped exponential backoff with
    deterministic jitter, a bounded pending-retry queue (admission
    control — overflow is shed, never queued unboundedly), and a
    per-function lifetime retry budget.
    """

    seed: int = 0
    # -- invocation-level fault rates --------------------------------
    spawn_failure_rate: float = 0.0
    crash_rate: float = 0.0
    timeout_rate: float = 0.0
    # -- whole-server outages ----------------------------------------
    server_mtbf_s: float = 0.0  # 0 disables rate-based outages
    server_recovery_s: float = 300.0
    server_downtimes: Tuple[ServerDowntime, ...] = ()
    # -- harvested capacity (time-varying server memory) -------------
    capacity_steps: Tuple[CapacityStep, ...] = ()
    harvest_interval_s: float = 0.0  # 0 disables rate-based harvesting
    harvest_min_frac: float = 0.5
    harvest_max_frac: float = 1.0
    # -- spot evictions (whole-server loss with advance notice) ------
    spot_mtbf_s: float = 0.0  # 0 disables spot evictions
    spot_notice_s: float = 30.0
    # -- recovery / retry --------------------------------------------
    max_retries: int = 3
    base_delay_s: float = 1.0
    max_delay_s: float = 60.0
    jitter: float = 0.5
    max_pending_retries: int = 1024
    per_function_retry_budget: int = 100

    def __post_init__(self) -> None:
        for name in ("spawn_failure_rate", "crash_rate", "timeout_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.crash_rate + self.timeout_rate > 1.0 + 1e-12:
            raise ValueError(
                "crash_rate + timeout_rate must not exceed 1, got "
                f"{self.crash_rate} + {self.timeout_rate}"
            )
        if self.server_mtbf_s < 0.0:
            raise ValueError(
                f"server_mtbf_s must be >= 0, got {self.server_mtbf_s}"
            )
        if self.server_recovery_s <= 0.0:
            raise ValueError(
                f"server_recovery_s must be positive, "
                f"got {self.server_recovery_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s <= 0.0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                "need 0 < base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_pending_retries < 0:
            raise ValueError(
                f"max_pending_retries must be >= 0, "
                f"got {self.max_pending_retries}"
            )
        if self.per_function_retry_budget < 0:
            raise ValueError(
                f"per_function_retry_budget must be >= 0, "
                f"got {self.per_function_retry_budget}"
            )
        if self.harvest_interval_s < 0.0:
            raise ValueError(
                f"harvest_interval_s must be >= 0, "
                f"got {self.harvest_interval_s}"
            )
        if not (
            0.0 < self.harvest_min_frac
            <= self.harvest_max_frac
            <= 1.0
        ):
            raise ValueError(
                "need 0 < harvest_min_frac <= harvest_max_frac <= 1, got "
                f"{self.harvest_min_frac}/{self.harvest_max_frac}"
            )
        if self.spot_mtbf_s < 0.0:
            raise ValueError(
                f"spot_mtbf_s must be >= 0, got {self.spot_mtbf_s}"
            )
        if self.spot_notice_s < 0.0:
            raise ValueError(
                f"spot_notice_s must be >= 0, got {self.spot_notice_s}"
            )
        # Normalize downtime entries: accept ServerDowntime instances,
        # mappings, or (server, down_s, up_s) sequences, in any
        # container — literal construction is as lenient as from_dict.
        normalized: List[ServerDowntime] = []
        for entry in self.server_downtimes:
            if isinstance(entry, ServerDowntime):
                normalized.append(entry)
            elif isinstance(entry, Mapping):
                normalized.append(ServerDowntime(**entry))
            else:
                server, down_s, up_s = entry
                normalized.append(
                    ServerDowntime(int(server), float(down_s), float(up_s))
                )
        object.__setattr__(self, "server_downtimes", tuple(normalized))
        # Same leniency for capacity steps.
        steps: List[CapacityStep] = []
        for step in self.capacity_steps:
            if isinstance(step, CapacityStep):
                steps.append(step)
            elif isinstance(step, Mapping):
                steps.append(CapacityStep(**step))
            else:
                server, time_s, frac = step
                steps.append(
                    CapacityStep(int(server), float(time_s), float(frac))
                )
        object.__setattr__(self, "capacity_steps", tuple(steps))

    @property
    def enabled(self) -> bool:
        """Whether this spec can inject anything at all.

        A disabled spec must be treated exactly like no spec — the
        simulators store ``None`` for it, keeping the baseline hot
        path (and its results) untouched.
        """
        return bool(
            self.spawn_failure_rate > 0.0
            or self.crash_rate > 0.0
            or self.timeout_rate > 0.0
            or self.server_mtbf_s > 0.0
            or self.server_downtimes
            or self.capacity_steps
            or self.harvest_interval_s > 0.0
            or self.spot_mtbf_s > 0.0
        )

    # -- (de)serialization -------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["server_downtimes"] = [
            [d.server, d.down_s, d.up_s] for d in self.server_downtimes
        ]
        out["capacity_steps"] = [
            [s.server, s.time_s, s.capacity_frac]
            for s in self.capacity_steps
        ]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault-spec fields: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        # __post_init__ normalizes server_downtimes entries.
        return cls(**dict(data))


def load_fault_spec(path: Union[str, pathlib.Path]) -> FaultSpec:
    """Load a :class:`FaultSpec` from a JSON file (the CLI's
    ``--fault-spec`` format; see ``docs/robustness.md``)."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: fault spec must be a JSON object")
    try:
        return FaultSpec.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid fault spec: {exc}") from None


def cell_fault_spec(
    spec: FaultSpec, policy_name: str, memory_gb: float
) -> FaultSpec:
    """The per-cell spec a sweep derives from its base spec.

    The child seed is a pure function of the base seed and the cell
    coordinates, so each grid cell sees independent fault draws while
    any re-execution of the same cell — sequential, parallel, or a
    retry after a worker crash — replays the identical fault sequence.
    """
    return dataclasses.replace(
        spec,
        seed=derive_seed(spec.seed, "cell", policy_name, f"{memory_gb:g}"),
    )


class FaultModel:
    """Answers every injection question a simulator asks, statelessly.

    All methods are pure in the spec: two models built from equal specs
    return identical answers for identical arguments, in any order,
    from any process.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def spawn_fails(
        self, function_name: str, time_s: float, attempt: int
    ) -> bool:
        """Whether creating a container for this attempt fails."""
        rate = self.spec.spawn_failure_rate
        if rate <= 0.0:
            return False
        return _u01(self.spec.seed, "spawn", function_name, time_s, attempt) < rate

    def invocation_fault(
        self, function_name: str, time_s: float, attempt: int
    ) -> Union[str, None]:
        """``"crash"``, ``"timeout"``, or ``None`` for this attempt.

        One draw partitioned between the two kinds, so their combined
        probability is exactly ``crash_rate + timeout_rate``.
        """
        crash, timeout = self.spec.crash_rate, self.spec.timeout_rate
        if crash <= 0.0 and timeout <= 0.0:
            return None
        draw = _u01(self.spec.seed, "invoke", function_name, time_s, attempt)
        if draw < crash:
            return "crash"
        if draw < crash + timeout:
            return "timeout"
        return None

    def downtime_spans(
        self, server: int, horizon_s: float
    ) -> List[Tuple[float, float]]:
        """Merged, sorted ``(down_s, up_s)`` outage spans for one server.

        Explicit :attr:`FaultSpec.server_downtimes` entries for the
        server are combined with rate-based spans drawn from an
        exponential inter-failure process (mean ``server_mtbf_s``,
        fixed ``server_recovery_s`` repair time) seeded per server.
        Overlapping spans are coalesced.
        """
        spec = self.spec
        spans = [
            (d.down_s, d.up_s)
            for d in spec.server_downtimes
            if d.server == server and d.down_s < horizon_s
        ]
        if spec.server_mtbf_s > 0.0:
            rng = random.Random(derive_seed(spec.seed, "server", server))
            t = rng.expovariate(1.0 / spec.server_mtbf_s)
            while t < horizon_s:
                spans.append((t, t + spec.server_recovery_s))
                t += spec.server_recovery_s
                t += rng.expovariate(1.0 / spec.server_mtbf_s)
        spans.sort()
        merged: List[Tuple[float, float]] = []
        for down_s, up_s in spans:
            if merged and down_s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], up_s))
            else:
                merged.append((down_s, up_s))
        return merged

    def capacity_timeline(
        self, server: int, horizon_s: float
    ) -> List[Tuple[float, float]]:
        """Time-ordered ``(time_s, capacity_frac)`` steps for one server.

        Explicit :attr:`FaultSpec.capacity_steps` entries are combined
        with a rate-based harvest stream (exponential step gaps with
        mean ``harvest_interval_s``, fraction uniform in
        ``[harvest_min_frac, harvest_max_frac]``) seeded per server via
        ``derive_seed(seed, "harvest", server)``. Each fraction is
        absolute (relative to nominal capacity), so applying the steps
        in list order is the authoritative semantics — at equal times
        the later-listed step wins.
        """
        spec = self.spec
        steps = [
            (s.time_s, s.capacity_frac)
            for s in spec.capacity_steps
            if s.server == server and s.time_s < horizon_s
        ]
        if spec.harvest_interval_s > 0.0:
            rng = random.Random(derive_seed(spec.seed, "harvest", server))
            t = rng.expovariate(1.0 / spec.harvest_interval_s)
            while t < horizon_s:
                steps.append(
                    (t, rng.uniform(spec.harvest_min_frac,
                                    spec.harvest_max_frac))
                )
                t += rng.expovariate(1.0 / spec.harvest_interval_s)
        steps.sort(key=lambda s: s[0])  # stable: ties keep list order
        return steps

    def spot_evictions(
        self, server: int, horizon_s: float
    ) -> List[Tuple[float, float]]:
        """Sorted ``(notice_s, evict_s)`` spot-eviction pairs.

        Evictions are drawn from an exponential inter-eviction process
        (mean ``spot_mtbf_s``) seeded per server via
        ``derive_seed(seed, "spot", server)``; the notice lands
        ``spot_notice_s`` before the eviction (clamped to 0). The next
        draw starts after ``server_recovery_s`` — the time a
        replacement takes to come up — so spans never overlap.
        """
        spec = self.spec
        if spec.spot_mtbf_s <= 0.0:
            return []
        rng = random.Random(derive_seed(spec.seed, "spot", server))
        pairs: List[Tuple[float, float]] = []
        t = rng.expovariate(1.0 / spec.spot_mtbf_s)
        while t < horizon_s:
            pairs.append((max(0.0, t - spec.spot_notice_s), t))
            t += spec.server_recovery_s
            t += rng.expovariate(1.0 / spec.spot_mtbf_s)
        return pairs

    #: Tie order of event kinds at equal times: "up" before "down" so a
    #: zero-gap repair cannot leave a server stuck down; outage
    #: transitions before capacity events; a restore precedes new
    #: shrinks/notices, and the eviction itself lands last so a
    #: zero-notice spec still sees its notice event.
    _EVENT_KIND_ORDER = {"up": 0, "down": 1, "restore": 2,
                         "capacity": 3, "notice": 4, "evict": 5}

    def server_events(
        self, servers: Iterable[int], horizon_s: float
    ) -> List[Tuple[float, int, str, float]]:
        """Every scheduled event of ``servers`` up to ``horizon_s`` as
        one time-ordered list of ``(time_s, server, kind, value)`` —
        the form both the single-server simulator (one index) and the
        cluster layers (all of theirs) consume from one deque:

        ``("down", 0.0)`` / ``("up", 0.0)``
            A whole-server outage starts / ends
            (:meth:`downtime_spans`).
        ``("capacity", frac)``
            The server's capacity becomes ``frac`` of nominal.
        ``("notice", evict_at_s)``
            A spot eviction was announced for ``evict_at_s``.
        ``("evict", 0.0)``
            The server is reclaimed (whole-server loss).
        ``("restore", 1.0)``
            A replacement server is up at full (cold) capacity,
            ``server_recovery_s`` after the eviction.

        Equal times are ordered by kind (up, down, restore, capacity,
        notice, evict), then by server index; equal-time capacity
        steps of one server keep their :meth:`capacity_timeline` order.
        """
        events: List[Tuple[float, int, str, float]] = []
        for server in servers:
            for down_s, up_s in self.downtime_spans(server, horizon_s):
                events.append((down_s, server, "down", 0.0))
                events.append((up_s, server, "up", 0.0))
            for time_s, frac in self.capacity_timeline(server, horizon_s):
                events.append((time_s, server, "capacity", frac))
            for notice_s, evict_s in self.spot_evictions(server, horizon_s):
                events.append((notice_s, server, "notice", evict_s))
                events.append((evict_s, server, "evict", 0.0))
                events.append(
                    (evict_s + self.spec.server_recovery_s, server,
                     "restore", 1.0)
                )
        order = self._EVENT_KIND_ORDER
        events.sort(key=lambda e: (e[0], order[e[2]], e[1]))
        return events

    def __repr__(self) -> str:
        return f"FaultModel(seed={self.spec.seed}, enabled={self.spec.enabled})"
