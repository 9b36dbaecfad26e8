"""The container pool: capacity accounting and eviction mechanics.

The pool is the keep-alive cache. It tracks every live container on a
server, enforces the memory capacity, and provides the queries that
keep-alive policies need for victim selection. Which containers to
terminate is the *policy's* decision (Section 4); the pool only
executes it and maintains the invariants:

* total memory of live containers never exceeds capacity,
* a running container is never evicted,
* a dead container is never handed out again.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.checks.sanitize import SanitizeError, sanitize_enabled
from repro.core.container import Container, ContainerState
from repro.traces.model import TraceFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.tracer import Tracer

__all__ = ["ContainerPool", "CapacityError", "TENANT_MODES"]

#: Valid pool tenant modes (docs/multi-tenancy.md): ``shared`` is the
#: single-owner behavior (tenant identity tracked but never acted on),
#: ``partitioned`` gives every tenant a hard capacity slice, ``quota``
#: gives soft limits under which an over-quota tenant becomes
#: preferentially evictable.
TENANT_MODES = ("shared", "partitioned", "quota")

#: Heap key a container is enrolled with before any policy has scored
#: it. Compares below every real ``(priority, last_used, id)`` key, so
#: the first pop revalidates and rescores the entry.
_UNSCORED_KEY = (float("-inf"), float("-inf"), -1)


class CapacityError(Exception):
    """Raised when an operation would exceed the pool's memory capacity."""


class ContainerPool:
    """All live containers on one server, bounded by a memory capacity."""

    def __init__(
        self,
        capacity_mb: float,
        tracer: Optional["Tracer"] = None,
        tenant_mode: str = "shared",
        tenant_limits_mb: Optional[Dict[int, float]] = None,
    ) -> None:
        if capacity_mb <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_mb}")
        if tenant_mode not in TENANT_MODES:
            raise ValueError(
                f"tenant_mode must be one of {TENANT_MODES}, got "
                f"{tenant_mode!r}"
            )
        limits: Dict[int, float] = {}
        for tid, limit in sorted((tenant_limits_mb or {}).items()):
            if tid < 0:
                raise ValueError(f"tenant id must be >= 0, got {tid}")
            # Finiteness matters as much as sign: a NaN limit makes
            # every quota comparison false and an inf slice defeats the
            # partition-sum capacity check below.
            if not math.isfinite(limit) or limit < 0:
                raise ValueError(
                    f"tenant {tid}: limit must be finite and >= 0, "
                    f"got {limit}"
                )
            limits[int(tid)] = float(limit)
        if tenant_mode == "shared" and limits:
            raise ValueError("tenant limits are meaningless in shared mode")
        if tenant_mode != "shared" and not limits:
            raise ValueError(
                f"tenant_mode={tenant_mode!r} requires per-tenant limits"
            )
        if tenant_mode == "partitioned":
            total = sum(limits.values())
            if total > capacity_mb * (1.0 + 1e-9):
                raise CapacityError(
                    f"partition slices sum to {total:.1f} MB but capacity "
                    f"is {capacity_mb:.1f} MB"
                )
        self._tenant_mode = tenant_mode
        self._tenant_limits_mb = limits
        # The limits as configured, before any harvest rescaling.
        # ``deflate_to`` shrinks partitioned slices proportionally and
        # restores them from this baseline when capacity returns.
        self._base_tenant_limits_mb = dict(limits)
        # Pending graceful-shrink target (docs/robustness.md): set when
        # ``deflate_to`` could not reach its target because busy
        # containers hold memory; ``resume_deflation`` retries as they
        # finish. ``None`` means no deflation is in flight.
        self._deflation_target_mb: Optional[float] = None
        # Per-tenant incremental accounting (memory + population),
        # maintained in every mode — shared pools answer tenant-usage
        # queries too — at the cost of two dict updates per add/evict.
        # Keys are dropped when a tenant's population returns to zero,
        # so the dicts never outgrow the live tenant set.
        self._tenant_used_mb: Dict[int, float] = {}
        self._tenant_count: Dict[int, int] = {}
        # Normalized to ``None`` when tracing is disabled so admission
        # pays exactly one ``is None`` test (see repro.obs.tracer).
        self._tracer = (
            tracer
            if tracer is not None and getattr(tracer, "enabled", True)
            else None
        )
        self._capacity_mb = float(capacity_mb)
        # Capacity-relative float slack: repeated add/evict cycles can
        # leave ``_used_mb`` a few ULPs away from the exact sum, and an
        # ULP of a large capacity is far bigger than any absolute 1e-9.
        self._slack_mb = 1e-9 * self._capacity_mb
        self._used_mb = 0.0
        self._containers: Dict[int, Container] = {}
        # Per-function container ids in ascending (creation) order.
        # Ids come from a global monotone counter, so admission appends
        # and every lookup walks an already-sorted list instead of
        # paying a per-call ``sorted()``.
        self._by_function: Dict[str, List[int]] = {}
        # Lazy victim index: a min-heap of (key, container_id) entries,
        # at most one live entry per container, enrolled under a
        # sentinel key when the container is first idle (see :meth:`add`)
        # and revalidated against the policy's current key on pop (see
        # :meth:`iter_victims`); evicted entries are discarded lazily.
        self._victim_heap: List[Tuple[Tuple[float, float, int], int]] = []
        # Incremental expiry index: a min-heap of (deadline, id)
        # entries validated against the authoritative deadline map on
        # pop. Unlike the victim index, expiry deadlines are NOT
        # monotone (a HIST re-plan can pull a deadline earlier), so
        # every schedule_expiry pushes a fresh entry and stale ones are
        # discarded when popped (see :meth:`pop_expired`).
        self._expiry_heap: List[Tuple[float, int]] = []
        self._expiry_deadline: Dict[int, float] = {}
        # Containers no policy has scheduled a deadline for yet. The
        # simulator schedules every container through the policy
        # lifecycle hooks, so this is empty on the hot path; manually
        # assembled pools (unit tests, external drivers) fall back to a
        # scan over exactly these containers.
        self._unscheduled: Dict[int, Container] = {}
        # Idle, unpinned memory, maintained incrementally through the
        # containers' busy/idle notifications so the unsatisfiable-
        # deficit check on every drop is O(1) instead of a pool scan.
        # ``_idle_unpinned`` counts the same population, so the
        # drift-cleanup clamp below can fire only when the idle set is
        # actually empty instead of masking real accounting bugs.
        self._evictable_mb = 0.0
        self._idle_unpinned = 0
        # Victim-index entries of containers the current (or last)
        # :meth:`iter_victims` walk yielded and nobody evicted yet.
        # ``evict`` discards the pending entry; whatever is left is
        # re-enrolled when the next walk starts.
        self._taken: Dict[int, Tuple[Tuple[float, float, int], int]] = {}
        # Victim-index entries of busy containers: admitted RUNNING
        # (unscored, not yet enrolled) or busy when popped. Instead of
        # sitting in the heap for every selection to pop and skip, they
        # wait here and enter the heap when the container actually goes
        # idle — the stored key is unchanged, so selection order is
        # identical.
        self._parked: Dict[int, Tuple[Tuple[float, float, int], int]] = {}
        # Runtime sanitizer flag, captured once at construction
        # (docs/static-analysis.md): when off, admission/eviction pay
        # exactly one attribute test.
        self._sanitize = sanitize_enabled()

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def capacity_mb(self) -> float:
        return self._capacity_mb

    @property
    def used_mb(self) -> float:
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self._capacity_mb - self._used_mb

    def can_fit(self, memory_mb: float) -> bool:
        # Tolerate float rounding from repeated add/remove cycles. The
        # slack is relative to capacity: accumulated drift scales with
        # the magnitudes being summed, not with an absolute constant.
        return memory_mb <= self.free_mb + self._slack_mb

    def set_capacity(self, capacity_mb: float) -> None:
        """Resize the pool (vertical scaling).

        Shrinking below the currently used memory is allowed only if
        the caller has already evicted enough idle containers; the pool
        refuses to be put into an over-committed state.
        """
        if capacity_mb <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_mb}")
        if capacity_mb < self._used_mb - 1e-9 * max(
            self._capacity_mb, float(capacity_mb)
        ):
            raise CapacityError(
                f"cannot shrink capacity to {capacity_mb} MB while "
                f"{self._used_mb} MB is in use"
            )
        if self._tenant_mode == "partitioned":
            total = sum(self._tenant_limits_mb.values())
            if total > capacity_mb * (1.0 + 1e-9):
                raise CapacityError(
                    f"cannot shrink capacity to {capacity_mb} MB below "
                    f"the {total:.1f} MB sum of partition slices"
                )
        self._capacity_mb = float(capacity_mb)
        self._slack_mb = 1e-9 * self._capacity_mb

    # ------------------------------------------------------------------
    # Graceful deflation (harvested / time-varying capacity)
    # ------------------------------------------------------------------

    @property
    def deflation_target_mb(self) -> Optional[float]:
        """The pending graceful-shrink target, or ``None``."""
        return self._deflation_target_mb

    @property
    def deflation_deferred_mb(self) -> float:
        """Memory still to be freed before a deferred shrink lands."""
        if self._deflation_target_mb is None:
            return 0.0
        return max(0.0, self._used_mb - self._deflation_target_mb)

    def deflate_to(
        self, capacity_mb: float, ordered: Iterable[Container]
    ) -> List[Container]:
        """Gracefully resize toward ``capacity_mb``, evicting idle
        containers from ``ordered`` — the policy's victim order
        (:meth:`KeepAlivePolicy.victim_order`) — as needed.

        The harvest-capacity counterpart of :meth:`set_capacity`:
        instead of refusing a shrink below used memory, the pool frees
        the lowest-priority idle containers first (the same order and
        the same cover rule, :meth:`take_victims`, as pressure
        eviction) and, when busy containers still hold more than the
        target, *defers* the remainder: nominal capacity is clamped to
        the used memory so nothing new can be admitted, and
        :meth:`resume_deflation` finishes the shrink as containers go
        idle. Growth (target at or above used memory) applies
        immediately and leaves ``ordered`` untouched.

        Tenant modes: partitioned slices scale proportionally with the
        target (and are restored from the configured baseline when
        capacity grows back); any tenant left over its scaled slice is
        deflated down to it. Quota limits stay absolute — they are soft
        guarantees, not slices — but over-quota tenants' containers are
        evicted first, matching pressure-path victim selection.

        Returns the evicted containers in eviction order; the caller
        owns policy-state cleanup and event emission for them.
        :meth:`set_capacity` keeps its strict never-over-committed
        contract; only this path may shrink below used memory.
        """
        if capacity_mb <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_mb}")
        target = float(capacity_mb)
        if self._tenant_mode == "partitioned":
            self._tenant_limits_mb = self._scaled_tenant_limits(target)
        self._deflation_target_mb = target
        return self._advance_deflation(ordered)

    def resume_deflation(self, ordered: Iterable[Container]) -> List[Container]:
        """Continue a deferred shrink; no-op unless one is pending."""
        if self._deflation_target_mb is None:
            return []
        return self._advance_deflation(ordered)

    def _scaled_tenant_limits(self, target_mb: float) -> Dict[int, float]:
        """Partition slices scaled proportionally to ``target_mb``
        (never above the configured baseline)."""
        base = self._base_tenant_limits_mb
        total = sum(base.values())
        if total <= 0.0 or total <= target_mb * (1.0 + 1e-9):
            return dict(base)
        scale = target_mb / total
        return {tid: limit * scale for tid, limit in base.items()}

    def _advance_deflation(self, ordered: Iterable[Container]) -> List[Container]:
        target = self._deflation_target_mb
        if target is None:  # pragma: no cover - guarded by callers
            return []
        settle_slack = 1e-9 * max(self._capacity_mb, target)
        if self._tenant_mode == "partitioned":
            # Each tenant within its scaled slice implies the global
            # target: the scaled slices sum to at most the target.
            selected = self._over_slice_victims(ordered, settle_slack)
        else:
            # Never ask for more than the idle set holds: what busy
            # containers keep is the deferral below, not a failed cover.
            deficit = min(self._used_mb - target, self._evictable_mb)
            selected = []
            if deficit > settle_slack:
                # Quota fairness: over-quota tenants' containers first
                # (no tenant is ever over quota in shared mode).
                selected = self.take_victims(
                    ordered,
                    deficit,
                    settle_slack,
                    preferred=self.over_quota_tenants(),
                ) or []
        for container in selected:
            self.evict(container)
        settle_slack = 1e-9 * max(self._capacity_mb, target)
        if self._used_mb - target <= settle_slack:
            # Target reached (or the pool was never above it): land the
            # shrink/growth through the strict contract. It stays pending
            # while a tenant's busy containers exceed its scaled slice.
            if self._tenant_mode != "partitioned" or not self._over_slice_mb(settle_slack):
                self._deflation_target_mb = None
            self.set_capacity(target)
        else:
            # Busy containers hold more than the target: clamp nominal
            # capacity to exactly what is in use — no new admissions —
            # and wait for resume_deflation as they finish.
            self._capacity_mb = self._used_mb
            self._slack_mb = 1e-9 * self._capacity_mb
        return selected

    def _over_slice_mb(self, slack_mb: float) -> Dict[int, float]:
        """Tenant -> memory held beyond its (scaled) partition slice."""
        limits = self._tenant_limits_mb
        excess: Dict[int, float] = {}
        for tid, used_t in self._tenant_used_mb.items():
            over_by = used_t - limits.get(tid, 0.0)
            if over_by > slack_mb:
                excess[tid] = over_by
        return excess

    def _over_slice_victims(
        self, ordered: Iterable[Container], slack_mb: float
    ) -> List[Container]:
        """Partitioned-mode deflation victims: for every tenant over
        its (scaled) slice, its first containers in ``ordered`` until
        the slice fits."""
        excess = self._over_slice_mb(slack_mb)
        if not excess:
            return []
        selected: List[Container] = []
        for container in ordered:
            tid = container.function.tenant_id
            remaining = excess.get(tid)
            if remaining is None:
                continue
            selected.append(container)
            remaining -= container.memory_mb
            if remaining > slack_mb:
                excess[tid] = remaining
            else:
                del excess[tid]
                if not excess:
                    break
        return selected

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add(self, container: Container) -> None:
        """Admit a container; raises :class:`CapacityError` if it won't fit.

        Admitted WARM it joins the victim index and the evictable count
        at once; admitted RUNNING (a cold start) its unscored entry waits
        in ``_parked`` until it first idles; pinned, it never enrolls.
        """
        cid = container.container_id
        function = container.function
        memory_mb = function.memory_mb
        tenant_id = function.tenant_id
        if container.state == ContainerState.DEAD:
            raise ValueError("cannot add a dead container")
        if cid in self._containers:
            raise ValueError(f"container {cid} already pooled")
        if memory_mb > self._capacity_mb - self._used_mb + self._slack_mb:
            raise CapacityError(
                f"container needs {memory_mb} MB but only "
                f"{self.free_mb:.1f} MB is free"
            )
        if self._tenant_mode == "partitioned":
            free_t = self.tenant_free_mb(tenant_id)
            if memory_mb > free_t + self._slack_mb:
                raise CapacityError(
                    f"tenant {tenant_id} needs {memory_mb} MB "
                    f"but its partition has only {free_t:.1f} MB free"
                )
        if container.pool is not None:
            raise ValueError(f"container {cid} already belongs to a pool")
        container.pool = self
        self._containers[cid] = container
        peers = self._by_function.setdefault(function.name, [])
        if peers and cid < peers[-1]:
            # Only reachable with externally-built containers; ids from
            # the global counter always append in ascending order.
            insort(peers, cid)
        else:
            peers.append(cid)
        self._used_mb += memory_mb
        self._tenant_used_mb[tenant_id] = (
            self._tenant_used_mb.get(tenant_id, 0.0) + memory_mb
        )
        self._tenant_count[tenant_id] = (
            self._tenant_count.get(tenant_id, 0) + 1
        )
        if self._tracer is not None:
            self._tracer.emit(
                "container_spawned",
                container.created_at_s,
                function=function.name,
                container_id=cid,
                memory_mb=memory_mb,
                pinned=container.pinned,
                prewarmed=container.prewarmed,
            )
        if not container.pinned:
            # Pinned containers are never eviction candidates; everyone
            # else enters the victim index unscored and the expiry
            # index unscheduled (until a policy hook sets a deadline).
            self._unscheduled[cid] = container
            if container.state == ContainerState.WARM:
                heapq.heappush(self._victim_heap, (_UNSCORED_KEY, cid))
                self._evictable_mb += memory_mb
                self._idle_unpinned += 1
            else:
                self._parked[cid] = (_UNSCORED_KEY, cid)
        if self._sanitize:
            self._sanitize_accounting()

    def evict(self, container: Container) -> None:
        """Terminate and remove an idle container.

        Returns silently having removed the container; raises if the
        container is running or not in this pool.
        """
        cid = container.container_id
        if cid not in self._containers:
            raise KeyError(f"container {cid} not in pool")
        if container.pinned:
            raise ValueError(
                f"container {cid} is pinned "
                "(provisioned concurrency) and cannot be evicted"
            )
        container.terminate()  # raises if RUNNING
        container.pool = None
        del self._containers[cid]
        function = container.function
        memory_mb = function.memory_mb
        peers = self._by_function[function.name]
        del peers[bisect_left(peers, cid)]
        if not peers:
            del self._by_function[function.name]
        self._used_mb -= memory_mb
        # Drift cleanup, not error masking: only reset the accumulator
        # when the pool is *actually* empty and the residual is within
        # the float-drift slack. A near-zero value with containers
        # still pooled — or a large residual on an empty pool — is a
        # real bug and must stay visible to the sanitizer.
        if not self._containers and abs(self._used_mb) <= self._slack_mb:
            self._used_mb = 0.0
        tenant_id = function.tenant_id
        self._tenant_used_mb[tenant_id] -= memory_mb
        remaining = self._tenant_count[tenant_id] - 1
        if remaining:
            self._tenant_count[tenant_id] = remaining
        elif abs(self._tenant_used_mb[tenant_id]) <= self._slack_mb:
            # Same drift-cleanup rule as ``_used_mb``: only forget a
            # tenant when its population is genuinely empty and the
            # residual is float noise; a large residual stays visible
            # to the sanitizer.
            del self._tenant_count[tenant_id]
            del self._tenant_used_mb[tenant_id]
        else:
            self._tenant_count[tenant_id] = 0
        # Expiry bookkeeping: dropping the authoritative deadline turns
        # any heap entries for this id into stale tombstones, discarded
        # when popped.
        self._expiry_deadline.pop(cid, None)
        self._unscheduled.pop(cid, None)
        self._taken.pop(cid, None)
        # An evicted container was necessarily idle (terminate refuses
        # RUNNING ones: never parked) and unpinned: counted evictable.
        self._evictable_mb -= memory_mb
        self._idle_unpinned -= 1
        if self._idle_unpinned == 0 and abs(self._evictable_mb) <= self._slack_mb:
            self._evictable_mb = 0.0
        if self._sanitize:
            self._sanitize_accounting()

    def _sanitize_accounting(self) -> None:
        """REPRO_SANITIZE hook: recompute the incremental memory
        accounting from scratch and fail loudly on any drift."""
        used = sum(c.memory_mb for c in self._containers.values())
        if abs(used - self._used_mb) > 1e-6 * max(1.0, used):
            raise SanitizeError(
                f"memory conservation violated: containers hold "
                f"{used:.3f} MB but the pool accounts "
                f"{self._used_mb:.3f} MB"
            )
        evictable = sum(
            c.memory_mb
            for c in self._containers.values()
            if c.is_idle and not c.pinned
        )
        if abs(evictable - self._evictable_mb) > 1e-6 * max(1.0, evictable):
            raise SanitizeError(
                f"evictable-memory accounting violated: idle unpinned "
                f"containers hold {evictable:.3f} MB but the pool "
                f"accounts {self._evictable_mb:.3f} MB"
            )
        idle_unpinned = sum(
            1
            for c in self._containers.values()
            if c.is_idle and not c.pinned
        )
        if idle_unpinned != self._idle_unpinned:
            raise SanitizeError(
                f"idle-container accounting violated: {idle_unpinned} "
                f"idle unpinned containers but the pool counts "
                f"{self._idle_unpinned}"
            )
        # Per-tenant accounting must agree with a from-scratch
        # recompute, tenant keys must never dangle, and in partitioned
        # mode no tenant may exceed its slice.
        tenant_used: Dict[int, float] = {}
        tenant_count: Dict[int, int] = {}
        for c in self._containers.values():
            tid = c.function.tenant_id
            tenant_used[tid] = tenant_used.get(tid, 0.0) + c.memory_mb
            tenant_count[tid] = tenant_count.get(tid, 0) + 1
        for tid in sorted(set(self._tenant_used_mb) | set(tenant_used)):
            used_t = tenant_used.get(tid, 0.0)
            booked_t = self._tenant_used_mb.get(tid, 0.0)
            if abs(used_t - booked_t) > 1e-6 * max(1.0, used_t):
                raise SanitizeError(
                    f"tenant {tid} memory accounting violated: containers "
                    f"hold {used_t:.3f} MB but the pool accounts "
                    f"{booked_t:.3f} MB"
                )
            if tenant_count.get(tid, 0) != self._tenant_count.get(tid, 0):
                raise SanitizeError(
                    f"tenant {tid} population accounting violated: "
                    f"{tenant_count.get(tid, 0)} containers pooled but "
                    f"the pool counts {self._tenant_count.get(tid, 0)}"
                )
            if (
                self._tenant_mode == "partitioned"
                # A deferred deflation legitimately leaves tenants over
                # their freshly-scaled slice until busy containers
                # finish; the invariant is re-checked once it lands.
                and self._deflation_target_mb is None
            ):
                limit = self._tenant_limits_mb.get(tid, 0.0)
                if used_t > limit + 1e-6 * max(1.0, limit):
                    raise SanitizeError(
                        f"tenant {tid} exceeds its partition slice: "
                        f"{used_t:.3f} MB used of {limit:.3f} MB"
                    )
        # Every unpinned container is either awaiting its first
        # deadline or carried by the expiry index — never both, never
        # neither, and never a dangling id.
        for cid in self._expiry_deadline:
            if cid not in self._containers:
                raise SanitizeError(
                    f"expiry index holds deadline for container {cid} "
                    "which is not pooled"
                )
            if cid in self._unscheduled:
                raise SanitizeError(
                    f"container {cid} is both scheduled and unscheduled "
                    "in the expiry index"
                )
        for cid in self._unscheduled:
            if cid not in self._containers:
                raise SanitizeError(
                    f"expiry index tracks unscheduled container {cid} "
                    "which is not pooled"
                )
        # Parked victim-index entries exist only for pooled containers
        # that are genuinely not idle; an idle parked container would
        # be invisible to victim selection.
        for cid in self._parked:
            container = self._containers.get(cid)
            if container is None:
                raise SanitizeError(
                    f"victim index parks container {cid} which is not "
                    "pooled"
                )
            if container.is_idle:
                raise SanitizeError(
                    f"victim index parks idle container {cid}; it would "
                    "never be offered for eviction"
                )

    # ------------------------------------------------------------------
    # Queries for policies and the simulator
    # ------------------------------------------------------------------

    def idle_warm_container(self, function_name: str) -> Optional[Container]:
        """An idle warm container for ``function_name``, if any.

        When several are idle, the least recently used one is returned
        so that hot containers stay hot (matching the original
        simulator's behaviour of reusing the oldest match). Ties on
        ``last_used_s`` break toward the lowest container id; the
        per-function index is kept in ascending id order, so the scan
        is allocation-free and hash-seed independent.
        """
        ids = self._by_function.get(function_name)
        if not ids:
            return None
        containers = self._containers
        warm = ContainerState.WARM
        best: Optional[Container] = None
        best_last = 0.0
        for cid in ids:
            container = containers[cid]
            if container.state != warm:
                continue
            if best is None or container.last_used_s < best_last:
                best = container
                best_last = container.last_used_s
        return best

    def containers_of(self, function_name: str) -> List[Container]:
        """All containers of ``function_name``, in ascending
        container-id (creation) order.

        The index is maintained in sorted id order, so this is a plain
        copy: deterministic (no raw set-iteration order, the FC003
        blind spot the ROADMAP flagged) without a per-call sort.
        """
        ids = self._by_function.get(function_name)
        if not ids:
            return []
        containers = self._containers
        return [containers[i] for i in ids]

    def has_containers_of(self, function_name: str) -> bool:
        return bool(self._by_function.get(function_name))

    def idle_containers(self) -> List[Container]:
        """All containers eligible for eviction: warm, not running,
        and not pinned (provisioned concurrency is reserved capacity
        no policy may reclaim)."""
        return [
            c
            for c in self._containers.values()
            if c.is_idle and not c.pinned
        ]

    def running_containers(self) -> List[Container]:
        return [c for c in self._containers.values() if c.is_running]

    def all_containers(self) -> List[Container]:
        return list(self._containers.values())

    def evictable_mb(self) -> float:
        """Total memory reclaimable by evicting every idle container.

        O(1): maintained incrementally via the containers' busy/idle
        notifications instead of scanning the pool.
        """
        return self._evictable_mb

    # ------------------------------------------------------------------
    # Tenant accounting (docs/multi-tenancy.md)
    # ------------------------------------------------------------------

    @property
    def tenant_mode(self) -> str:
        return self._tenant_mode

    def tenant_limit_mb(self, tenant_id: int) -> Optional[float]:
        """The tenant's slice (partitioned) or soft quota (quota), or
        ``None`` when no limit is configured for it."""
        return self._tenant_limits_mb.get(tenant_id)

    def tenant_used_mb(self, tenant_id: int) -> float:
        """Memory currently held by the tenant's containers. O(1)."""
        return self._tenant_used_mb.get(tenant_id, 0.0)

    def tenant_container_count(self, tenant_id: int) -> int:
        """Live containers owned by the tenant. O(1)."""
        return self._tenant_count.get(tenant_id, 0)

    def tenant_usage(self) -> Dict[int, float]:
        """Per-tenant used memory for every tenant with containers,
        in ascending tenant-id order (deterministic)."""
        return {
            tid: self._tenant_used_mb[tid]
            for tid in sorted(self._tenant_used_mb)
        }

    def tenant_free_mb(self, tenant_id: int) -> float:
        """Free memory within the tenant's partition slice.

        In ``partitioned`` mode a tenant with no configured slice has
        zero free memory — it can never admit a container (the
        zero-quota degenerate case). In the other modes the limit is
        not an admission bound, so the global free memory is returned.
        """
        if self._tenant_mode != "partitioned":
            return self.free_mb
        limit = self._tenant_limits_mb.get(tenant_id, 0.0)
        return limit - self.tenant_used_mb(tenant_id)

    def can_admit(self, function: TraceFunction) -> bool:
        """Whether a container for ``function`` may be admitted now.

        The tenant-aware generalization of :meth:`can_fit`: shared and
        quota pools bound admission only by global capacity (quota
        limits are soft — enforced through preferential eviction, not
        admission), while partitioned pools additionally require the
        owning tenant's slice to fit the container.
        """
        if not self.can_fit(function.memory_mb):
            return False
        if self._tenant_mode != "partitioned":
            return True
        return (
            function.memory_mb
            <= self.tenant_free_mb(function.tenant_id) + self._slack_mb
        )

    def quota_exceeded_by(self, tenant_id: int, memory_mb: float) -> bool:
        """Whether admitting ``memory_mb`` for ``tenant_id`` would put
        it strictly over its configured limit (beyond the float slack).

        ``False`` for tenants with no configured limit and in shared
        mode. Quota-mode victim selection uses this to decide whether a
        miss may displace within-quota tenants or must feed on its own
        tenant's (and over-quota tenants') containers.
        """
        limit = self._tenant_limits_mb.get(tenant_id)
        if limit is None:
            return False
        used = self._tenant_used_mb.get(tenant_id, 0.0)
        return used + memory_mb > limit + self._slack_mb

    def over_quota_tenants(self) -> frozenset:
        """Tenants currently holding more than their soft quota.

        Meaningful in ``quota`` mode, where victim selection ranks
        these tenants' idle containers ahead of everyone else's.
        Usage must *strictly* exceed the limit beyond the float slack,
        so a tenant exactly at quota is not yet preferentially
        evictable — but a zero-quota tenant becomes so the moment it
        holds anything.
        """
        return frozenset(
            tid
            for tid, used in self._tenant_used_mb.items()
            if used > self._tenant_limits_mb.get(tid, float("inf")) + self._slack_mb
        )

    # ------------------------------------------------------------------
    # State-change notifications from containers
    # ------------------------------------------------------------------

    def _container_became_busy(self, container: Container) -> None:
        if not container.pinned:
            self._evictable_mb -= container.function.memory_mb
            self._idle_unpinned -= 1
            # Same rule as eviction: reset the accumulator only when
            # the idle set is genuinely empty and the residual is mere
            # float drift, so real accounting bugs stay observable.
            if (
                self._idle_unpinned == 0
                and abs(self._evictable_mb) <= self._slack_mb
            ):
                self._evictable_mb = 0.0

    def _container_became_idle(self, container: Container) -> None:
        entry = self._parked.pop(container.container_id, None)
        if entry is not None:
            # Re-enroll the victim-index entry parked while the
            # container was running (a pinned one is discarded on pop).
            heapq.heappush(self._victim_heap, entry)
        if not container.pinned:
            self._evictable_mb += container.function.memory_mb
            self._idle_unpinned += 1

    def iter_victims(
        self,
        key_of: Callable[[Container], Tuple[float, float, int]],
    ) -> Iterator[Container]:
        """Idle, unpinned containers in ascending ``key_of`` order.

        The lazy priority index behind victim selection, and the only
        code that pops it: instead of sorting every idle container on
        each miss, entries sit in a min-heap under the key they were
        last scored with and are revalidated when popped. A popped
        entry whose stored key no longer matches the container's
        current key is re-filed under the fresh key (one
        ``heappushpop``) and the scan continues, so each selection
        costs O((victims + touched) * log n), where *touched* is the
        number of containers whose key changed since the last
        selection — not the whole idle population.

        Correctness requires **monotone keys**: a container's key must
        never decrease while it stays in the pool (see
        :attr:`KeepAlivePolicy.monotone_priority`). Under that
        contract the first entry that revalidates equals the true
        minimum, because every other entry's stored key is a lower
        bound on its current key.

        The walk *consumes*: a yielded container's entry leaves the
        heap and waits in ``_taken``. :meth:`evict` discards it there
        — no restore-push, no dead entry to pop later — and whatever
        the caller did not evict is re-enrolled when the next walk
        starts, so callers may evict all, some, or none of what they
        were offered and may abandon the walk at any point. Running
        containers (one admitted running included) are parked until
        they go idle. One walk at a time: starting a new one ends the
        previous one's claim on its yielded entries.
        """
        heap = self._victim_heap
        taken = self._taken
        if taken:
            # Dict iteration is insertion-ordered: deterministic.
            for entry in taken.values():
                heapq.heappush(heap, entry)
            taken.clear()
        containers = self._containers
        parked = self._parked
        sanitize = self._sanitize
        warm = ContainerState.WARM
        # Sanitizer: the monotone-key contract implies yielded keys
        # never decrease; a regression here would silently evict the
        # wrong containers.
        last_yielded: Optional[Tuple[float, float, int]] = None
        rescored = None  # fresh entry of the stale one just popped
        while heap or rescored is not None:
            if rescored is None:
                entry = heapq.heappop(heap)
            else:  # re-file it and take the new minimum in one sift
                entry, rescored = heapq.heappushpop(heap, rescored), None
            stored_key, container_id = entry
            container = containers.get(container_id)
            if container is None:
                continue  # evicted since enrollment: drop the entry
            if container.pinned:
                continue  # reserved capacity: never a candidate
            if container.state != warm:
                # Busy right now; park the entry until the container
                # goes idle again (its key can only have grown by then,
                # and a running container can never be a candidate, so
                # re-pushing it for every scan to pop and skip again is
                # pure churn).
                parked[container_id] = entry
                continue
            current_key = key_of(container)
            if current_key != stored_key:
                rescored = (current_key, container_id)
                continue
            if sanitize:
                if last_yielded is not None and current_key < last_yielded:
                    raise SanitizeError(
                        f"victim-index monotonicity violated: key "
                        f"{current_key} yielded after {last_yielded} "
                        "(policy key decreased while pooled)"
                    )
                last_yielded = current_key
            taken[container_id] = entry
            yield container

    def take_victims(
        self,
        ordered: Iterable[Container],
        deficit_mb: float,
        slack_mb: float = 1e-9,
        preferred: AbstractSet[int] = frozenset(),
        allowed: Optional[AbstractSet[int]] = None,
    ) -> Optional[List[Container]]:
        """The cover rule: the shortest prefix of ``ordered`` that
        frees ``deficit_mb`` (within ``slack_mb``), or ``None`` when
        all of it is not enough — the caller then drops the request.

        ``ordered`` is the policy's victim order
        (:meth:`KeepAlivePolicy.victim_order`). The tenant arguments
        (docs/multi-tenancy.md) rank and filter it without re-sorting:
        containers of ``preferred`` tenants are taken first, in stream
        order, before anyone else's; when ``allowed`` is given, only
        its tenants' (and the preferred tenants') containers are
        candidates at all. Splitting an ascending stream by a tenant
        rank frozen for the selection equals sorting by ``(rank,
        key)``, so no idle set is ever materialized for it, and the
        stream is consumed no further than the cover needs.
        """
        victims: List[Container] = []
        rest: List[Container] = []
        by_tenant = bool(preferred) or allowed is not None
        reclaimed = 0.0
        # ``rest`` fills while ``ordered`` drains and is read after it.
        for stream in (ordered, rest):
            ranking = by_tenant and stream is not rest
            for container in stream:
                if ranking:
                    tid = container.function.tenant_id
                    if tid not in preferred:
                        if allowed is None or tid in allowed:
                            rest.append(container)
                        continue
                victims.append(container)
                reclaimed += container.function.memory_mb
                if reclaimed >= deficit_mb - slack_mb:
                    return victims
        return None

    # ------------------------------------------------------------------
    # Incremental expiry index
    # ------------------------------------------------------------------

    def schedule_expiry(self, container: Container, deadline_s: float) -> None:
        """Set ``container``'s time-based expiry deadline.

        Policies call this from their lifecycle hooks instead of
        rescanning the pool on every event; :meth:`pop_expired` then
        surfaces only containers whose deadline has actually passed.
        Rescheduling is cheap and deadlines need not be monotone: each
        call pushes a fresh heap entry and the deadline map is the
        single source of truth, so superseded entries die on pop —
        unless the deadline returns to a value it held before (A, B,
        A), which revives the old entry beside the new one;
        :meth:`pop_expired` drops such a twin. A pinned container never
        expires; scheduling one is a no-op.
        """
        cid = container.container_id
        if cid not in self._containers or container.pinned:
            return
        previous = self._expiry_deadline.get(cid)
        if previous is not None and previous == deadline_s:
            return  # unchanged: the live heap entry still matches
        self._unscheduled.pop(cid, None)
        self._expiry_deadline[cid] = deadline_s
        heapq.heappush(self._expiry_heap, (deadline_s, cid))

    def expiry_deadline_of(self, container: Container) -> Optional[float]:
        """The scheduled expiry deadline, or ``None`` if unscheduled."""
        return self._expiry_deadline.get(container.container_id)

    def next_expiry_s(self) -> float:
        """Earliest moment anything *could* expire; ``inf`` if nothing
        is scheduled.

        The O(1) peek behind the simulator's batched event dispatch:
        while ``now < next_expiry_s()`` the whole expiry phase — the
        policy call, :meth:`pop_expired`, and its result list — is
        skipped. Stale heap tops (evicted or rescheduled entries) are
        purged here so a dead earliest-deadline cannot pin the wake-up
        time in the past forever. Containers nothing ever scheduled
        (manually assembled pools) may expire via a fallback scan this
        peek knows nothing about, so their presence disables the fast
        path by reporting ``-inf``.
        """
        if self._unscheduled:
            return float("-inf")
        heap = self._expiry_heap
        deadlines = self._expiry_deadline
        while heap:
            deadline, cid = heap[0]
            current = deadlines.get(cid)
            if current is None or current != deadline:
                heapq.heappop(heap)  # stale: superseded or evicted
                continue
            return deadline
        return float("inf")

    def pop_expired(
        self,
        now_s: float,
        fallback_deadline: Optional[Callable[[Container], float]] = None,
    ) -> List[Tuple[Container, float]]:
        """Idle, unpinned containers whose deadline has passed, as
        ``(container, deadline)`` pairs in ascending
        ``(deadline, container_id)`` order.

        This is the hot-path replacement for the policies' former
        full-pool rescans: when nothing is due, the cost is one peek
        at the heap top. Entries are validated against the deadline
        map on pop — stale ones (evicted containers, superseded
        reschedules) are discarded for good, while reported and
        busy-past-deadline entries are re-pushed, so the call does not
        consume anything the caller chooses not to evict. The ordering
        matches the old scan exactly: a stable sort by deadline over
        creation-ordered containers is precisely ascending
        ``(deadline, container_id)``.

        Containers no policy ever scheduled are covered by a scan with
        ``fallback_deadline`` (in creation order); the simulator
        schedules every container through lifecycle hooks, so that
        scan sees an empty dict on the hot path.
        """
        expired: List[Tuple[Container, float]] = []
        heap = self._expiry_heap
        deadlines = self._expiry_deadline
        restore: List[Tuple[float, int]] = []
        last = None
        while heap and heap[0][0] <= now_s:
            deadline, cid = entry = heapq.heappop(heap)
            current = deadlines.get(cid)
            if current is None or current != deadline:
                continue  # evicted or rescheduled since this push
            if entry == last:
                continue  # twin of an A -> B -> A reschedule: pops next to it
            last = entry
            container = self._containers[cid]
            restore.append(entry)
            if container.is_idle:
                expired.append((container, deadline))
            # else: busy past its deadline — deferred; the restored
            # entry resurfaces it on the first check after it idles.
        for entry in restore:
            heapq.heappush(heap, entry)
        if self._unscheduled and fallback_deadline is not None:
            for cid in sorted(self._unscheduled):
                container = self._unscheduled[cid]
                if not container.is_idle or container.pinned:
                    continue
                deadline = fallback_deadline(container)
                if deadline <= now_s:
                    expired.append((container, deadline))
            expired.sort(key=lambda pair: (pair[1], pair[0].container_id))
        return expired

    def function_names(self) -> List[str]:
        """Names of all functions with pooled containers, sorted.

        Sorted rather than returned as the raw ``set`` keys so callers
        iterating the result stay hash-seed independent.
        """
        return sorted(self._by_function)

    def __len__(self) -> int:
        return len(self._containers)

    def __contains__(self, container: Container) -> bool:
        return container.container_id in self._containers

    def __repr__(self) -> str:
        return (
            f"ContainerPool(capacity={self._capacity_mb:.0f} MB, "
            f"used={self._used_mb:.0f} MB, containers={len(self)})"
        )
