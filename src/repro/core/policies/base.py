"""Keep-alive policy interface and registry.

A keep-alive policy answers three questions for the server:

1. **Victim selection** — when a new container must be launched and
   memory is insufficient, which idle containers should be terminated?
   (:meth:`KeepAlivePolicy.select_victims`)
2. **Time-based expiry** — which containers should be terminated now
   regardless of memory pressure? Pure caching policies are
   *resource-conserving* and never expire containers (Section 4.1);
   TTL and HIST do.
3. **Prefetching** — should any containers be created speculatively?
   Only HIST (the Azure histogram policy) prefetches.

Policies also receive lifecycle notifications (invocation arrivals,
warm starts, cold starts, evictions) through which they maintain their
internal state: frequencies, logical clocks, credits, histograms.

Policies are registered by short name (``GD``, ``TTL``, ``LRU``,
``HIST``, ``SIZE``, ``LND``, ``FREQ``) matching the labels used in the
paper's Figures 5 and 6, and instantiated through
:func:`create_policy`, which imports a built-in policy's module when its
name is first asked for (:data:`BUILTIN_POLICIES`).
"""

from __future__ import annotations

import abc
from importlib import import_module
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.core.container import Container
from repro.core.pool import ContainerPool
from repro.domains import Domain
from repro.traces.model import TraceFunction

__all__ = [
    "KeepAlivePolicy",
    "PrewarmRequest",
    "register_policy",
    "create_policy",
    "available_policies",
    "BUILTIN_POLICIES", "PAPER_POLICIES", "EXTENDED_POLICIES", "PARAMETRIC_POLICIES",
]

#: The policy lineup of Figures 5 and 6, in the paper's legend order.
PAPER_POLICIES = ("GD", "TTL", "LRU", "HIST", "SIZE", "LND", "FREQ")

#: Additional classic policies from the caching literature the paper
#: surveys (Section 2.2), adapted to variable-size keep-alive.
EXTENDED_POLICIES = ("GDS", "ARC", "SLRU", "LRUK", "HYPERBOLIC", "FIFO", "RAND")

#: Policies needing construction arguments (a trace for the oracles, a
#: wrapped policy for the doorkeeper); excluded from name-only sweeps.
PARAMETRIC_POLICIES = ("ORACLE", "ORACLE-CS", "DOORKEEPER")

#: Every built-in policy name and the module of this package that
#: registers it. :func:`create_policy` imports that module the first
#: time the name is asked for; the names are reserved before it loads.
BUILTIN_POLICIES: Dict[str, str] = {
    "ARC": "arc", "DOORKEEPER": "doorkeeper", "FIFO": "baselines", "FREQ": "lfu",
    "GD": "greedy_dual", "GDS": "gds", "HIST": "histogram", "HYPERBOLIC": "hyperbolic",
    "LND": "landlord", "LRU": "lru", "LRUK": "lruk", "ORACLE": "oracle", "ORACLE-CS": "oracle",
    "RAND": "baselines", "SIZE": "size", "SLRU": "slru", "TTL": "ttl",
}


class PrewarmRequest:
    """A speculative container creation scheduled by a policy."""

    __slots__ = ("function", "at_time_s", "expiry_s")

    def __init__(
        self, function: TraceFunction, at_time_s: float, expiry_s: float
    ) -> None:
        self.function = function
        self.at_time_s = at_time_s
        self.expiry_s = expiry_s

    def __repr__(self) -> str:
        return (
            f"PrewarmRequest(fn={self.function.name!r}, "
            f"at={self.at_time_s:.1f}s, expiry={self.expiry_s:.1f}s)"
        )


class KeepAlivePolicy(abc.ABC):
    """Base class for all keep-alive (function termination) policies."""

    #: Short name used in the registry and in the paper's figures.
    name: str = "base"

    #: How :meth:`victim_order` — the one order every eviction and
    #: deflation path consumes — is produced. True: a walk of the
    #: pool's lazy victim index (:meth:`ContainerPool.iter_victims`),
    #: O((victims + touched) * log n) per selection and never a
    #: materialized idle set. False (the default): an exact sort of the
    #: idle set per selection, right for arbitrary priorities. Both
    #: yield the same containers in the same order for a policy that
    #: may set the flag, which is one whose victim key ``(priority,
    #: last_used, id)`` never *decreases* for a container while it
    #: remains in the pool — i.e. :meth:`priority` is independent of
    #: ``now_s`` between lifecycle events and every lifecycle event can
    #: only raise it. GD/GDS (clock + frequency, both monotone),
    #: LRU/TTL (last-used time), FREQ (frequency), SIZE/FIFO/RAND
    #: (constant per container), and LRU-K (backward K-distance)
    #: qualify; policies whose scores decay with time (HYPERBOLIC,
    #: HIST), depend on the future (ORACLE) or demote entries (SLRU,
    #: LND's rent) must keep the default. ``REPRO_SANITIZE=1`` checks
    #: the claim on every index walk.
    monotone_priority: bool = False

    #: Each numeric constructor parameter's domain (:mod:`repro.domains`).
    domains: Dict[str, Domain] = {}

    def __init__(self) -> None:
        # Shared per-function frequency counters, used by the
        # Greedy-Dual family and LFU. Reset when the last container of
        # a function is evicted (Section 4.1).
        self._frequency: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle notifications from the simulator / invoker
    # ------------------------------------------------------------------

    def on_invocation(
        self,
        function: TraceFunction,
        now_s: float,
        pool: Optional[ContainerPool] = None,
    ) -> None:
        """An invocation of ``function`` arrived (before hit/miss is known).

        ``pool`` is the server's container pool when the caller has one
        (the simulator and the OpenWhisk invoker pass it; bare unit
        tests may not). Policies whose scores depend on per-function
        state changed *here* — the Greedy-Dual family's Freq term —
        need it to refresh resident containers on every arrival,
        including arrivals that later drop or shed without reaching a
        start hook.
        """
        self._frequency[function.name] = self._frequency.get(function.name, 0) + 1

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        """A warm container was reused (a cache hit)."""

    def on_cold_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        """A new container was created for a cold start (a cache miss)."""

    def on_prewarm(
        self, container: Container, request: "PrewarmRequest", pool: ContainerPool
    ) -> None:
        """A container was created speculatively from a prewarm request."""

    def on_evict(
        self,
        container: Container,
        now_s: float,
        pool: ContainerPool,
        pressure: bool,
    ) -> None:
        """``container`` was terminated (already removed from ``pool``).

        ``pressure`` is True for memory-pressure evictions (the policy's
        own victim choices) and False for time-based expiries. The
        default implementation resets the function's frequency when its
        last container dies.
        """
        if not pool.has_containers_of(container.function.name):
            self._frequency.pop(container.function.name, None)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def priority(self, container: Container, now_s: float) -> float:
        """Eviction priority; lower values are evicted first.

        :meth:`victim_order` ranks idle containers by this. A policy
        that selects pressure victims some other way overrides
        :meth:`select_victims` as well, but still scores containers
        here: deflation and tenant-aware selection read the order.
        """
        raise NotImplementedError

    def eviction_priority(
        self, container: Container, now_s: float
    ) -> Optional[float]:
        """The priority ``container`` holds at eviction time, for the
        observability layer's ``evicted`` events.

        Returns ``None`` for policies that select victims without a
        scalar priority (e.g. list-structured policies overriding
        :meth:`select_victims`), so traces stay honest instead of
        inventing a number. Only called on the tracing path — never
        when tracing is disabled.
        """
        try:
            return float(self.priority(container, now_s))
        except NotImplementedError:
            return None

    def victim_order(
        self, pool: ContainerPool, now_s: float
    ) -> Iterator[Container]:
        """``pool``'s idle unpinned containers, next victim first:
        ascending ``(priority, last_used, id)`` with priorities frozen
        at ``now_s``.

        The one victim order behind every eviction and deflation path
        — pressure selection in all tenant modes, graceful deflation,
        the invoker's batch and background reclaim, cascade deflation —
        and the only reader of :attr:`monotone_priority`: a monotone
        policy's order is a walk of the pool's lazy index
        (:meth:`ContainerPool.iter_victims`), everyone else's is the
        exact sort of the idle set. Consumers take what they need off
        the front (:meth:`ContainerPool.take_victims`) and may evict
        what they were handed while iterating; a wrapper policy
        delegates this the way it delegates :meth:`priority`.
        """

        def key_of(container: Container) -> Tuple[float, float, int]:
            return (
                self.priority(container, now_s),
                container.last_used_s,
                container.container_id,
            )

        if self.monotone_priority:
            return pool.iter_victims(key_of)
        return iter(sorted(pool.idle_containers(), key=key_of))

    def select_victims(
        self, pool: ContainerPool, needed_mb: float, now_s: float
    ) -> Optional[List[Container]]:
        """Choose idle containers to evict so ``needed_mb`` can fit.

        Returns the victim list (possibly empty when enough memory is
        already free), or ``None`` when the request cannot be satisfied
        even by evicting every idle container — the invocation is then
        dropped by the caller. The victims are the prefix of
        :meth:`victim_order` that covers the deficit.
        """
        deficit = needed_mb - pool.free_mb
        if deficit <= 1e-9:
            return []
        if pool._evictable_mb < deficit - 1e-9:  # ``evictable_mb()``, read directly
            return None  # O(1) drop: evicting every idle container would not make room
        return pool.take_victims(self.victim_order(pool, now_s), deficit)

    def select_victims_tenant(
        self,
        pool: ContainerPool,
        needed_mb: float,
        now_s: float,
        tenant_id: int,
    ) -> Optional[List[Container]]:
        """Tenant-aware victim selection (docs/multi-tenancy.md).

        The generalization of :meth:`select_victims` the simulator
        calls when the pool is not in ``shared`` mode — for shared
        pools it delegates to the plain path, so tenant-less runs are
        untouched. The other modes are the same cover rule over the
        same :meth:`victim_order`, with a tenant rank and filter:

        * ``partitioned`` — only the requesting tenant's idle
          containers are candidates: one tenant's miss can never evict
          another tenant's container. The deficit is the larger of the
          tenant's slice deficit and the pool's: while a deferred
          shrink (:meth:`ContainerPool.deflate_to`) clamps capacity to
          the busy memory, room in the slice is not room in the pool.
        * ``quota`` — the deficit is global, and every idle container
          of a currently over-quota tenant is offered before any
          within-quota container, regardless of policy priority.
          Additionally, a miss whose admission would push the
          requesting tenant *over* its quota may only evict that
          tenant's own containers or other over-quota tenants' — quota
          is soft (free memory and over-quota capacity are fair game)
          but never a license to displace within-quota tenants.

        Over-quota status is frozen at selection start (evicting a
        victim mid-selection may bring its tenant back under quota;
        re-ranking mid-scan would make the choice order-dependent).
        """
        mode = pool.tenant_mode
        if mode == "shared":
            return self.select_victims(pool, needed_mb, now_s)
        deficit = needed_mb - pool.free_mb
        preferred: AbstractSet[int] = frozenset()
        allowed: Optional[AbstractSet[int]] = None
        if mode == "partitioned":
            deficit = max(deficit, needed_mb - pool.tenant_free_mb(tenant_id))
            allowed = {tenant_id}
        elif deficit > 1e-9:  # quota
            preferred = pool.over_quota_tenants()
            if pool.quota_exceeded_by(tenant_id, needed_mb):
                # The requester would land over quota: it may only feed
                # on itself and on other over-quota tenants.
                allowed = {tenant_id}
        if deficit <= 1e-9:
            return []
        if allowed is None and pool.evictable_mb() < deficit - 1e-9:
            # O(1) drop decision (unrestricted candidate set only):
            # total idle memory cannot cover the deficit.
            return None
        return pool.take_victims(
            self.victim_order(pool, now_s),
            deficit,
            preferred=preferred,
            allowed=allowed,
        )

    def expired_containers(
        self, pool: ContainerPool, now_s: float
    ) -> List[Tuple[Container, float]]:
        """Containers whose time-based expiry has passed.

        Returns ``(container, expiry_time)`` pairs with
        ``expiry_time <= now_s``. Resource-conserving policies return
        nothing; TTL and HIST override this.
        """
        return []

    def next_expiry_s(self, pool: ContainerPool) -> float:
        """Earliest time :meth:`expired_containers` could be non-empty.

        The simulator's batched dispatch skips the whole expiry phase
        while ``now < next_expiry_s(pool)``. The conservative default
        (``-inf``) never skips, so a policy overriding
        :meth:`expired_containers` with its own bookkeeping stays
        correct without opting in; TTL and HIST answer from the pool's
        incremental expiry index.
        """
        return float("-inf")

    def due_prewarms(self, now_s: float) -> List[PrewarmRequest]:
        """Prewarm requests scheduled at or before ``now_s``.

        Returned requests are consumed: the policy must not return the
        same request twice. Only HIST prefetches.
        """
        return []

    def next_prewarm_s(self) -> float:
        """Earliest time :meth:`due_prewarms` could be non-empty.

        Same contract as :meth:`next_expiry_s`: the simulator skips the
        prewarm phase while ``now < next_prewarm_s()``, and the
        ``-inf`` default keeps custom prefetching policies correct
        without an override. Policies that never prefetch are already
        skipped wholesale (the simulator detects the un-overridden
        :meth:`due_prewarms` once at construction).
        """
        return float("-inf")

    def should_retain(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> bool:
        """Admission decision: keep ``container`` warm after its
        invocation completes?

        Keep-alive policies normally retain everything and decide only
        *eviction* order; admission-controlled variants (doorkeepers)
        can refuse to cache unpopular functions at all, releasing the
        container as soon as it finishes.
        """
        return True

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def frequency_of(self, function_name: str) -> int:
        return self._frequency.get(function_name, 0)

    def reset(self) -> None:
        """Clear all internal state (fresh simulation run)."""
        self._frequency.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[..., KeepAlivePolicy]] = {}


def register_policy(name: str):
    """Class decorator registering a policy under ``name``; a built-in
    name, loaded or not, only from its own module."""

    def decorator(cls: Type[KeepAlivePolicy]) -> Type[KeepAlivePolicy]:
        key = name.upper()
        home = BUILTIN_POLICIES.get(key)
        if key in _REGISTRY or (home and cls.__module__ != f"{__package__}.{home}"):
            raise ValueError(f"policy {key!r} is already registered")
        _REGISTRY[key] = cls
        cls.name = key
        return cls

    return decorator


def create_policy(name: str, **kwargs) -> KeepAlivePolicy:
    """Instantiate a registered policy by its short name.

    >>> policy = create_policy("LRU")
    >>> policy.name
    'LRU'
    """
    key = name.upper()
    if key not in _REGISTRY and key in BUILTIN_POLICIES:
        import_module(f"{__package__}.{BUILTIN_POLICIES[key]}")
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
    return factory(**kwargs)


def available_policies() -> List[str]:
    """Names of all registered policies, built-in ones loaded or not, sorted."""
    return sorted(_REGISTRY.keys() | BUILTIN_POLICIES.keys())
