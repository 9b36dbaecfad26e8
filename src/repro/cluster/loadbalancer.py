"""Cluster-level load-balancing policies (Section 9's discussion).

The paper deliberately evaluates at single-server scope but discusses
how the cluster's load balancer determines each server's function mix
and therefore its keep-alive effectiveness: "a stateful load-balancing
policy which runs a function on the same subset of servers will result
in better temporal locality ... randomized load-balancing is simpler
to implement and scale, but offers worse temporal locality".

This module implements that spectrum so the claim can be measured:

* :class:`RandomBalancer` — uniform random server per request.
* :class:`RoundRobinBalancer` — rotate servers per request.
* :class:`HashAffinityBalancer` — stateful: a function consistently
  hashes to ``replicas`` servers and its requests round-robin among
  only those, concentrating each function's temporal locality.
* :class:`LeastLoadedBalancer` — pick the server with the least
  memory in use (greedy packing, locality-blind).
* :class:`MinWorkerSetBalancer` — pack load onto the smallest prefix
  of servers that fits under a high watermark, leaving the rest idle
  and harvestable (the harvested-capacity literature's shape).
* :class:`JoinShortestQueueBalancer` — route to the server with the
  fewest in-flight invocations (queue-depth JSQ).

All balancers are **health-aware**: the cluster marks failed servers
down via :meth:`LoadBalancer.mark_down` and every policy then routes
around them (affinity sets are rerouted along the hash ring) until
:meth:`LoadBalancer.mark_up` restores them. With no server down, each
policy's routing — including any internal RNG draw sequence — is
byte-identical to its pre-health-awareness behaviour. When every
server is down, ``route`` raises :class:`NoHealthyServers` and the
cluster simulator sheds the invocation as ``unavailable``.

Servers can also be **draining**: a spot eviction notice arrived and
the server will disappear shortly (:meth:`LoadBalancer.mark_draining`).
A draining server receives no *new* placements — every policy excludes
it exactly as if it were down — but unlike a down server it is still
alive: in-flight invocations and their retries run on it to completion
(retries are scheduled inside the member simulator that owns them and
are never re-routed through the balancer, so exclusion here cannot
strand them). ``mark_up`` clears both states, so a replacement server
re-enters routing cleanly.
"""

from __future__ import annotations

import abc
import hashlib
import random
from math import inf
from typing import Dict, List, Sequence, Set

from repro.domains import Domain, check_args, int_at_least, positive

__all__ = [
    "LoadBalancer",
    "NoHealthyServers",
    "RandomBalancer",
    "RoundRobinBalancer",
    "HashAffinityBalancer",
    "AffinityWithSpilloverBalancer",
    "LeastLoadedBalancer",
    "MinWorkerSetBalancer",
    "JoinShortestQueueBalancer",
    "create_balancer",
]


class NoHealthyServers(RuntimeError):
    """Every server is marked down; no routing decision is possible."""


class LoadBalancer(abc.ABC):
    """Routes each function invocation to a server index."""

    name: str = "base"
    #: What ``used_mb`` should carry for this policy: "memory" (the
    #: default, each server's pool usage in MB) or "queue" (in-flight
    #: invocation counts). The cluster simulator builds the matching
    #: load vector before calling :meth:`route`.
    load_signal: str = "memory"
    #: The domain of each numeric parameter of the constructor.
    domains = {"num_servers": int_at_least(1)}

    def __init__(self, num_servers: int) -> None:
        check_args(LoadBalancer.domains, locals())
        self.num_servers = num_servers
        #: Servers currently failed (health-aware routing skips them).
        self._down: Set[int] = set()
        #: Servers under an eviction notice: excluded from *new*
        #: placements, but still alive and finishing their own work.
        self._draining: Set[int] = set()

    # -- health tracking ------------------------------------------------

    def mark_down(self, server: int) -> None:
        """Exclude ``server`` from routing until :meth:`mark_up`."""
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server {server} out of range")
        self._down.add(server)

    def mark_up(self, server: int) -> None:
        """Restore a recovered server to the routing set. Idempotent.

        Clears the draining flag too: a restored server is a fresh
        replacement, not the evicted instance limping back.
        """
        self._down.discard(server)
        self._draining.discard(server)

    def mark_draining(self, server: int) -> None:
        """Stop placing *new* work on ``server`` (eviction notice).

        The server stays alive until the eviction lands: invocations
        already placed there — including their retries, which the
        owning member simulator schedules internally — run to
        completion. Only fresh routing decisions skip it.
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server {server} out of range")
        self._draining.add(server)

    @property
    def down_servers(self) -> Set[int]:
        """A copy of the currently-down server set."""
        return set(self._down)

    @property
    def draining_servers(self) -> Set[int]:
        """A copy of the currently-draining server set."""
        return set(self._draining)

    def _available(self, server: int) -> bool:
        """Whether ``server`` may receive new placements."""
        return server not in self._down and server not in self._draining

    def _check_loads(self, used_mb: Sequence[float]) -> None:
        """ValueError unless ``used_mb`` has one entry per server."""
        if len(used_mb) != self.num_servers:
            raise ValueError(
                f"expected {self.num_servers} load entries, got {len(used_mb)}"
            )

    def _healthy(self) -> List[int]:
        """Ascending indices of placeable servers; raises if none.

        Draining servers count as unplaceable here: they are alive,
        but new work must not land on a machine about to vanish.
        """
        if not self._down and not self._draining:
            return list(range(self.num_servers))
        healthy = [
            i for i in range(self.num_servers) if self._available(i)
        ]
        if not healthy:
            raise NoHealthyServers(
                f"all {self.num_servers} servers are down or draining"
            )
        return healthy

    @abc.abstractmethod
    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        """Pick a healthy server for one invocation.

        ``used_mb`` is the current memory usage of every server, for
        load-aware policies. Raises :class:`NoHealthyServers` when all
        servers are marked down.
        """

    def route_traced(
        self,
        function_name: str,
        used_mb: Sequence[float],
        now_s: float,
        tracer,
    ) -> int:
        """Route one invocation and emit an ``invocation_routed`` event.

        The observability entry point used by
        :class:`~repro.cluster.simulation.ClusterSimulator` when
        tracing is enabled; subclasses with richer routing state
        (spillover, rebalancing) override this to annotate the event.
        """
        server = self.route(function_name, used_mb)
        tracer.emit(
            "invocation_routed",
            now_s,
            function=function_name,
            server=server,
            balancer=self.name,
        )
        return server

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_servers={self.num_servers})"


class RandomBalancer(LoadBalancer):
    """Uniform random routing — maximal simplicity, minimal locality."""

    name = "random"
    domains = {**LoadBalancer.domains, "seed": int_at_least(0)}

    def __init__(self, num_servers: int, seed: int = 0) -> None:
        super().__init__(num_servers)
        check_args(RandomBalancer.domains, locals())
        self._rng = random.Random(seed)

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        # Fast path preserves the exact draw sequence of the
        # pre-health-awareness balancer when every server is placeable.
        if not self._down and not self._draining:
            return self._rng.randrange(self.num_servers)
        healthy = self._healthy()
        return healthy[self._rng.randrange(len(healthy))]


class RoundRobinBalancer(LoadBalancer):
    """Rotate through servers regardless of the function."""

    name = "round-robin"

    def __init__(self, num_servers: int) -> None:
        super().__init__(num_servers)
        self._next = 0

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        if len(self._down) + len(self._draining) >= self.num_servers:
            # Sets are disjoint-checked the cheap way: walking the ring
            # below would loop forever only if *no* server is
            # available, which _healthy() detects exactly.
            self._healthy()
        server = self._next
        while not self._available(server):
            server = (server + 1) % self.num_servers
        self._next = (server + 1) % self.num_servers
        return server


class HashAffinityBalancer(LoadBalancer):
    """Stateful affinity: each function owns a small server subset.

    A function's requests consistently go to ``replicas`` servers
    chosen by hashing its name, rotating among them for concurrency.
    Keep-alive caches then see each function on few servers — the
    high-locality end of the paper's spectrum.
    """

    name = "hash-affinity"
    #: ``replicas`` is at most ``num_servers``; ``seed`` salts the hash.
    domains = {**LoadBalancer.domains, "replicas": int_at_least(1), "seed": int_at_least(0)}

    def __init__(self, num_servers: int, replicas: int = 1, seed: int = 0) -> None:
        super().__init__(num_servers)
        check_args(HashAffinityBalancer.domains, locals())
        if replicas > num_servers:
            raise ValueError(
                f"replicas must be in [1, {num_servers}], got {replicas}"
            )
        self.replicas = replicas
        self._seed = seed
        self._rotation: Dict[str, int] = {}

    def _servers_for(self, function_name: str) -> List[int]:
        digest = hashlib.blake2b(
            function_name.encode("utf-8"),
            digest_size=8,
            salt=self._seed.to_bytes(8, "little"),
        ).digest()
        start = int.from_bytes(digest, "little") % self.num_servers
        return [(start + i) % self.num_servers for i in range(self.replicas)]

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        servers = self._servers_for(function_name)
        turn = self._rotation.get(function_name, 0)
        self._rotation[function_name] = (turn + 1) % len(servers)
        chosen = servers[turn % len(servers)]
        if self._available(chosen):
            return chosen
        # Rerouted affinity: try the rest of the affinity set in
        # rotation order, then walk the hash ring past it — the
        # function's traffic lands on the deterministic "next" servers
        # until its home set recovers.
        for offset in range(1, len(servers)):
            candidate = servers[(turn + offset) % len(servers)]
            if self._available(candidate):
                return candidate
        ring_next = (servers[0] + self.replicas) % self.num_servers
        for offset in range(self.num_servers - self.replicas):
            candidate = (ring_next + offset) % self.num_servers
            if self._available(candidate):
                return candidate
        raise NoHealthyServers(
            f"all {self.num_servers} servers are down or draining"
        )


class AffinityWithSpilloverBalancer(HashAffinityBalancer):
    """Stateful affinity with a load-aware escape hatch.

    Pure affinity concentrates locality but can hot-spot a server.
    This variant keeps each function's home-server routing until the
    home servers' memory usage crosses a spillover fraction of the
    cluster mean, then temporarily diverts to the least-loaded server
    — trading a little locality for bounded imbalance. (The follow-on
    literature on FaaS load balancing converged on exactly this
    structure: consistent hashing with bounded loads.)
    """

    name = "affinity-spillover"
    domains = {**HashAffinityBalancer.domains, "spillover_factor": Domain(1.0, inf, low_open=True)}

    def __init__(
        self,
        num_servers: int,
        replicas: int = 1,
        seed: int = 0,
        spillover_factor: float = 1.5,
    ) -> None:
        super().__init__(num_servers, replicas=replicas, seed=seed)
        check_args(AffinityWithSpilloverBalancer.domains, locals())
        self.spillover_factor = spillover_factor
        self.spillovers = 0

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        self._check_loads(used_mb)
        home = super().route(function_name, used_mb)
        # Load statistics consider healthy servers only: a dead
        # server's zero usage must not drag the mean down or attract
        # spillover traffic.
        healthy = self._healthy()
        mean_load = sum(used_mb[i] for i in healthy) / len(healthy)
        if mean_load > 0 and used_mb[home] > self.spillover_factor * mean_load:
            self.spillovers += 1
            return min(healthy, key=lambda i: used_mb[i])
        return home

    def route_traced(
        self,
        function_name: str,
        used_mb: Sequence[float],
        now_s: float,
        tracer,
    ) -> int:
        # Annotate the routing event with whether the load escape
        # hatch fired — the cluster-level pressure signal.
        before = self.spillovers
        server = self.route(function_name, used_mb)
        tracer.emit(
            "invocation_routed",
            now_s,
            function=function_name,
            server=server,
            balancer=self.name,
            spilled=self.spillovers > before,
        )
        return server


class LeastLoadedBalancer(LoadBalancer):
    """Send each request to the server using the least memory.

    Tie-breaking is part of the contract: among equally-loaded healthy
    servers the **lowest index wins**, always. This keeps routing a
    pure function of the load vector (and the down set), so replayed
    runs and cross-process sweeps make identical decisions — ties are
    common (e.g. every server empty at t=0) and any unspecified order
    here would silently fan out into divergent cluster states.
    """

    name = "least-loaded"

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        self._check_loads(used_mb)
        best = -1
        for i in range(self.num_servers):
            if not self._available(i):
                continue
            # Strict < : the first (lowest-index) minimum is kept.
            if best < 0 or used_mb[i] < used_mb[best]:
                best = i
        if best < 0:
            raise NoHealthyServers(
                f"all {self.num_servers} servers are down or draining"
            )
        return best


class MinWorkerSetBalancer(LoadBalancer):
    """Pack load onto the smallest prefix of servers that fits.

    The routing shape of harvested/spot serverless platforms: instead
    of spreading load, concentrate it on the lowest-index available
    servers so the remainder stay idle — idle servers are exactly the
    capacity the infrastructure can harvest or reclaim with the least
    disruption. Each request goes to the lowest-index available server
    whose memory usage is still under ``high_watermark`` of its
    capacity; only when every server in the current working set is
    saturated does the set grow by one. If *all* available servers are
    over the watermark, the least-loaded one absorbs the overflow.

    Stateless and a pure function of the load vector plus the
    down/draining sets, so replays are deterministic. As servers drain
    or fail, the "prefix" is simply the lowest available indices —
    traffic slides off a draining server onto the next one without any
    rebalancing machinery.
    """

    name = "min-worker-set"
    domains = {
        **LoadBalancer.domains, "server_capacity_mb": positive,
        "high_watermark": Domain(0.0, 1.0, low_open=True),
    }

    def __init__(
        self,
        num_servers: int,
        server_capacity_mb: float = 8192.0,
        high_watermark: float = 0.85,
    ) -> None:
        super().__init__(num_servers)
        check_args(MinWorkerSetBalancer.domains, locals())
        self.server_capacity_mb = server_capacity_mb
        self.high_watermark = high_watermark

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        self._check_loads(used_mb)
        threshold = self.high_watermark * self.server_capacity_mb
        best = -1
        for i in range(self.num_servers):
            if not self._available(i):
                continue
            if used_mb[i] < threshold:
                return i
            # Track the least-loaded fallback (first minimum wins) in
            # the same pass, for the everyone-saturated case.
            if best < 0 or used_mb[i] < used_mb[best]:
                best = i
        if best < 0:
            raise NoHealthyServers(
                f"all {self.num_servers} servers are down or draining"
            )
        return best


class JoinShortestQueueBalancer(LoadBalancer):
    """Route each request to the server with the fewest in-flight
    invocations.

    Classic JSQ, on queue depth rather than memory: the cluster
    simulator sees ``load_signal == "queue"`` and supplies in-flight
    invocation counts instead of pool usage. Among equally-short
    queues the lowest index wins (same determinism contract as
    :class:`LeastLoadedBalancer`).
    """

    name = "join-shortest-queue"
    load_signal = "queue"

    def route(self, function_name: str, used_mb: Sequence[float]) -> int:
        self._check_loads(used_mb)
        best = -1
        for i in range(self.num_servers):
            if not self._available(i):
                continue
            if best < 0 or used_mb[i] < used_mb[best]:
                best = i
        if best < 0:
            raise NoHealthyServers(
                f"all {self.num_servers} servers are down or draining"
            )
        return best


_BALANCERS = {
    "random": RandomBalancer,
    "affinity-spillover": AffinityWithSpilloverBalancer,
    "round-robin": RoundRobinBalancer,
    "hash-affinity": HashAffinityBalancer,
    "least-loaded": LeastLoadedBalancer,
    "min-worker-set": MinWorkerSetBalancer,
    "join-shortest-queue": JoinShortestQueueBalancer,
}


def create_balancer(name: str, num_servers: int, **kwargs) -> LoadBalancer:
    """Instantiate a balancer by name.

    >>> create_balancer("round-robin", 4).name
    'round-robin'
    """
    try:
        factory = _BALANCERS[name]
    except KeyError:
        raise ValueError(
            f"unknown balancer {name!r}; available: {sorted(_BALANCERS)}"
        ) from None
    return factory(num_servers=num_servers, **kwargs)
