"""Cluster-level load balancing and keep-alive locality (Section 9)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.loadbalancer import (
        AffinityWithSpilloverBalancer, HashAffinityBalancer, LeastLoadedBalancer, LoadBalancer,
        RandomBalancer, RoundRobinBalancer, create_balancer,
    )
    from repro.cluster.elastic import ElasticClusterResult, ElasticClusterSimulation
    from repro.cluster.simulation import ClusterResult, ClusterSimulator

__all__ = [
    "AffinityWithSpilloverBalancer", "HashAffinityBalancer", "LeastLoadedBalancer", "LoadBalancer",
    "RandomBalancer", "RoundRobinBalancer", "create_balancer",
    "ElasticClusterResult", "ElasticClusterSimulation",
    "ClusterResult", "ClusterSimulator",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "loadbalancer": (
        "AffinityWithSpilloverBalancer HashAffinityBalancer LeastLoadedBalancer LoadBalancer "
        "RandomBalancer RoundRobinBalancer create_balancer"
    ),
    "elastic": "ElasticClusterResult ElasticClusterSimulation",
    "simulation": "ClusterResult ClusterSimulator",
})
