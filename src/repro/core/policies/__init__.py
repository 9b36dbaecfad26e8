"""Keep-alive policies (Section 4 of the paper), registered under the
short names of the paper's figures (``GD``, ``TTL``, ``LRU``, ``HIST``,
``SIZE``, ``LND``, ``FREQ``, ...). Importing this package loads none of
them: :func:`create_policy` imports a policy's module when its name is
first asked for, and reading a class from here imports its module."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.policies.arc import ARCPolicy
    from repro.core.policies.base import (
        EXTENDED_POLICIES, PAPER_POLICIES, PARAMETRIC_POLICIES, KeepAlivePolicy, PrewarmRequest,
        available_policies, create_policy, register_policy,
    )
    from repro.core.policies.baselines import FIFOPolicy, RandomPolicy
    from repro.core.policies.doorkeeper import DoorkeeperPolicy
    from repro.core.policies.gds import GreedyDualSizePolicy
    from repro.core.policies.greedy_dual import GreedyDualPolicy
    from repro.core.policies.histogram import FunctionHistogram, HistogramPolicy
    from repro.core.policies.hyperbolic import HyperbolicPolicy
    from repro.core.policies.landlord import LandlordPolicy
    from repro.core.policies.lfu import LFUPolicy
    from repro.core.policies.lru import LRUPolicy
    from repro.core.policies.lruk import LRUKPolicy
    from repro.core.policies.oracle import CostAwareOraclePolicy, OraclePolicy
    from repro.core.policies.size import SizePolicy
    from repro.core.policies.slru import SegmentedLRUPolicy
    from repro.core.policies.ttl import OPENWHISK_DEFAULT_TTL_S, TTLPolicy

__all__ = [
    "KeepAlivePolicy", "PrewarmRequest", "available_policies", "create_policy", "register_policy",
    "PAPER_POLICIES", "EXTENDED_POLICIES", "PARAMETRIC_POLICIES",
    "ARCPolicy", "FIFOPolicy", "RandomPolicy", "DoorkeeperPolicy", "GreedyDualSizePolicy",
    "GreedyDualPolicy", "FunctionHistogram", "HistogramPolicy", "HyperbolicPolicy",
    "LandlordPolicy", "LFUPolicy", "LRUPolicy", "LRUKPolicy", "CostAwareOraclePolicy",
    "OraclePolicy", "SizePolicy", "SegmentedLRUPolicy", "OPENWHISK_DEFAULT_TTL_S", "TTLPolicy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "EXTENDED_POLICIES PAPER_POLICIES PARAMETRIC_POLICIES KeepAlivePolicy PrewarmRequest "
        "available_policies create_policy register_policy"
    ),
    "arc": "ARCPolicy", "baselines": "FIFOPolicy RandomPolicy", "doorkeeper": "DoorkeeperPolicy",
    "gds": "GreedyDualSizePolicy", "greedy_dual": "GreedyDualPolicy",
    "histogram": "FunctionHistogram HistogramPolicy", "hyperbolic": "HyperbolicPolicy",
    "landlord": "LandlordPolicy", "lfu": "LFUPolicy", "lru": "LRUPolicy", "lruk": "LRUKPolicy",
    "oracle": "CostAwareOraclePolicy OraclePolicy", "size": "SizePolicy",
    "slru": "SegmentedLRUPolicy", "ttl": "OPENWHISK_DEFAULT_TTL_S TTLPolicy",
})
