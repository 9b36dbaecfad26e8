"""SHARDS: sampled reuse-distance estimation (Section 5.1).

Computing reuse distances for an entire trace is an expensive one-time
operation — O(N·M) conventionally. The paper notes that "sampling
techniques such as SHARDS [Waldspurger et al., FAST 15] can be applied
to drastically reduce the overhead".

SHARDS (Spatially Hashed Approximate Reuse Distance Sampling) filters
the trace by *function identity*: a function is monitored iff
``hash(name) mod P < P * rate``. Reuse distances computed over the
filtered trace are then rescaled by ``1 / rate`` (each monitored
function stands in for ``1/rate`` of the population), and each sample
carries weight ``1 / rate`` when building the hit-ratio curve.

Spatial hashing is essential: sampling *invocations* independently
would break reuse sequences, while sampling *functions* preserves
every monitored function's full inter-arrival structure.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Tuple

from repro.domains import Domain
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.traces.model import Trace

__all__ = ["shards_sample_functions", "shards_reuse_distances", "shards_curve"]

_HASH_SPACE = 2**64


def _spatial_hash(name: str, seed: int) -> float:
    """Deterministic hash of a function name to [0, 1)."""
    digest = hashlib.blake2b(
        name.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") / _HASH_SPACE


def shards_sample_functions(
    trace: Trace, rate: float, seed: int = 0
) -> List[str]:
    """Function names selected by the spatial hash filter."""
    Domain(0.0, 1.0, low_open=True).check("rate", rate)
    return [
        name
        for name in trace.functions
        if _spatial_hash(name, seed) < rate
    ]


def shards_reuse_distances(
    trace: Trace, rate: float, seed: int = 0
) -> Tuple[List[float], List[float]]:
    """Estimated (distances, weights) from a SHARDS-sampled trace.

    Distances are scaled by ``1/rate``; every sample carries weight
    ``1/rate``. Infinite distances (compulsory misses of monitored
    functions) keep their infinite value and scaled weight.
    """
    selected = shards_sample_functions(trace, rate, seed)
    if not selected:
        # Returning empty lists here used to propagate a degenerate
        # (empty) hit-ratio curve into capacity planning; fail loudly
        # with the knobs the caller can actually turn.
        raise ValueError(
            f"SHARDS rate {rate} selected 0 of {len(trace.functions)} "
            f"functions in trace {trace.name!r} (seed {seed}); raise the "
            "sampling rate or try another seed"
        )
    filtered = trace.restrict(selected, name=f"{trace.name}-shards")
    scale = 1.0 / rate
    distances: List[float] = []
    weights: List[float] = []
    for distance in reuse_distances(filtered):
        if math.isinf(distance):
            distances.append(distance)
        else:
            distances.append(distance * scale)
        weights.append(scale)
    return distances, weights


def shards_curve(trace: Trace, rate: float, seed: int = 0) -> HitRatioCurve:
    """A hit-ratio curve estimated from a SHARDS sample.

    >>> from repro.traces.synth import cyclic_trace
    >>> curve = shards_curve(cyclic_trace(num_functions=32), rate=1.0)
    >>> curve.max_hit_ratio > 0.9
    True
    """
    # A zero-function sample raises inside shards_reuse_distances with
    # the rate and sampled count; anything that survives it has at
    # least one monitored function and therefore a non-empty curve.
    distances, weights = shards_reuse_distances(trace, rate, seed)
    return HitRatioCurve.from_weighted_distances(distances, weights)
