"""Online and offline statistics helpers shared across the library.

The paper relies on three statistical primitives:

* Welford's online algorithm [Welford 1962] for the coefficient of
  variation used by the HIST keep-alive policy (Section 7.1).
* Exponentially weighted moving averages for the arrival-rate estimate
  consumed by the proportional provisioning controller (Section 5.2).
* Empirical CDFs, which *are* the hit-ratio curves of Section 5.1
  (Equation 2: the hit ratio at cache size ``c`` is the CDF of the
  reuse-distance distribution evaluated at ``c``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "Welford",
    "EWMA",
    "EmpiricalCDF",
    "percentile",
    "mean",
]


class Welford:
    """Welford's online algorithm for mean and variance.

    Numerically stable single-pass computation; used by the HIST policy
    to maintain the coefficient of variation of a function's
    inter-arrival times without storing them all. ``count`` and ``mean``
    are plain attributes (HIST reads them on every arrival); only
    :meth:`update` and :meth:`merge` write them.

    >>> w = Welford()
    >>> for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
    ...     w.update(x)
    >>> round(w.mean, 3)
    5.0
    >>> round(w.variance, 3)
    4.571
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        delta2 = value - self.mean
        self._m2 += delta * delta2

    @property
    def variance(self) -> float:
        """Sample variance (Bessel-corrected); zero for < 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def coefficient_of_variation(self) -> float:
        """Stddev over mean; ``inf`` when the mean is zero but data varies.

        The HIST policy treats a function as *predictable* when this is
        at most 2 (Section 7.1).
        """
        if self.count < 2:
            return 0.0
        # Restructured away from a float ``== 0.0`` guard (FC007): a
        # zero denominator is exactly the non-positive case of its
        # absolute value, and the division is guarded by the same
        # quantity it divides by.
        denominator = abs(self.mean)
        if denominator <= 0.0:
            return math.inf if self._m2 > 0.0 else 0.0
        # ``stddev`` spelled out (same expression, same rounding): HIST
        # reads this once per arrival and each property hop is a frame.
        return math.sqrt(self._m2 / (self.count - 1)) / denominator

    def merge(self, other: "Welford") -> "Welford":
        """Return a new accumulator equivalent to seeing both streams."""
        merged = Welford()
        if self.count == 0:
            merged.count, merged.mean, merged._m2 = (
                other.count,
                other.mean,
                other._m2,
            )
            return merged
        if other.count == 0:
            merged.count, merged.mean, merged._m2 = (
                self.count,
                self.mean,
                self._m2,
            )
            return merged
        total = self.count + other.count
        delta = other.mean - self.mean
        merged.count = total
        merged.mean = self.mean + delta * other.count / total
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / total
        )
        return merged

    def __repr__(self) -> str:
        return (
            f"Welford(count={self.count}, mean={self.mean:.6g}, "
            f"variance={self.variance:.6g})"
        )


class EWMA:
    """Exponentially weighted moving average.

    The provisioning controller smooths the observed arrival rate with
    an EWMA before comparing against the hit-ratio-curve target
    (Section 5.2). ``alpha`` is the weight of the newest observation.
    """

    def __init__(self, alpha: float = 0.3, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._alpha = alpha
        self._value = initial
        self._count = 0 if initial is None else 1

    def update(self, value: float) -> float:
        """Fold one observation in and return the new smoothed value."""
        if self._value is None:
            self._value = float(value)
        else:
            self._value += self._alpha * (value - self._value)
        self._count += 1
        return self._value

    @property
    def value(self) -> float:
        if self._value is None:
            raise ValueError("EWMA has no observations yet")
        return self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    @property
    def count(self) -> int:
        return self._count

    def __repr__(self) -> str:
        inner = "empty" if self._value is None else f"{self._value:.6g}"
        return f"EWMA(alpha={self._alpha}, value={inner})"


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical cumulative distribution function over a sample.

    Built once from a sample; supports evaluation, inversion (quantile
    lookup), and weighted construction. Weighted construction is what
    SHARDS-style sampling needs: each retained sample carries weight
    ``1 / sampling_rate``.
    """

    values: Tuple[float, ...]
    cumulative_weights: Tuple[float, ...]
    total_weight: float

    @classmethod
    def from_samples(
        cls,
        samples: Iterable[float],
        weights: Iterable[float] | None = None,
    ) -> "EmpiricalCDF":
        pairs: List[Tuple[float, float]]
        if weights is None:
            pairs = [(float(s), 1.0) for s in samples]
        else:
            pairs = [(float(s), float(w)) for s, w in zip(samples, weights)]
        if not pairs:
            raise ValueError("cannot build a CDF from an empty sample")
        if any(w < 0 for _, w in pairs):
            raise ValueError("weights must be non-negative")
        pairs.sort(key=lambda p: p[0])
        values: List[float] = []
        cumulative: List[float] = []
        running = 0.0
        for value, weight in pairs:
            running += weight
            if values and values[-1] == value:
                cumulative[-1] = running
            else:
                values.append(value)
                cumulative.append(running)
        if running <= 0.0:
            raise ValueError("total weight must be positive")
        return cls(tuple(values), tuple(cumulative), running)

    def evaluate(self, x: float) -> float:
        """P(X <= x), in [0, 1]."""
        idx = bisect.bisect_right(self.values, x)
        if idx == 0:
            return 0.0
        return self.cumulative_weights[idx - 1] / self.total_weight

    def quantile(self, q: float) -> float:
        """Smallest sample value v with P(X <= v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        # The range check above pins q >= 0, so <= covers exactly the
        # q == 0 case without a float equality (FC007).
        if q <= 0.0:
            return self.values[0]
        target = q * self.total_weight
        idx = bisect.bisect_left(self.cumulative_weights, target)
        idx = min(idx, len(self.values) - 1)
        return self.values[idx]

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def __len__(self) -> int:
        return len(self.values)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample; ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    # q >= 0 is enforced above; <= avoids the float equality (FC007).
    if q <= 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sample."""
    if not samples:
        raise ValueError("cannot take the mean of an empty sample")
    return sum(samples) / len(samples)
