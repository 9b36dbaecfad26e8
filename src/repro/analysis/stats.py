"""Online and offline statistics helpers shared across the library.

The paper relies on two statistical primitives:

* Welford's online algorithm [Welford 1962] for the coefficient of
  variation used by the HIST keep-alive policy (Section 7.1).
* Exponentially weighted moving averages for the arrival-rate estimate
  consumed by the proportional provisioning controller (Section 5.2).

(The hit-ratio curves of Section 5.1 are empirical CDFs of reuse
distances: :class:`~repro.provisioning.hit_ratio.HitRatioCurve`.)
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.domains import Domain

__all__ = [
    "Welford",
    "EWMA",
    "percentile",
    "mean",
]


class Welford:
    """Welford's online algorithm for mean and variance.

    Numerically stable single-pass computation. HIST keeps the same sums
    in its histogram (:mod:`repro.core.policies.histogram`), updated with
    :meth:`update`'s expressions, and the executable specification checks
    its CoV with this class. ``count`` and ``mean`` are plain attributes;
    only :meth:`update` and :meth:`merge` write them.

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
        # The standard deviation spelled out, as HIST's inline copy
        # spells it.
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
        Domain(0.0, 1.0, low_open=True).check("alpha", alpha)
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
    def count(self) -> int:
        return self._count

    def __repr__(self) -> str:
        inner = "empty" if self._value is None else f"{self._value:.6g}"
        return f"EWMA(alpha={self._alpha}, value={inner})"


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample; ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("cannot take a percentile of an empty sample")
    Domain(0.0, 100.0).check("q", q)
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
