"""Deterministic retry policy: capped exponential backoff with jitter.

Classic recovery machinery (AWS-style ``base * 2**n`` capped backoff
with jitter) made replayable: the jitter for a given retry is a hash of
the seed and the retry's identity — function, retry number, and the
failing attempt's time — not a shared RNG draw, so a retried sweep
cell schedules every retry at exactly the same simulated instant as
the original run.

Budgets bound the recovery work twice over:

* ``max_retries`` caps attempts per invocation (then the invocation is
  shed);
* ``per_function_retry_budget`` caps total retries one function may
  consume across a run, so a persistently failing function degrades to
  immediate shedding instead of monopolizing the retry queue.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.domains import check_args, declared_fields
from repro.faults.model import FaultSpec, UniformDraws, _pack_key, _pack_str

__all__ = ["RetryPolicy"]

_JITTER = _pack_str("jitter")
_SPEC_DOMAINS = dict(declared_fields(FaultSpec))


class RetryPolicy:
    """Decides whether — and when — a failed attempt runs again."""

    #: The domains :class:`FaultSpec` declares for the same knobs.
    domains = {
        **{name: _SPEC_DOMAINS[name] for name in ("max_retries", "base_delay_s", "max_delay_s")},
        "jitter": _SPEC_DOMAINS["jitter"],
        "per_function_budget": _SPEC_DOMAINS["per_function_retry_budget"],
    }

    def __init__(
        self,
        max_retries: int = 3,
        base_delay_s: float = 1.0,
        max_delay_s: float = 60.0,
        jitter: float = 0.5,
        per_function_budget: int = 100,
        seed: int = 0,
    ) -> None:
        check_args(self.domains, locals())
        if max_delay_s < base_delay_s:
            raise ValueError(f"need base_delay_s <= max_delay_s, got {base_delay_s}/{max_delay_s}")
        self.max_retries = max_retries
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.per_function_budget = per_function_budget
        self.seed = seed
        self._u01 = UniformDraws(seed)
        self._budget_used: Dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: FaultSpec) -> "RetryPolicy":
        return cls(
            max_retries=spec.max_retries,
            base_delay_s=spec.base_delay_s,
            max_delay_s=spec.max_delay_s,
            jitter=spec.jitter,
            per_function_budget=spec.per_function_retry_budget,
            seed=spec.seed,
        )

    def next_delay(
        self, function_name: str, retry_number: int, failed_at_s: float
    ) -> Optional[float]:
        """The backoff before retry ``retry_number`` (1-based), or
        ``None`` when the invocation must be shed instead.

        Granting a retry consumes one unit of the function's budget;
        asking is free, so callers may probe-and-shed without charge.
        The delay is ``base * 2**(n-1)`` stretched by a deterministic
        jitter factor in ``[1 - jitter/2, 1 + jitter/2]`` keyed on the
        retry's identity, then clamped to ``max_delay_s`` — the cap is
        a hard ceiling, so the jitter stretch can never push a delay
        past it.
        """
        if retry_number < 1:
            raise ValueError(f"retry_number is 1-based, got {retry_number}")
        if retry_number > self.max_retries:
            return None
        used = self._budget_used.get(function_name, 0)
        if used >= self.per_function_budget:
            return None
        self._budget_used[function_name] = used + 1
        delay = self.base_delay_s * (2.0 ** (retry_number - 1))
        if delay > self.max_delay_s:
            delay = self.max_delay_s
        if self.jitter > 0.0:
            u = self._u01.draw(_pack_key(_JITTER, function_name, retry_number, failed_at_s))
            delay *= 1.0 + self.jitter * (u - 0.5)
            # The cap must bound the *final* delay: once the
            # exponential term saturates, upward jitter would otherwise
            # exceed max_delay_s by up to jitter/2.
            if delay > self.max_delay_s:
                delay = self.max_delay_s
        return delay

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"base={self.base_delay_s}s, cap={self.max_delay_s}s, "
            f"jitter={self.jitter})"
        )
