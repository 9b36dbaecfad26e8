"""The domain of every numeric knob, declared once, beside the knob.

A domain is one predicate (:meth:`Domain.holds`) and one phrase, which
words both a refusal's ``ValueError`` and the CLI's ``expected …``
usage error. NaN, a bool and a non-number are in no domain; ``inf`` only
in one widened by :attr:`Domain.or_inf`, whose declaration says what it
means. A dataclass declares a field with :func:`knob` and checks it
with :func:`check_fields`; a constructor checks its ``domains`` with
:func:`check_args`. Cross-field rules stay where they are written, and
per-arrival checks keep their inline form: this runs at construction.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from math import inf
from operator import attrgetter
from typing import Any, Callable, Mapping, NoReturn, Tuple

__all__ = [
    "Domain", "positive", "nonneg", "finite", "probability", "int_at_least",
    "knob", "declared_fields", "check_fields", "check_args",
]


class Domain:
    """The numbers from ``low`` to ``high``, each end closed unless its
    ``*_open`` flag is set; with ``integer``, the integers among them."""

    __slots__ = ("low", "high", "low_open", "high_open", "integer", "phrase")

    def __init__(
        self, low: float, high: float, *, low_open: bool = False,
        high_open: bool = False, integer: bool = False,
    ) -> None:
        self.low, self.high = low, high
        self.low_open, self.high_open, self.integer = low_open, high_open, integer
        if integer:
            self.phrase = f"an integer >= {low:g}"
        elif -inf < low and high < inf:
            ends = ("(" if low_open else "[", ")" if high_open else "]")
            self.phrase = f"a number in {ends[0]}{low:g}, {high:g}{ends[1]}"
        else:
            bound = f" {'>' if low_open else '>='} {low:g}" if low > -inf else ""
            tail = "" if high_open else " or inf" if bound else " or ±inf"
            self.phrase = f"a {'finite ' if high_open else ''}number{bound}{tail}"

    def holds(self, value: Any) -> bool:
        """Whether ``value`` is in this domain: comparisons NaN fails."""
        kind = type(value)
        if kind is bool or (self.integer and kind is not int and not hasattr(kind, "__index__")):
            return False
        try:
            if not (self.low < value if self.low_open else self.low <= value):
                return False
            return bool(value < self.high if self.high_open else value <= self.high)
        except TypeError:  # not a number
            return False

    def check(self, name: str, value: Any) -> None:
        """Refuse (``ValueError``) a ``value`` of ``name`` outside this domain."""
        if not self.holds(value):
            _refuse(name, self, value)

    @property
    def or_inf(self) -> Domain:
        """This domain with its infinite ends in it."""
        return Domain(
            self.low, self.high, low_open=self.low_open and self.low > -inf,
            high_open=self.high_open and self.high < inf, integer=self.integer,
        )


positive = Domain(0.0, inf, low_open=True, high_open=True)
nonneg = Domain(0.0, inf, high_open=True)
finite = Domain(-inf, inf, low_open=True, high_open=True)
probability = Domain(0.0, 1.0)


def int_at_least(n: int) -> Domain:
    return Domain(n, inf, high_open=True, integer=True)


def knob(domain: Domain, default: Any = dataclasses.MISSING) -> Any:
    """A dataclass field (with ``default``, if given) in ``domain``."""
    return dataclasses.field(default=default, metadata={"domain": domain})


def declared_fields(cls: Any) -> Tuple[Tuple[str, Domain], ...]:
    """``(name, domain)`` of each field of ``cls`` that :func:`knob` declared."""
    fields = dataclasses.fields(cls)
    return tuple((f.name, f.metadata["domain"]) for f in fields if "domain" in f.metadata)


@lru_cache(maxsize=None)
def _declared(cls: Any) -> Tuple[Tuple[Tuple[str, Domain], ...], Callable[[Any], Any]]:
    """``cls``'s declared fields and a getter of their values as a tuple (not
    ``obj.__dict__``: it moves an instance off CPython's fast attribute path)."""
    declared = declared_fields(cls)
    return declared, attrgetter(*[name for name, __ in declared], declared[0][0])


def check_fields(obj: Any, prefix: str = "") -> None:
    """Refuse the first declared field of the dataclass ``obj`` outside
    its domain; ``prefix`` leads the message."""
    declared, values_of = _declared(type(obj))
    for (name, domain), value in zip(declared, values_of(obj)):
        if not domain.holds(value):
            _refuse(prefix + name, domain, value)


def check_args(domains: Mapping[str, Domain], args: Mapping[str, Any]) -> None:
    """Refuse the first of ``args`` (a constructor's ``locals()``) that
    ``domains`` declares and that is outside it."""
    for name, domain in domains.items():
        if not domain.holds(args[name]):
            _refuse(name, domain, args[name])


def _refuse(name: str, domain: Domain, value: Any) -> NoReturn:
    raise ValueError(f"{name} must be {domain.phrase}, got {value!r}")
