"""CAMP's integer rounding scheme (paper section 2, Table 1, Props 2-3).

Two pieces live here:

1. :func:`round_to_precision` — the Matias/Sahinalp/Young rounding that
   keeps only the ``p`` most significant bits of a positive integer.  Unlike
   truncating a fixed number of low-order bits, the amount of rounding is
   proportional to the magnitude of the value, so values of different orders
   of magnitude always stay distinct (Table 1 of the paper).

2. :class:`RatioConverter` — the adaptive fraction-to-integer conversion.
   Cost-to-size ratios can be < 1; rounding them to integers directly would
   destroy ordering information.  The paper divides each ratio by a lower
   bound on the smallest possible ratio — ``1 / max item size`` — i.e.
   multiplies by the largest size seen so far.  The running maximum is
   learned adaptively; when it grows, already-resident items are *not*
   re-rounded, but all future conversions use the new multiplier.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.errors import ConfigurationError

__all__ = [
    "round_to_precision",
    "regular_rounding",
    "epsilon_for_precision",
    "precision_for_epsilon",
    "distinct_value_bound",
    "RatioConverter",
]

Number = Union[int, float]


def round_to_precision(x: int, precision: Optional[int]) -> int:
    """Keep the ``precision`` most significant bits of ``x`` (>= 0).

    Let ``b`` be the position of the highest non-zero bit of ``x``.  All
    bits below position ``b - precision + 1`` are zeroed; if ``b <=
    precision`` the value is returned unchanged.  ``precision=None`` means
    infinite precision (no rounding) and corresponds to the GDS-equivalent
    configuration in the paper's Figure 5a.

    The result ``x̄`` satisfies ``x̄ <= x <= (1 + ε) x̄`` with
    ``ε = 2**(1 - precision)`` (Proposition 3).
    """
    if x < 0:
        raise ConfigurationError(f"cannot round negative value {x}")
    if precision is None:
        return x
    if precision < 1:
        raise ConfigurationError(f"precision must be >= 1, got {precision}")
    b = x.bit_length()
    if b <= precision:
        return x
    drop = b - precision
    return (x >> drop) << drop


def regular_rounding(x: int, precision: int) -> int:
    """Zero the ``precision`` low-order bits regardless of magnitude.

    The *wrong* scheme from Table 1 (left column), kept for the rounding
    ablation benchmark: it keeps too much information for large values and
    collapses small values to zero.
    """
    if x < 0:
        raise ConfigurationError(f"cannot round negative value {x}")
    if precision < 0:
        raise ConfigurationError(f"precision must be >= 0, got {precision}")
    return (x >> precision) << precision


def epsilon_for_precision(precision: int) -> float:
    """The approximation factor ε = 2**(1-p) of Proposition 3."""
    if precision < 1:
        raise ConfigurationError(f"precision must be >= 1, got {precision}")
    return 2.0 ** (1 - precision)


def precision_for_epsilon(epsilon: float) -> int:
    """Smallest precision whose ε = 2**(1-p) is <= ``epsilon``."""
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    return max(1, 1 + math.ceil(-math.log2(epsilon)))


def distinct_value_bound(upper: int, precision: int) -> int:
    """Proposition 2: rounded values of 1..U number at most
    ``(ceil(log2(U+1)) - p + 1) * 2**p``.

    This bounds the number of LRU queues CAMP can ever create for ratios
    drawn from ``1..upper``.
    """
    if upper < 1:
        raise ConfigurationError(f"upper bound must be >= 1, got {upper}")
    if precision < 1:
        raise ConfigurationError(f"precision must be >= 1, got {precision}")
    bits = math.ceil(math.log2(upper + 1))
    return max(bits - precision + 1, 1) * (2 ** precision)


class RatioConverter:
    """Adaptive conversion of cost/size ratios to positive integers.

    ``to_integer(cost, size)`` returns ``round(cost * multiplier / size)``
    clamped to at least 1, where ``multiplier`` is the largest item size
    observed so far (the reciprocal of the paper's lower-bound estimate for
    the smallest possible ratio).  Integer inputs are converted with exact
    integer arithmetic (round-half-up), so eviction priorities never suffer
    float drift.
    """

    __slots__ = ("_max_size",)

    def __init__(self, initial_max_size: int = 1) -> None:
        if initial_max_size < 1:
            raise ConfigurationError(
                f"initial max size must be >= 1, got {initial_max_size}")
        self._max_size = initial_max_size

    @property
    def multiplier(self) -> int:
        """The current multiplier (largest size observed)."""
        return self._max_size

    @multiplier.setter
    def multiplier(self, value: int) -> None:
        """Set the multiplier exactly — a restored snapshot's, which may be
        smaller than the largest size this converter has observed."""
        self._max_size = self.checked_multiplier(value)

    @staticmethod
    def checked_multiplier(value: object) -> int:
        """``value`` as a multiplier, or :class:`ConfigurationError` when it
        is below 1 (importers check before they change anything)."""
        multiplier = int(value)
        if multiplier < 1:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {value!r}")
        return multiplier

    def observe(self, size: int) -> bool:
        """Record an item size; returns True if the multiplier grew."""
        if size < 1:
            raise ConfigurationError(f"item size must be >= 1, got {size}")
        if size > self._max_size:
            self._max_size = size
            return True
        return False

    def to_integer(self, cost: Number, size: int) -> int:
        """Convert ``cost/size`` to a positive integer at current precision."""
        if size < 1:
            raise ConfigurationError(f"item size must be >= 1, got {size}")
        if cost < 0:
            raise ConfigurationError(f"cost must be >= 0, got {cost}")
        if isinstance(cost, int):
            # exact round-half-up of cost * multiplier / size
            num = cost * self._max_size
            value = (2 * num + size) // (2 * size)
        else:
            value = round(cost * self._max_size / size)
        return max(1, int(value))
