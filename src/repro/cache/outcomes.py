"""Structured request outcomes shared by :class:`KVS` and :class:`Store`.

The paper's KVS contract is "lookup, and on a miss recompute at cost(p)
and insert".  Bare booleans flatten that contract: a ``False`` from
``put`` cannot say *why* the pair is not resident (too large for the
store?  declined by the admission controller?), and a ``False`` from
``get`` cannot distinguish a cold miss from an expired entry.  Every
request surface in the repo now reports one of these outcomes instead.

This module is deliberately tiny and import-cycle free: ``kvs`` and
``store`` both import it, ``store`` re-exports it as the public face.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

__all__ = ["Outcome", "AccessResult", "BatchResult", "Computed"]

Number = Union[int, float]


class Outcome(enum.Enum):
    """Disposition of one request against the store.

    ``HIT``/``MISS``/``EXPIRED`` describe lookups; the ``MISS_*`` values
    describe what happened to the insert-on-miss.  ``EXPIRED`` means the
    key *was* resident but its TTL had lapsed — the entry is reclaimed
    and the request counts as a miss.

    Tiered (DRAM-over-disk) stores add two dispositions: ``HIT_L2`` —
    the DRAM lookup missed, the disk tier served the pair, and it was
    promoted back into DRAM (a hit, charged the tier's discounted
    cost); ``MISS_PROMOTED`` — the disk tier served the pair but DRAM
    *declined* the promotion (admission/size), so the entry stays
    disk-resident.  Both are "served without recomputing"; only
    ``HIT_L2`` counts as a hit.
    """

    HIT = "hit"
    HIT_L2 = "hit_l2"
    MISS = "miss"
    MISS_INSERTED = "miss_inserted"
    MISS_PROMOTED = "miss_promoted"
    MISS_REJECTED_TOO_LARGE = "miss_rejected_too_large"
    MISS_REJECTED_ADMISSION = "miss_rejected_admission"
    EXPIRED = "expired"

    @property
    def is_rejection(self) -> bool:
        return self in (Outcome.MISS_REJECTED_TOO_LARGE,
                        Outcome.MISS_REJECTED_ADMISSION)

    @property
    def is_hit(self) -> bool:
        """Served from cache memory (either tier) without recomputation
        *and* resident afterwards."""
        return self in (Outcome.HIT, Outcome.HIT_L2)

    @property
    def served_from_cache(self) -> bool:
        """The request never needed the loader — a DRAM hit, a disk hit
        (promoted or not)."""
        return self in (Outcome.HIT, Outcome.HIT_L2, Outcome.MISS_PROMOTED)


@dataclass(slots=True)
class AccessResult:
    """Everything one request produced.

    ``resident`` is the key's membership *after* the call; ``expired``
    flags that the lookup found a lapsed entry (set even when the
    follow-up insert gave the final ``outcome``).  ``coalesced`` marks a
    result shared from another caller's in-flight load (single-flight
    ``get_or_compute``): this caller paid no loader invocation of its
    own.  Truthiness means HIT.
    """

    key: str
    outcome: Outcome
    size: int = 0
    cost: Number = 0.0
    value: object = None
    resident: bool = False
    expired: bool = False
    coalesced: bool = False

    @property
    def hit(self) -> bool:
        """HIT or HIT_L2 — served from cache and resident afterwards."""
        return self.outcome.is_hit

    @property
    def miss(self) -> bool:
        return not self.hit

    @property
    def served(self) -> bool:
        """No recomputation was needed — includes ``MISS_PROMOTED``
        (disk-served but not re-admitted to DRAM)."""
        return self.outcome.served_from_cache

    @property
    def rejected(self) -> bool:
        return self.outcome.is_rejection

    def __bool__(self) -> bool:
        return self.hit


@dataclass(slots=True)
class BatchResult:
    """Per-item outcomes of one ``get_many``/``put_many`` call.

    Kept lightweight on purpose — batch calls exist for throughput, so
    they return bare outcomes rather than one :class:`AccessResult`
    allocation per item.
    """

    outcomes: List[Outcome]

    def count(self, outcome: Outcome) -> int:
        return self.outcomes.count(outcome)

    @property
    def hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.is_hit)

    @property
    def misses(self) -> int:
        return len(self.outcomes) - self.hits

    @property
    def expired(self) -> int:
        return self.count(Outcome.EXPIRED)

    @property
    def inserted(self) -> int:
        return self.count(Outcome.MISS_INSERTED)

    @property
    def rejected(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.is_rejection)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self.outcomes)


@dataclass(slots=True)
class Computed:
    """A loader's explicit answer for :meth:`Store.get_or_compute`.

    Returning the bare value lets the store derive ``size`` from
    ``len(value)`` and ``cost`` from the measured recompute time;
    returning ``Computed`` overrides any of the three plus the TTL.
    """

    value: object = None
    size: Optional[int] = None
    cost: Optional[Number] = None
    ttl: Optional[float] = None
