"""Eviction-policy interface shared by CAMP and every baseline.

A policy tracks *metadata only*; memory accounting lives in
:class:`repro.cache.kvs.KVS`.  The store drives the policy through four
events — hit, insert, evict, remove — and asks :meth:`wants_eviction`
whether space must be reclaimed before an incoming item can be admitted.
Most policies only need the default capacity check; Pooled LRU overrides it
to enforce its per-pool budgets (the paper's partitioned-memory baseline
evicts even when the store as a whole has free bytes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (Callable, ClassVar, ContextManager, Dict, Iterator,
                    Optional, Union)

from repro.errors import ConfigurationError

__all__ = ["CacheItem", "EvictionPolicy", "register_policy", "make_policy",
           "policy_names"]


@dataclass(frozen=True, slots=True)
class CacheItem:
    """An immutable (key, size, cost) triple plus expiry metadata.

    ``size`` is in bytes; ``cost`` is the time (or any non-negative
    quantity) required to recompute the value on a miss — the paper's
    examples range from a few-millisecond RDBMS lookup to hours of machine
    learning.  ``expire_at`` is an absolute clock reading (0 = never);
    carrying it here rather than in any one engine makes TTLs visible to
    every store, listener and ghost cache uniformly.
    """

    key: str
    size: int
    cost: Union[int, float]
    expire_at: float = 0.0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError(f"item size must be >= 1, got {self.size}")
        if self.cost < 0:
            raise ConfigurationError(f"item cost must be >= 0, got {self.cost}")
        if self.expire_at < 0:
            raise ConfigurationError(
                f"item expire_at must be >= 0, got {self.expire_at}")

    def expired(self, now: float) -> bool:
        """True once ``now`` has reached a non-zero ``expire_at``."""
        return self.expire_at != 0 and now >= self.expire_at

    @property
    def ratio(self) -> float:
        """The raw cost-to-size ratio cost(p)/size(p)."""
        return self.cost / self.size


class EvictionPolicy(ABC):
    """Chooses which resident key to evict when space is needed."""

    #: short identifier used by the registry / CLI / result tables
    name: ClassVar[str] = "abstract"

    # ------------------------------------------------------------------
    # required event handlers
    # ------------------------------------------------------------------
    @abstractmethod
    def on_hit(self, key: str) -> None:
        """A resident key was requested."""

    @abstractmethod
    def on_insert(self, key: str, size: int, cost: Union[int, float]) -> None:
        """A key became resident (after any evictions were performed)."""

    @abstractmethod
    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        """Select a victim, forget it, and return its key.

        ``incoming`` describes the item whose admission triggered the
        eviction; global policies ignore it, Pooled LRU uses it to locate
        the pool that must shrink.  Raises
        :class:`~repro.errors.EvictionError` when nothing can be evicted.
        """

    @abstractmethod
    def on_remove(self, key: str) -> None:
        """A key left the store for a reason other than eviction."""

    @abstractmethod
    def __contains__(self, key: str) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    # ------------------------------------------------------------------
    # optional hooks
    # ------------------------------------------------------------------
    def wants_eviction(self, incoming: CacheItem, free_bytes: int) -> bool:
        """True while space must be reclaimed before ``incoming`` fits."""
        return free_bytes < incoming.size

    def bulk(self) -> ContextManager["EvictionPolicy"]:
        """Context manager yielding the policy handle to drive a batch.

        Plain policies yield themselves; thread-safe wrappers override
        this to take their lock *once* and yield the unwrapped inner
        policy, which is what makes ``get_many``/``put_many`` cheaper
        than looped single calls.
        """
        return nullcontext(self)

    def fits(self, incoming: CacheItem, capacity: int) -> bool:
        """False when ``incoming`` could never be cached (e.g. larger than
        the store, or than its pool in Pooled LRU)."""
        return incoming.size <= capacity

    def export_state(self) -> Dict[str, object]:
        """Serialize eviction state for a durable snapshot.

        Returns a dict of JSON-serializable scalars — its ``"policy"``
        entry names the concrete policy, others carry global clocks
        (CAMP's ``L``) — plus ``"entries"``: one ``[key, size, cost,
        *fields]`` row per resident, with a fixed number of int or float
        fields per policy, in the order :meth:`import_state` must replay
        them.  Snapshots store each row once, joined with the pair's
        item fields.  A policy of the same kind fed this dict via
        :meth:`import_state` must make *identical* future eviction
        decisions — membership, recency/priority order, and the global
        clocks all round-trip.  Policies that cannot honour that
        contract keep the default, which refuses.
        """
        raise ConfigurationError(
            f"policy {self.name!r} does not support durable state export")

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`export_state` on an *empty*
        policy of the same kind."""
        raise ConfigurationError(
            f"policy {self.name!r} does not support durable state import")

    def _check_importable(self, state: Dict[str, object]) -> None:
        """Shared import preamble: right policy kind, empty receiver."""
        kind = state.get("policy")
        if kind != self.name:
            raise ConfigurationError(
                f"cannot import {kind!r} state into a {self.name!r} policy")
        if len(self):
            raise ConfigurationError(
                f"import_state requires an empty policy; "
                f"{len(self)} keys are resident")

    def stats(self) -> Dict[str, Union[int, float]]:
        """Policy-specific counters (heap visits, queue counts, ...)."""
        return {}

    def reset_stats(self) -> None:
        """Zero the counters returned by :meth:`stats`."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} len={len(self)}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
# Factories receive the store capacity in bytes (Pooled LRU needs it for
# its pool budgets) plus free-form keyword overrides.
PolicyFactory = Callable[..., EvictionPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register a factory ``(capacity, **kwargs) -> EvictionPolicy``."""
    if name in _REGISTRY:
        raise ConfigurationError(f"policy {name!r} is already registered")
    _REGISTRY[name] = factory


def make_policy(name: str, capacity: int, **kwargs: object) -> EvictionPolicy:
    """Instantiate a registered policy for a store of ``capacity`` bytes."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(capacity, **kwargs)


def policy_names() -> Iterator[str]:
    """Names of all registered policies, sorted."""
    return iter(sorted(_REGISTRY))
