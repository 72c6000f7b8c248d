"""Eviction-policy interface shared by CAMP and every baseline.

A policy tracks *metadata only*; memory accounting lives in
:class:`repro.cache.kvs.KVS`.  Two layers drive it:

* **key events** — hit, insert, evict, remove by key — the four abstract
  methods every policy implements (the slab engine, which keeps its own
  item table, calls these);
* **residency** — the policy owns the one *record* per resident pair
  (:attr:`EvictionPolicy.records`, a key -> record table the KVS reads
  for lookup, membership and iteration) and the KVS drives it through
  :meth:`~EvictionPolicy.admit`, :meth:`~EvictionPolicy.hit`,
  :meth:`~EvictionPolicy.evict` and :meth:`~EvictionPolicy.discard`.  A
  record is a slotted object carrying ``key``, ``size``, ``cost`` and
  ``expire_at`` (the KVS sets the last one).

The base class implements residency once, over the key events and a
plain table of :class:`Resident` records, so every policy works inside a
KVS.  CAMP and LRU override it: their own entry *is* the record, so a
hit probes one table, not two.

The store also asks :meth:`~EvictionPolicy.wants_eviction` whether space
must be reclaimed before an incoming item can be admitted.  Most policies
only need the default capacity check; Pooled LRU overrides it to enforce
its per-pool budgets (the paper's partitioned-memory baseline evicts even
when the store as a whole has free bytes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (Callable, ClassVar, ContextManager, Dict, Iterable,
                    Iterator, Optional, Sequence, Tuple, Union)

from repro.errors import ConfigurationError

__all__ = ["CacheItem", "Resident", "EvictionPolicy", "register_policy",
           "make_policy", "policy_names"]


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


class Resident:
    """The base residency layer's record of one resident pair.

    Mutable where :class:`CacheItem` is frozen: ``expire_at`` is reset in
    place by a TTL touch.  Policies that own their records (CAMP, LRU)
    carry the same four slots on their own entries instead.
    """

    __slots__ = ("key", "size", "cost", "expire_at")

    def __init__(self, key: str, size: int, cost: Union[int, float],
                 expire_at: float = 0.0) -> None:
        self.key = key
        self.size = size
        self.cost = cost
        self.expire_at = expire_at


class EvictionPolicy(ABC):
    """Chooses which resident key to evict when space is needed."""

    #: short identifier used by the registry / CLI / result tables
    name: ClassVar[str] = "abstract"

    #: the base residency layer's table, made on first use
    _residents: Optional[Dict[str, Resident]] = None

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
    # residency: one record per resident pair
    # ------------------------------------------------------------------
    # The base implementation keeps a plain key -> Resident table beside
    # whatever the policy keeps and forwards each call as a key event.  A
    # policy whose own entry can be the record overrides all of these
    # together; its key events then wrap the same bodies.  Overrides
    # must keep the table object for the policy's lifetime (clear it in
    # place, never rebind it): the KVS holds on to it.

    @property
    def records(self) -> Dict[str, Resident]:
        """The key -> record table of resident pairs.  Read it; change
        it only through the calls below."""
        table = self._residents
        if table is None:
            table = self._residents = {}
        return table

    def admit(self, key: str, size: int, cost: Union[int, float],
              expire_at: float = 0.0) -> Resident:
        """Make an absent pair resident (room already made; size >= 1 and
        cost >= 0 already checked) and return its record."""
        self.on_insert(key, size, cost)
        record = self.records[key] = Resident(key, size, cost, expire_at)
        return record

    def hit(self, record: Resident) -> None:
        """A resident pair was requested."""
        self.on_hit(record.key)

    def evict(self, incoming: Optional[CacheItem] = None) -> Resident:
        """Select a victim, forget it, and return its record
        (``incoming`` as for :meth:`pop_victim`)."""
        return self.records.pop(self.pop_victim(incoming))

    def discard(self, record: Resident) -> None:
        """A resident pair left for a reason other than eviction."""
        self.on_remove(record.key)
        del self.records[record.key]

    def import_records(self, state: Dict[str, object]) -> None:
        """:meth:`import_state`, with each row's record in :attr:`records`
        as soon as the policy has taken the row (the snapshot decoder
        probes the table for a key listed twice).  All or nothing, as
        ``import_state`` is."""
        table = self.records

        def recorded(rows: Iterable[Sequence[object]]):
            for row in rows:
                key = row[0]
                table[key] = Resident(key, row[1], row[2])
                yield row

        try:
            self.import_state({**state, "entries": recorded(
                state["entries"])})
        except BaseException:
            table.clear()
            raise

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

    def export_stream(self) -> Tuple[Dict[str, object],
                                     Iterator[Sequence[object]]]:
        """:meth:`export_state` as its scalars and an iterator over its
        ``"entries"`` rows, so a snapshot writer packs each row as it is
        made instead of holding them all.  The rows must be taken before
        the policy next changes.  The default splits :meth:`export_state`;
        a policy overrides this to yield its rows lazily."""
        state = self.export_state()
        return state, iter(state.pop("entries"))

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`export_state` on an *empty*
        policy of the same kind.  ``"entries"`` may be any iterable of
        rows, a lazy one included: take it once, in order (the snapshot
        decoder installs each pair into the store as its row is taken).
        All or nothing: when taking a row raises — the decoder met a
        corrupt record — the policy drops what it took and raises, left
        empty with its scalars as they were, so another snapshot can be
        imported into it."""
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
