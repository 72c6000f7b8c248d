"""The KVS of the paper's simulator (section 3).

"We implemented a simulator that consists of a KVS and a request generator
... The KVS manages a fixed-size memory that implements either the LRU or
the CAMP algorithm.  Every time the request generator references a key and
the KVS reports a miss for its value, the request generator inserts the
missing key-value pair in the KVS.  This results in evictions when the size
of the incoming key-value pair is larger than the available free space."

The store owns byte accounting; the policy owns victim selection.  Optional
pieces: an admission controller (section 6 future work) and listeners (the
occupancy tracker behind Figures 6c/6d subscribes to insert/evict events).

Requests report structured :class:`~repro.cache.outcomes.Outcome` values
(``lookup``/``insert``, or ``access`` — the simulator's
lookup-and-insert-on-miss as one call), carry first-class TTLs
(``expire_at`` on :class:`CacheItem`, lazily reclaimed on lookup), and can
be batched (``lookup_many``/``insert_many`` drive the policy under a
single ``bulk()`` lock acquisition).  Callers normally go through
:class:`repro.cache.store.Store`.
"""

from __future__ import annotations

import time
from dataclasses import replace as dataclass_replace
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Protocol, Tuple, Union)

from repro.cache.outcomes import Outcome
from repro.core.admission import AdmissionController
from repro.core.policy import CacheItem, EvictionPolicy
from repro.errors import ConfigurationError, EvictionError

__all__ = ["KVS", "CacheListener"]

Number = Union[int, float]

#: (key, size, cost) or (key, size, cost, ttl) — the insert_many row shape
PutEntry = Union[Tuple[str, int, Number], Tuple[str, int, Number,
                                                Optional[float]]]


class CacheListener(Protocol):
    """Observer of residency changes (used by metrics/occupancy trackers)."""

    def on_insert(self, item: CacheItem) -> None: ...

    def on_evict(self, item: CacheItem, explicit: bool) -> None: ...


class KVS:
    """A fixed-capacity key-value store with a pluggable eviction policy."""

    #: values live with the caller (Store memoizes them), not in here
    stores_values = False

    def __init__(self,
                 capacity: int,
                 policy: EvictionPolicy,
                 admission: Optional[AdmissionController] = None,
                 item_overhead: int = 0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        """``capacity`` is in bytes.  ``item_overhead`` is charged on top of
        every value's size (per-item metadata, like Twemcache's header).
        ``clock`` feeds TTL expiry and is injectable for deterministic
        tests (defaults to ``time.monotonic``)."""
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if item_overhead < 0:
            raise ConfigurationError(
                f"item_overhead must be >= 0, got {item_overhead}")
        self._capacity = capacity
        self._policy = policy
        self._admission = admission
        self._overhead = item_overhead
        self._clock = clock if clock is not None else time.monotonic
        # a policy on the base capacity rules lets access() evict inline:
        # fits is "size <= capacity", wants_eviction is "free < size"
        kind = type(policy)
        self._base_capacity_rules = (
            kind.fits is EvictionPolicy.fits
            and kind.wants_eviction is EvictionPolicy.wants_eviction)
        self._items: Dict[str, CacheItem] = {}
        self._used = 0
        self._listeners: List[CacheListener] = []
        # counters
        self._rejected_too_large = 0
        self._rejected_admission = 0
        self._evictions = 0
        self._expired = 0

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_listener(self, listener: CacheListener) -> None:
        """Subscribe; listeners are notified in registration order."""
        self._listeners.append(listener)

    def _notify_insert(self, item: CacheItem) -> None:
        for listener in self._listeners:
            listener.on_insert(item)

    def _notify_evict(self, item: CacheItem, explicit: bool) -> None:
        for listener in self._listeners:
            listener.on_evict(item, explicit)

    def _notify_touch(self, item: CacheItem) -> None:
        """TTL reset on a live key.  ``on_touch`` is an *optional* hook —
        only durability listeners care, so the protocol keeps it off the
        required surface and dispatch skips listeners without it."""
        for listener in self._listeners:
            on_touch = getattr(listener, "on_touch", None)
            if on_touch is not None:
                on_touch(item)

    # ------------------------------------------------------------------
    # the structured request interface
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Outcome:
        """Look up a key: HIT, MISS, or EXPIRED (entry lazily reclaimed).

        Hits refresh the policy (and admission-history) state.  Expired
        entries are removed like an explicit delete — *not* like a
        capacity eviction — so pressure-driven listeners (ghost caches)
        do not mistake lifecycle expiry for memory pressure.  The clock
        is read only for a resident item that carries an expiry.
        """
        return self._lookup_one(self._policy, key)

    def _lookup_one(self, policy: EvictionPolicy, key: str) -> Outcome:
        item = self._items.get(key)
        if item is None:
            return Outcome.MISS
        expire_at = item.expire_at
        if expire_at and self._clock() >= expire_at:
            self._drop(policy, item, explicit=True)
            self._expired += 1
            return Outcome.EXPIRED
        policy.on_hit(key)
        if self._admission is not None:
            self._admission.on_access(key)
        return Outcome.HIT

    def access(self, key: str, size: int, cost: Number,
               ttl: Optional[float] = None) -> Outcome:
        """:meth:`lookup`, then :meth:`insert` unless it hit — one call.

        Returns HIT, or what happened to the insert (an expired entry is
        reclaimed first, as ``lookup`` does).  Probes the item table
        once.  With no listeners, no admission controller, no ``ttl``
        and a policy on the base capacity rules, the insert runs inline:
        one oversize check, then evict until the pair fits.  Anything
        else takes the general insert path.
        """
        items = self._items
        policy = self._policy
        item = items.get(key)
        if item is not None:
            expire_at = item.expire_at
            if not expire_at or self._clock() < expire_at:
                policy.on_hit(key)
                if self._admission is not None:
                    self._admission.on_access(key)
                return Outcome.HIT
            self._drop(policy, item, explicit=True)
            self._expired += 1
        if (ttl or self._listeners or self._admission is not None
                or not self._base_capacity_rules):
            return self._insert_one(policy, key, size, cost, ttl)
        charged = size + self._overhead
        # built before the checks, so bad input raises as insert() does
        item = CacheItem(key, charged, cost)
        capacity = self._capacity
        if charged > capacity:
            self._rejected_too_large += 1
            return Outcome.MISS_REJECTED_TOO_LARGE
        # the policy is never empty here while bytes are short: with the
        # base fits rule an empty policy means used == 0 <= capacity - charged
        while capacity - self._used < charged:
            self._used -= items.pop(policy.pop_victim(item)).size
            self._evictions += 1
        policy.on_insert(key, charged, cost)
        items[key] = item
        self._used += charged
        return Outcome.MISS_INSERTED

    def insert(self, key: str, size: int, cost: Number,
               ttl: Optional[float] = None) -> Outcome:
        """Insert a computed value (the request generator's insert-on-miss).

        Returns MISS_INSERTED when the pair became resident, or a
        rejection outcome when it can never fit / the admission
        controller declines.  Overwrites replace the resident copy —
        but a *rejected* replacement leaves the old copy untouched
        rather than silently dropping it.  ``ttl`` is seconds until
        expiry on this store's clock (None or 0 = never).
        """
        return self._insert_one(self._policy, key, size, cost, ttl)

    def _insert_one(self, policy: EvictionPolicy, key: str, size: int,
                    cost: Number, ttl: Optional[float]) -> Outcome:
        charged = size + self._overhead
        expire_at = self._clock() + ttl if ttl else 0.0
        item = CacheItem(key, charged, cost, expire_at)
        # Admissibility is decided *before* any resident copy is removed,
        # so a rejected replacement cannot lose the old value.
        if charged > self._capacity or not policy.fits(item, self._capacity):
            self._rejected_too_large += 1
            return Outcome.MISS_REJECTED_TOO_LARGE
        if self._admission is not None and not self._admission.admit(
                key, size, cost):
            self._rejected_admission += 1
            return Outcome.MISS_REJECTED_ADMISSION
        items = self._items
        listeners = self._listeners
        existing = items.pop(key, None)
        if existing is not None:
            policy.on_remove(key)
            self._used -= existing.size
            if listeners:
                self._notify_evict(existing, explicit=True)
        while policy.wants_eviction(item, self._capacity - self._used):
            if not len(policy):
                # nothing left to evict yet still no room: give up
                self._rejected_too_large += 1
                return Outcome.MISS_REJECTED_TOO_LARGE
            victim_key = policy.pop_victim(item)
            victim = items.pop(victim_key)
            self._used -= victim.size
            self._evictions += 1
            if listeners:
                self._notify_evict(victim, explicit=False)
        policy.on_insert(key, charged, cost)
        items[key] = item
        self._used += charged
        if listeners:
            self._notify_insert(item)
        return Outcome.MISS_INSERTED

    def touch(self, key: str, ttl: Optional[float] = None) -> bool:
        """Reset a live key's expiry (None or 0 = never); True when live."""
        item = self._items.get(key)
        if item is None:
            return False
        now = self._clock()
        if item.expire_at != 0 and now >= item.expire_at:
            self._drop(self._policy, item, explicit=True)
            self._expired += 1
            return False
        expire_at = now + ttl if ttl else 0.0
        refreshed = dataclass_replace(item, expire_at=expire_at)
        self._items[key] = refreshed
        self._notify_touch(refreshed)
        return True

    def peek(self, key: str) -> Optional[CacheItem]:
        """The resident item's metadata without refreshing policy state.

        Expired-but-unreclaimed entries are reported as absent.
        """
        item = self._items.get(key)
        if item is None:
            return None
        if item.expire_at != 0 and self._clock() >= item.expire_at:
            return None
        return item

    def purge_expired(self, limit: Optional[int] = None) -> int:
        """Eagerly reclaim expired entries (all, or at most ``limit``)."""
        now = self._clock()
        lapsed = [item for item in self._items.values()
                  if item.expire_at != 0 and now >= item.expire_at]
        if limit is not None:
            lapsed = lapsed[:limit]
        for item in lapsed:
            self._drop(self._policy, item, explicit=True)
            self._expired += 1
        return len(lapsed)

    # ------------------------------------------------------------------
    # batched requests — one policy lock acquisition per batch
    # ------------------------------------------------------------------
    def lookup_many(self, keys: Iterable[str]) -> List[Outcome]:
        """Batched :meth:`lookup`: same per-key semantics, driven through
        the policy's ``bulk()`` handle so thread-safe wrappers lock once
        for the whole batch."""
        outcomes: List[Outcome] = []
        append = outcomes.append
        with self._policy.bulk() as policy:
            lookup_one = self._lookup_one
            for key in keys:
                append(lookup_one(policy, key))
        return outcomes

    def insert_many(self, entries: Iterable[PutEntry]) -> List[Outcome]:
        """Batched :meth:`insert` over (key, size, cost[, ttl]) rows.

        Exactly equivalent to sequential inserts — same residency, same
        evictions — just cheaper under a thread-safe policy wrapper.
        """
        outcomes: List[Outcome] = []
        append = outcomes.append
        with self._policy.bulk() as policy:
            insert_one = self._insert_one
            for entry in entries:
                key, size, cost = entry[0], entry[1], entry[2]
                ttl = entry[3] if len(entry) > 3 else None
                append(insert_one(policy, key, size, cost, ttl))
        return outcomes

    # ------------------------------------------------------------------
    # resizing / removal
    # ------------------------------------------------------------------
    def resize(self, new_capacity: int) -> List[CacheItem]:
        """Change the byte budget at runtime; returns the items evicted.

        Growing simply raises the ceiling.  Shrinking evicts through the
        policy until the resident set fits the new budget, notifying
        listeners exactly like demand evictions (``explicit=False``) —
        this is the primitive the tenancy arbiter uses to move bytes
        between partitions.
        """
        if new_capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {new_capacity}")
        self._capacity = new_capacity
        evicted: List[CacheItem] = []
        while self._used > self._capacity:
            if not len(self._policy):
                raise EvictionError(
                    "resize cannot reclaim space: policy is empty but "
                    "bytes are still accounted")
            victim_key = self._policy.pop_victim()
            victim = self._items.pop(victim_key)
            self._used -= victim.size
            self._evictions += 1
            evicted.append(victim)
            self._notify_evict(victim, explicit=False)
        return evicted

    def restore(self, items: Union[Iterable[CacheItem],
                                   Mapping[str, CacheItem]],
                policy_state: Dict[str, object]) -> List[CacheItem]:
        """Install a durable snapshot into this (empty) store.

        The policy state is imported first — it must list exactly the
        snapshot's items — then the items are installed verbatim (sizes
        are already overhead-charged; expiry rebasing is the snapshot
        layer's job) and listeners see each as an insert.  ``items`` is
        an iterable of items, or a key -> item mapping that may fill while
        the policy takes its rows (the snapshot decoder's single pass,
        :class:`~repro.persistence.snapshot.SnapshotReader`); a mapping is
        adopted as it stands.  If the snapshot was taken at a larger
        capacity than this store now has, the policy evicts down to fit;
        the evicted items are returned so the caller can account for them.

        A corrupt record met by the decoder raises out of the policy's
        import, which is all or nothing, so the store and its policy are
        left empty and another snapshot can be restored into them.
        """
        if self._items:
            raise ConfigurationError(
                f"restore requires an empty store; {len(self._items)} "
                f"items are resident")
        self._policy.import_state(policy_state)
        table = self._items
        if isinstance(items, Mapping):
            table.update(items)
            self._used = sum(map(attrgetter("size"), table.values()))
        else:
            for item in items:
                if item.key in table:
                    raise ConfigurationError(
                        f"snapshot lists {item.key!r} twice")
                table[item.key] = item
                self._used += item.size
        if len(self._policy) != len(table):
            raise ConfigurationError(
                "snapshot policy state disagrees with its item set")
        if self._listeners:
            for item in table.values():
                self._notify_insert(item)
        evicted: List[CacheItem] = []
        while self._used > self._capacity:
            victim_key = self._policy.pop_victim()
            victim = self._items.pop(victim_key)
            self._used -= victim.size
            self._evictions += 1
            evicted.append(victim)
            self._notify_evict(victim, explicit=False)
        return evicted

    def delete(self, key: str) -> bool:
        """Explicitly remove a key; True when it was resident."""
        item = self._items.pop(key, None)
        if item is None:
            return False
        self._policy.on_remove(key)
        self._used -= item.size
        self._notify_evict(item, explicit=True)
        return True

    def _drop(self, policy: EvictionPolicy, item: CacheItem,
              explicit: bool) -> None:
        """Remove a known-resident item through the given policy handle."""
        self._items.pop(item.key, None)
        policy.on_remove(item.key)
        self._used -= item.size
        if self._listeners:
            self._notify_evict(item, explicit=explicit)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self._capacity - self._used

    @property
    def policy(self) -> EvictionPolicy:
        return self._policy

    @property
    def item_overhead(self) -> int:
        """Bytes charged per item on top of its value size."""
        return self._overhead

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    @property
    def eviction_count(self) -> int:
        return self._evictions

    @property
    def rejected_too_large(self) -> int:
        return self._rejected_too_large

    @property
    def rejected_admission(self) -> int:
        return self._rejected_admission

    @property
    def expired_count(self) -> int:
        """Entries reclaimed because their TTL lapsed."""
        return self._expired

    def stats(self) -> Dict[str, Number]:
        return {
            "items": len(self._items),
            "capacity": self._capacity,
            "used_bytes": self._used,
            "evictions": self._evictions,
            "rejected_too_large": self._rejected_too_large,
            "rejected_admission": self._rejected_admission,
            "expired": self._expired,
        }

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def resident_items(self) -> Iterable[CacheItem]:
        return self._items.values()

    def resident_keys(self) -> Iterable[str]:
        return self._items.keys()

    def check_consistency(self) -> None:
        """Verify byte accounting and store/policy agreement (test hook)."""
        if sum(item.size for item in self._items.values()) != self._used:
            raise EvictionError("byte accounting out of sync")
        if self._used > self._capacity:
            raise EvictionError("capacity exceeded")
        if len(self._policy) != len(self._items):
            raise EvictionError("policy and store disagree on residency")
        for key in self._items:
            if key not in self._policy:
                raise EvictionError(f"policy lost track of {key!r}")
