"""The KVS of the paper's simulator (section 3).

"We implemented a simulator that consists of a KVS and a request generator
... The KVS manages a fixed-size memory that implements either the LRU or
the CAMP algorithm.  Every time the request generator references a key and
the KVS reports a miss for its value, the request generator inserts the
missing key-value pair in the KVS.  This results in evictions when the size
of the incoming key-value pair is larger than the available free space."

The store owns byte accounting, TTLs, listeners and admission; the policy
owns residency and victim selection.  Each resident pair has exactly one
record, kept by the policy (:attr:`EvictionPolicy.records
<repro.core.policy.EvictionPolicy.records>`): the KVS looks keys up in
that table and drives the policy through its residency calls (``admit``,
``hit``, ``evict``, ``discard``), so it keeps no per-pair table of its
own.  Optional pieces: an admission controller (section 6 future work)
and listeners (the occupancy tracker behind Figures 6c/6d subscribes to
insert/evict events; they receive the records).

Requests report structured :class:`~repro.cache.outcomes.Outcome` values
(``lookup``/``insert``, or ``access`` — the simulator's
lookup-and-insert-on-miss as one call), carry first-class TTLs
(``expire_at`` on each record, lazily reclaimed on lookup), and can
be batched (``lookup_many``/``insert_many`` drive the policy under a
single ``bulk()`` lock acquisition).  Callers normally go through
:class:`repro.cache.store.Store`.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Protocol, Set, Tuple, Union)

from repro.cache.outcomes import Outcome
from repro.core.admission import AdmissionController
from repro.core.policy import CacheItem, EvictionPolicy, Resident
from repro.errors import ConfigurationError, EvictionError

__all__ = ["KVS", "CacheListener"]

Number = Union[int, float]

#: (key, size, cost) or (key, size, cost, ttl) — the insert_many row shape
PutEntry = Union[Tuple[str, int, Number], Tuple[str, int, Number,
                                                Optional[float]]]


class CacheListener(Protocol):
    """Observer of residency changes (used by metrics/occupancy trackers).

    ``item`` is the pair's record (``key``, ``size``, ``cost``,
    ``expire_at``); read it during the call, do not keep it — a TTL
    touch changes a live record's ``expire_at`` in place."""

    def on_insert(self, item: Resident) -> None: ...

    def on_evict(self, item: Resident, explicit: bool) -> None: ...


def _refuse(size: int, cost: Number, expire_at: float = 0.0) -> None:
    """Raise what :class:`CacheItem` raises for an invalid pair."""
    CacheItem("", size, cost, expire_at)


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
        #: the policy's key -> record table (read here, changed through it)
        self._records: Dict[str, Resident] = policy.records
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

    def _notify_insert(self, item: Resident) -> None:
        for listener in self._listeners:
            listener.on_insert(item)

    def _notify_evict(self, item: Resident, explicit: bool) -> None:
        for listener in self._listeners:
            listener.on_evict(item, explicit)

    def _notify_touch(self, item: Resident) -> None:
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
        record = self._records.get(key)
        if record is None:
            return Outcome.MISS
        expire_at = record.expire_at
        if expire_at and self._clock() >= expire_at:
            self._drop(policy, record, explicit=True)
            self._expired += 1
            return Outcome.EXPIRED
        policy.hit(record)
        if self._admission is not None:
            self._admission.on_access(key)
        return Outcome.HIT

    def access(self, key: str, size: int, cost: Number,
               ttl: Optional[float] = None) -> Outcome:
        """:meth:`lookup`, then :meth:`insert` unless it hit — one call.

        Returns HIT, or what happened to the insert (an expired entry is
        reclaimed first, as ``lookup`` does).  Probes the record table
        once.  With no listeners, no admission controller, no ``ttl``
        and a policy on the base capacity rules, the insert runs inline:
        one oversize check, then evict until the pair fits.  Anything
        else takes the general insert path.
        """
        policy = self._policy
        record = self._records.get(key)
        if record is not None:
            expire_at = record.expire_at
            if not expire_at or self._clock() < expire_at:
                policy.hit(record)
                if self._admission is not None:
                    self._admission.on_access(key)
                return Outcome.HIT
            self._drop(policy, record, explicit=True)
            self._expired += 1
        if (ttl or self._listeners or self._admission is not None
                or not self._base_capacity_rules):
            return self._insert_one(policy, key, size, cost, ttl)
        charged = size + self._overhead
        # checked before the oversize test, so bad input raises as
        # insert() does
        if charged < 1 or cost < 0:
            _refuse(charged, cost)
        capacity = self._capacity
        if charged > capacity:
            self._rejected_too_large += 1
            return Outcome.MISS_REJECTED_TOO_LARGE
        # the policy is never empty here while bytes are short: with the
        # base fits rule an empty policy means used == 0 <= capacity - charged
        used = self._used
        while capacity - used < charged:
            used -= policy.evict().size
            self._evictions += 1
        policy.admit(key, charged, cost)
        self._used = used + charged
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
        if charged < 1 or cost < 0 or expire_at < 0:
            _refuse(charged, cost, expire_at)
        capacity = self._capacity
        # a policy with its own capacity rules is asked about the incoming
        # pair; on the base rules the byte arithmetic below is the answer
        incoming = None
        if not self._base_capacity_rules:
            incoming = CacheItem(key, charged, cost, expire_at)
        # Admissibility is decided *before* any resident copy is removed,
        # so a rejected replacement cannot lose the old value.
        if charged > capacity or (incoming is not None
                                  and not policy.fits(incoming, capacity)):
            self._rejected_too_large += 1
            return Outcome.MISS_REJECTED_TOO_LARGE
        if self._admission is not None and not self._admission.admit(
                key, size, cost):
            self._rejected_admission += 1
            return Outcome.MISS_REJECTED_ADMISSION
        records = self._records
        listeners = self._listeners
        existing = records.get(key)
        if existing is not None:
            policy.discard(existing)
            self._used -= existing.size
            if listeners:
                self._notify_evict(existing, explicit=True)
        while (capacity - self._used < charged if incoming is None
               else policy.wants_eviction(incoming, capacity - self._used)):
            if not records:
                # nothing left to evict yet still no room: give up
                self._rejected_too_large += 1
                return Outcome.MISS_REJECTED_TOO_LARGE
            victim = policy.evict(incoming)
            self._used -= victim.size
            self._evictions += 1
            if listeners:
                self._notify_evict(victim, explicit=False)
        record = policy.admit(key, charged, cost, expire_at)
        self._used += charged
        if listeners:
            self._notify_insert(record)
        return Outcome.MISS_INSERTED

    def touch(self, key: str, ttl: Optional[float] = None) -> bool:
        """Reset a live key's expiry (None or 0 = never); True when live."""
        record = self._records.get(key)
        if record is None:
            return False
        now = self._clock()
        if record.expire_at != 0 and now >= record.expire_at:
            self._drop(self._policy, record, explicit=True)
            self._expired += 1
            return False
        record.expire_at = now + ttl if ttl else 0.0
        self._notify_touch(record)
        return True

    def peek(self, key: str) -> Optional[CacheItem]:
        """The resident pair's metadata without refreshing policy state.

        Expired-but-unreclaimed entries are reported as absent.
        """
        record = self._records.get(key)
        if record is None:
            return None
        expire_at = record.expire_at
        if expire_at != 0 and self._clock() >= expire_at:
            return None
        return CacheItem(key, record.size, record.cost, expire_at)

    def purge_expired(self, limit: Optional[int] = None) -> int:
        """Eagerly reclaim expired entries (all, or at most ``limit``)."""
        now = self._clock()
        lapsed = [record for record in self._records.values()
                  if record.expire_at != 0 and now >= record.expire_at]
        if limit is not None:
            lapsed = lapsed[:limit]
        for record in lapsed:
            self._drop(self._policy, record, explicit=True)
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
    def resize(self, new_capacity: int) -> List[Resident]:
        """Change the byte budget at runtime; returns the records evicted.

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
        return self._evict_to_capacity()

    def _evict_to_capacity(self) -> List[Resident]:
        evicted: List[Resident] = []
        while self._used > self._capacity:
            if not self._records:
                raise EvictionError(
                    "cannot reclaim space: policy is empty but bytes are "
                    "still accounted")
            victim = self._policy.evict()
            self._used -= victim.size
            self._evictions += 1
            evicted.append(victim)
            self._notify_evict(victim, explicit=False)
        return evicted

    def restore(self, expiries: Union[Iterable[CacheItem],
                                      Mapping[str, float]],
                policy_state: Dict[str, object]) -> List[Resident]:
        """Install a durable snapshot into this (empty) store.

        The policy imports its state, which makes the records (sizes are
        already overhead-charged); then each record gets its expiry
        (rebasing is the snapshot layer's job) and listeners see each as
        an insert.  ``expiries`` says them: an iterable of
        :class:`CacheItem` listing exactly the snapshot's pairs, each
        once, whose ``expire_at`` is taken; or a key -> expiry (a float,
        not an item) mapping of only the pairs that expire, which may
        fill while the policy takes its rows (the snapshot decoder's
        single pass, :class:`~repro.persistence.snapshot.SnapshotReader`,
        whose :attr:`expiries` it is).  If the
        snapshot was taken at a larger capacity than this store now has,
        the policy evicts down to fit; the evicted records are returned
        so the caller can account for them.

        A corrupt record met by the decoder raises out of the policy's
        import, which is all or nothing, so the store and its policy are
        left empty and another snapshot can be restored into them.
        """
        records = self._records
        if records:
            raise ConfigurationError(
                f"restore requires an empty store; {len(records)} "
                f"items are resident")
        self._policy.import_records(policy_state)
        if isinstance(expiries, Mapping):
            for key, expire_at in expiries.items():
                records[key].expire_at = expire_at
        else:
            listed: Set[str] = set()
            for item in expiries:
                key = item.key
                record = records.get(key)
                if record is None:
                    raise ConfigurationError(
                        f"snapshot lists {key!r}, which its policy "
                        f"state does not hold")
                if key in listed:
                    raise ConfigurationError(
                        f"snapshot lists {key!r} twice")
                listed.add(key)
                record.expire_at = item.expire_at
            if len(listed) != len(records):
                raise ConfigurationError(
                    "snapshot policy state disagrees with its item set")
        self._used = sum(map(attrgetter("size"), records.values()))
        if self._listeners:
            for record in records.values():
                self._notify_insert(record)
        return self._evict_to_capacity()

    def delete(self, key: str) -> bool:
        """Explicitly remove a key; True when it was resident."""
        record = self._records.get(key)
        if record is None:
            return False
        self._drop(self._policy, record, explicit=True)
        return True

    def _drop(self, policy: EvictionPolicy, record: Resident,
              explicit: bool) -> None:
        """Remove a known-resident record through the given policy handle."""
        policy.discard(record)
        self._used -= record.size
        if self._listeners:
            self._notify_evict(record, explicit=explicit)

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
            "items": len(self._records),
            "capacity": self._capacity,
            "used_bytes": self._used,
            "evictions": self._evictions,
            "rejected_too_large": self._rejected_too_large,
            "rejected_admission": self._rejected_admission,
            "expired": self._expired,
        }

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Mapping[str, Resident]:
        """The policy's key -> record table, read only (snapshot writers
        read each record's expiry here without building items)."""
        return self._records

    def resident_items(self) -> Iterable[CacheItem]:
        """Each resident pair as a :class:`CacheItem`, built on demand."""
        return (CacheItem(record.key, record.size, record.cost,
                          record.expire_at)
                for record in self._records.values())

    def resident_keys(self) -> Iterable[str]:
        return self._records.keys()

    def check_consistency(self) -> None:
        """Verify the record table against byte accounting and the policy
        (test hook): the records' sizes sum to the used bytes, which fit
        the capacity; every record sits under its own key and is resident
        in the policy, which holds no other key; and the policy's own
        ``check_invariants`` holds where it has one."""
        records = self._records
        if sum(record.size for record in records.values()) != self._used:
            raise EvictionError("byte accounting out of sync")
        if self._used > self._capacity:
            raise EvictionError("capacity exceeded")
        policy = self._policy
        if policy.records is not records:
            raise EvictionError("policy replaced its record table")
        for key, record in records.items():
            if record.key != key:
                raise EvictionError(
                    f"record of {record.key!r} filed under {key!r}")
            if key not in policy:
                raise EvictionError(f"policy lost track of {key!r}")
        if len(policy) != len(records):
            raise EvictionError("policy and store disagree on residency")
        check_invariants = getattr(policy, "check_invariants", None)
        if check_invariants is not None:
            check_invariants()
