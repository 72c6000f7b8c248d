"""A Twemcache-like storage engine: slab allocation + LRU or CAMP eviction.

The allocation path follows the paper's four steps verbatim:

1. replace an **expired** key-value of the smallest fitting slab class,
2. else take a free chunk within that class's allocated slabs,
3. else allocate a **new slab** to the class,
4. else **evict** an existing pair of the class (LRU in stock Twemcache;
   CAMP in the paper's section 4 implementation) and replace its contents.

When even step 4 cannot help — the class owns *no* slabs at all (slab
calcification) — the engine optionally performs Twemcache's *random slab
eviction*: grab a random slab from another class, evict every occupant and
re-class it.

Eviction policies are instantiated **per slab class**, matching
Twemcache's per-class LRU queues; within a class all chunks are the same
size, so CAMP's cost-to-size ratios degenerate gracefully to cost ratios.
Values are real ``bytes`` (the server stores and serves them), and every
item is charged ``ITEM_HEADER_SIZE`` metadata like the C implementation.

The request surface routes through the unified
:class:`~repro.cache.store.Store` facade: :class:`_SlabBackend` adapts
the four-step allocation path to the structured store protocol, and the
engine's get/set/touch/delete become a thin memcached-protocol adapter
over that Store — TTL classification and structured outcomes are shared
with the simulator's KVS rather than re-implemented here.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.cache.outcomes import Outcome
from repro.cache.store import Store
from repro.core.camp import CampPolicy
from repro.core.lru import LruPolicy
from repro.core.policy import EvictionPolicy
from repro.core.rounding import RatioConverter
from repro.errors import ConfigurationError
from repro.persistence.format import (
    PersistenceError,
    SnapshotCorruptError,
    atomic_write,
    decode_payload,
    encode_payload,
    read_magic,
    read_record,
    write_magic,
    write_record,
)
from repro.twemcache.slab import ChunkRef, SlabAllocator

__all__ = ["StoredItem", "TwemcacheEngine", "ITEM_HEADER_SIZE"]

Number = Union[int, float]

#: bytes charged per item for metadata (key pointer, CAS, flags, links)
ITEM_HEADER_SIZE = 48

#: the engine's own snapshot file magic: JSON records, a format apart
#: from the durable store's ``CAMPSNP2``
ENGINE_SNAPSHOT_MAGIC = b"CAMPSNP1"


@dataclass(slots=True)
class StoredItem:
    """One resident key-value pair and its metadata."""

    key: str
    value: bytes
    flags: int
    expire_at: float          # absolute time, 0 = never
    cost: Number
    chunk: ChunkRef
    class_id: int

    def expired(self, now: float) -> bool:
        return self.expire_at != 0 and now >= self.expire_at


class _SlabBackend:
    """The four-step slab allocation path behind the Store protocol.

    Lets the engine's request surface share the facade's TTL handling
    and structured outcomes while keeping slab mechanics (chunk
    acquisition, calcification cures, per-class policies) local.
    """

    #: values (StoredItems) live in the engine's item table, not the Store
    stores_values = True

    def __init__(self, engine: "TwemcacheEngine") -> None:
        self._engine = engine

    def lookup(self, key: str) -> Outcome:
        engine = self._engine
        item = engine._items.get(key)
        if item is None:
            return Outcome.MISS
        expire_at = item.expire_at
        if expire_at != 0 and engine._clock() >= expire_at:
            engine._forget(item)
            return Outcome.EXPIRED
        engine._policy_for_class(item.class_id).on_hit(key)
        return Outcome.HIT

    def insert(self, key: str, size: int, cost: Number,
               ttl: Optional[float] = None, value: bytes = b"",
               flags: int = 0) -> Outcome:
        if value is None:
            # metadata-only inserts (Store.access simulation traffic)
            # must still yield a renderable item
            value = b""
        engine = self._engine
        class_id = engine._allocator.class_for(size)
        if class_id is None:
            return Outcome.MISS_REJECTED_TOO_LARGE
        existing = engine._items.get(key)
        if existing is not None and existing.class_id == class_id:
            # same class: free the old chunk first so the acquisition
            # below can reuse it (in-place replacement)
            engine._forget(existing)
            existing = None
        chunk = engine._acquire_chunk(class_id, key)
        if chunk is None:
            # rejected replacement: a cross-class old copy stays resident
            return Outcome.MISS_REJECTED_TOO_LARGE
        if existing is not None and engine._items.get(key) is existing:
            # cross-class replacement; guard against the old copy having
            # already been evicted by a random slab steal during
            # acquisition (its chunk would be stale)
            engine._forget(existing)
        expire_at = engine._clock() + ttl if ttl else 0
        item = StoredItem(key=key, value=value, flags=flags,
                          expire_at=expire_at, cost=cost,
                          chunk=chunk, class_id=class_id)
        engine._items[key] = item
        if expire_at:
            engine._ttl_items += 1
        engine._policy_for_class(class_id).on_insert(key, size, cost)
        return Outcome.MISS_INSERTED

    def delete(self, key: str) -> bool:
        engine = self._engine
        item = engine._items.get(key)
        if item is None:
            return False
        engine._forget(item)
        return True

    def touch(self, key: str, ttl: Optional[float] = None) -> bool:
        engine = self._engine
        item = engine._items.get(key)
        if item is None or item.expired(engine._clock()):
            return False
        had_ttl = item.expire_at != 0
        item.expire_at = engine._clock() + ttl if ttl else 0
        engine._ttl_items += (item.expire_at != 0) - had_ttl
        return True

    def value_of(self, key: str) -> Optional[StoredItem]:
        return self._engine._items.get(key)

    def stats(self) -> Dict[str, Union[int, float]]:
        return self._engine.stats()

    def __contains__(self, key: str) -> bool:
        return key in self._engine._items

    def __len__(self) -> int:
        return len(self._engine._items)


class TwemcacheEngine:
    """Slab-allocated KVS with pluggable per-class eviction."""

    def __init__(self,
                 memory_bytes: int,
                 eviction: str = "lru",
                 camp_precision: Optional[int] = 5,
                 slab_size: int = 1 << 20,
                 random_slab_eviction: bool = True,
                 clock: Optional[Callable[[], float]] = None,
                 seed: int = 0,
                 snapshot_path: Optional[str] = None) -> None:
        """``eviction`` is ``"lru"`` (stock Twemcache) or ``"camp"`` (the
        paper's IQ-Twemcache variant).  ``clock`` is injectable for
        deterministic expiry tests (defaults to ``time.monotonic``).
        ``snapshot_path`` is the default target of :meth:`save` (and the
        protocol's ``save`` verb)."""
        if eviction not in ("lru", "camp"):
            raise ConfigurationError(
                f"eviction must be 'lru' or 'camp', got {eviction!r}")
        self._eviction_kind = eviction
        self._camp_precision = camp_precision
        self._allocator = SlabAllocator(memory_bytes, slab_size=slab_size)
        self._random_slab_eviction = random_slab_eviction
        self._clock = clock if clock is not None else time.monotonic
        self._rng = random.Random(seed)
        self._items: Dict[str, StoredItem] = {}
        #: resident items carrying a TTL; while 0, the allocation path's
        #: expired-replacement probe (step 1) is provably fruitless and
        #: is skipped entirely — trace replays without TTLs pay nothing
        self._ttl_items = 0
        self._policies: Dict[int, EvictionPolicy] = {}
        # CAMP instances share one converter so ratios stay comparable
        self._converter = RatioConverter()
        self._lock = threading.RLock()
        # the store shares the engine lock, so engine.store is exactly as
        # thread-safe as the engine's own methods
        self._store = Store(_SlabBackend(self), sizer=self._item_size,
                            lock=self._lock)
        self._snapshot_path = snapshot_path
        # counters
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expired_reclaims = 0
        self.slab_reassignments = 0
        self.snapshots_taken = 0

    # ------------------------------------------------------------------
    # policy plumbing
    # ------------------------------------------------------------------
    def _policy_for_class(self, class_id: int) -> EvictionPolicy:
        policy = self._policies.get(class_id)
        if policy is None:
            if self._eviction_kind == "camp":
                # production path: stats accounting off (zero-cost toggle;
                # decisions are identical, see the equivalence tests)
                policy = CampPolicy(precision=self._camp_precision,
                                    converter=self._converter, stats=False)
            else:
                policy = LruPolicy()
            self._policies[class_id] = policy
        return policy

    def _item_size(self, key: str, value: bytes) -> int:
        return len(key) + len(value) + ITEM_HEADER_SIZE

    # ------------------------------------------------------------------
    # public API (get / set / delete) — a thin adapter over the Store
    # ------------------------------------------------------------------
    def get(self, key: str,
            record_miss: bool = True) -> Optional[StoredItem]:
        """Fetch a live item (expired items are lazily reclaimed).

        ``record_miss=False`` keeps a miss out of the counters — for
        probes whose caller will re-drive the miss through
        ``get_or_compute`` and must not count it twice (the async
        adapter's resident fast path).
        """
        with self._lock:
            result = self._store.get(key)
            if result.hit:
                self.hits += 1
                return result.value
            if record_miss:
                self.misses += 1
            return None

    def set(self,
            key: str,
            value: bytes,
            flags: int = 0,
            expire_after: float = 0,
            cost: Number = 0) -> bool:
        """Store a value; returns True only when the new pair was stored.

        A rejected *replacement* returns False with the old copy still
        resident (check ``store.put(...).outcome`` for the reason).
        """
        # no engine-lock acquisition here: put_outcome serializes on the
        # same (re-entrant) engine lock, and the size arithmetic is pure
        size = len(key) + len(value) + ITEM_HEADER_SIZE
        outcome = self._store.put_outcome(key, size, cost,
                                          ttl=expire_after or None,
                                          value=value, flags=flags)
        return outcome is Outcome.MISS_INSERTED

    def add(self, key: str, value: bytes, **kwargs) -> bool:
        """Store only if the key is absent (memcached ``add``)."""
        with self._lock:
            existing = self._items.get(key)
            if existing is not None and not existing.expired(self._clock()):
                return False
            return self.set(key, value, **kwargs)

    def replace(self, key: str, value: bytes, **kwargs) -> bool:
        """Store only if the key is present (memcached ``replace``)."""
        with self._lock:
            existing = self._items.get(key)
            if existing is None or existing.expired(self._clock()):
                return False
            return self.set(key, value, **kwargs)

    def incr(self, key: str, delta: int) -> Optional[int]:
        """Increment an ASCII-decimal value; None when the key is absent.

        Raises :class:`~repro.errors.ProtocolError` for non-numeric values,
        mirroring memcached's CLIENT_ERROR.
        """
        return self._arith(key, delta)

    def decr(self, key: str, delta: int) -> Optional[int]:
        """Decrement, clamped at zero like memcached."""
        return self._arith(key, -delta)

    def _arith(self, key: str, delta: int) -> Optional[int]:
        from repro.errors import ProtocolError
        with self._lock:
            item = self._items.get(key)
            if item is None or item.expired(self._clock()):
                return None
            try:
                current = int(item.value.decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                raise ProtocolError(
                    "cannot increment or decrement non-numeric value"
                ) from None
            updated = max(0, current + delta)
            payload = str(updated).encode("ascii")
            expire_after = 0.0
            if item.expire_at:
                expire_after = max(0.0, item.expire_at - self._clock())
            self.set(key, payload, flags=item.flags,
                     expire_after=expire_after, cost=item.cost)
            return updated

    def touch(self, key: str, expire_after: float) -> bool:
        """Reset a live item's expiry without transferring its value."""
        with self._lock:
            return self._store.touch(key, expire_after or None)

    def flush_all(self) -> None:
        """Drop every item (memcached ``flush_all``)."""
        with self._lock:
            for item in list(self._items.values()):
                self._forget(item)

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._store.delete(key)

    def touch_cost(self, key: str, cost: Number) -> bool:
        """Update the recorded cost of a live item (IQ refresh)."""
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return False
            item.cost = cost
            return True

    # ------------------------------------------------------------------
    # allocation path (the paper's four steps)
    # ------------------------------------------------------------------
    def _acquire_chunk(self, class_id: int, key: str) -> Optional[ChunkRef]:
        # step 1: replace an expired pair of this class (skipped outright
        # while no resident item carries a TTL)
        if self._ttl_items and self._reclaim_expired(class_id):
            self.expired_reclaims += 1
        # steps 2-3: free chunk or fresh slab
        chunk = self._allocator.try_allocate(class_id, key)
        if chunk is not None:
            return chunk
        # step 4: evict within the class
        policy = self._policy_for_class(class_id)
        if len(policy):
            victim_key = policy.pop_victim()
            victim = self._items.pop(victim_key)
            if victim.expire_at:
                self._ttl_items -= 1
            self.evictions += 1
            # step 4 verbatim: the victim's chunk is the same class, so
            # the new pair replaces its contents in place — no free-list
            # round trip on the eviction path
            self._allocator.replace(victim.chunk, key)
            return victim.chunk
        # calcified: no slabs and nothing to evict in this class
        if self._random_slab_eviction:
            return self._steal_random_slab(class_id, key)
        return None

    def _reclaim_expired(self, class_id: int, probe_depth: int = 5) -> bool:
        """Check a few eviction candidates of the class for expiry."""
        policy = self._policies.get(class_id)
        if policy is None or not isinstance(policy, LruPolicy):
            return self._reclaim_expired_scan(class_id, probe_depth)
        now = self._clock()
        # bounded walk from the LRU end — the seed materialized the whole
        # queue per insert, an O(resident) tax on every set
        for key in itertools.islice(policy.keys_lru_to_mru(), probe_depth):
            item = self._items[key]
            if item.expired(now):
                self._forget(item)
                return True
        return False

    def _reclaim_expired_scan(self, class_id: int, probe_depth: int) -> bool:
        # bounded probe over the oldest insertions (dict preserves order);
        # expiry is best-effort here, exactly like memcached's lazy reclaim
        now = self._clock()
        for probed, item in enumerate(self._items.values()):
            if probed >= probe_depth:
                break
            if item.class_id == class_id and item.expired(now):
                self._forget(item)
                return True
        return False

    def _steal_random_slab(self, class_id: int, key: str
                           ) -> Optional[ChunkRef]:
        donors = self._allocator.donor_slabs(excluding_class=class_id)
        if not donors:
            return None
        slab = self._rng.choice(donors)
        donor_class = slab.class_id
        evicted = self._allocator.reassign_slab(slab, class_id)
        donor_policy = self._policies.get(donor_class)
        for victim_key in evicted:
            victim = self._items.pop(victim_key, None)
            if victim is not None and victim.expire_at:
                self._ttl_items -= 1
            if donor_policy is not None and victim_key in donor_policy:
                donor_policy.on_remove(victim_key)
            self.evictions += 1
        self.slab_reassignments += 1
        return self._allocator.try_allocate(class_id, key)

    def _forget(self, item: StoredItem) -> None:
        if self._items.pop(item.key, None) is not None and item.expire_at:
            self._ttl_items -= 1
        policy = self._policies.get(item.class_id)
        if policy is not None and item.key in policy:
            policy.on_remove(item.key)
        self._allocator.free(item.chunk)

    # ------------------------------------------------------------------
    # durable state (the server's SAVE verb)
    # ------------------------------------------------------------------
    def save(self, path: Optional[str] = None) -> int:
        """Atomically snapshot every live item to ``path`` (or the
        configured ``snapshot_path``); returns the item count.

        The slab engine's snapshot is *logical* — key, value bytes,
        flags, remaining TTL, cost — not a dump of slab memory: chunk
        layout is an allocation artifact that :meth:`load` rebuilds by
        replaying ``set``, which also re-derives the per-class eviction
        policies.  Items are written in table (insertion) order, so a
        reloaded engine is warm but its LRU/CAMP recency is approximate;
        exact priority round-trips live in :mod:`repro.persistence` for
        the simulator KVS.
        """
        with self._lock:
            target = path or self._snapshot_path
            if target is None:
                raise PersistenceError(
                    "no snapshot path: pass save(path) or configure "
                    "snapshot_path on the engine")
            final = pathlib.Path(target)
            try:
                final.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise PersistenceError(
                    f"cannot create snapshot directory "
                    f"{final.parent}: {exc}") from exc
            now = self._clock()
            items = [item for item in self._items.values()
                     if not item.expired(now)]

            def write_body(handle):
                write_magic(handle, ENGINE_SNAPSHOT_MAGIC)
                write_record(handle, {
                    "kind": "twemcache", "version": 1, "clock": now,
                    "items": len(items),
                    "eviction": self._eviction_kind,
                })
                for item in items:
                    write_record(handle, {
                        "k": item.key, "v": encode_payload(item.value),
                        "f": item.flags, "e": item.expire_at,
                        "c": item.cost,
                    })
                write_record(handle, {"kind": "footer",
                                      "items": len(items)})

            atomic_write(final, write_body)
            self.snapshots_taken += 1
            return len(items)

    def load(self, path: Optional[str] = None) -> int:
        """Warm-start from a :meth:`save` file; returns items stored.

        Expiry is rebased onto this engine's clock (remaining TTL
        preserved; already-lapsed items are skipped).  Items the current
        memory budget cannot admit are dropped by the normal allocation
        path, not an error.
        """
        with self._lock:
            target = path or self._snapshot_path
            if target is None:
                raise PersistenceError(
                    "no snapshot path: pass load(path) or configure "
                    "snapshot_path on the engine")
            try:
                handle = open(target, "rb")
            except OSError as exc:
                raise PersistenceError(
                    f"cannot read snapshot {target}: {exc}") from exc
            stored = 0
            with handle:
                read_magic(handle, ENGINE_SNAPSHOT_MAGIC)
                header = read_record(handle)
                if header is None or header.get("kind") != "twemcache":
                    raise SnapshotCorruptError(
                        f"{target}: not a twemcache snapshot")
                saved_clock = float(header["clock"])
                expected = int(header["items"])
                for _ in range(expected):
                    body = read_record(handle)
                    if body is None or "k" not in body:
                        raise SnapshotCorruptError(
                            f"{target}: truncated item section")
                    expire_after = 0.0
                    expire_at = float(body.get("e", 0.0))
                    if expire_at:
                        expire_after = expire_at - saved_clock
                        if expire_after <= 0:
                            continue
                    if self.set(str(body["k"]), decode_payload(body["v"]),
                                flags=int(body.get("f", 0)),
                                expire_after=expire_after,
                                cost=body.get("c", 0)):
                        stored += 1
                footer = read_record(handle)
                if footer is None or footer.get("kind") != "footer" \
                        or int(footer.get("items", -1)) != expected:
                    raise SnapshotCorruptError(
                        f"{target}: missing or wrong footer")
            return stored

    @property
    def snapshot_path(self) -> Optional[str]:
        return self._snapshot_path

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._items

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def allocator(self) -> SlabAllocator:
        return self._allocator

    @property
    def store(self) -> Store:
        """The unified request facade this engine routes through."""
        return self._store

    def get_or_compute(self, key: str, loader, expire_after: float = 0,
                       cost: Optional[Number] = None) -> Optional[StoredItem]:
        """Read-through helper: return the live item or load-and-set.

        ``loader(key)`` must return the value ``bytes``; its measured
        wall time becomes the item's cost unless ``cost`` is given.
        Returns the resident :class:`StoredItem`, or None when the
        loaded value cannot be stored.
        """
        with self._lock:
            result = self._store.get_or_compute(
                key, loader, ttl=expire_after or None, cost=cost)
            if result.hit:
                self.hits += 1
                return result.value
            self.misses += 1
            return self._items.get(key) if result.resident else None

    def async_adapter(self):
        """An :class:`~repro.tenancy.aio.AsyncEngineAdapter` over this
        engine: awaitable ``get_or_compute`` with per-key single-flight
        coalescing (loaders run off the engine lock)."""
        from repro.tenancy.aio import AsyncEngineAdapter
        return AsyncEngineAdapter(self)

    @property
    def eviction_kind(self) -> str:
        return self._eviction_kind

    def stats(self) -> Dict[str, Union[int, float]]:
        with self._lock:
            stats: Dict[str, Union[int, float]] = {
                "items": len(self._items),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expired_reclaims": self.expired_reclaims,
                "slab_reassignments": self.slab_reassignments,
                "snapshots_taken": self.snapshots_taken,
            }
            stats.update(self._allocator.stats())
            return stats

    def digest(self, prefix: str = "") -> Dict[str, tuple]:
        """Key → ``(cost, crc32(value))`` over the live items.

        The anti-entropy summary behind the wire's ``digest`` verb:
        cheap enough to compute under the lock (one crc32 per item, no
        copies), rich enough that two replicas agreeing on every
        ``(cost, crc)`` pair are byte-identical for cluster purposes —
        value bytes *and* the CAMP cost a re-store must piggyback.
        ``prefix`` narrows the summary to matching keys.
        """
        with self._lock:
            now = self._clock()
            out: Dict[str, tuple] = {}
            for key, item in self._items.items():
                if prefix and not key.startswith(prefix):
                    continue
                if item.expire_at and item.expired(now):
                    continue
                out[key] = (item.cost, zlib.crc32(item.value))
            return out

    def check_consistency(self) -> None:
        """Items, policies and allocator agree (test hook)."""
        with self._lock:
            self._allocator.check_invariants()
            policy_total = sum(len(p) for p in self._policies.values())
            if policy_total != len(self._items):
                raise ConfigurationError(
                    "policy residency disagrees with item table")
            for key, item in self._items.items():
                if item.chunk.slab.chunks[item.chunk.index] != key:
                    raise ConfigurationError(
                        f"chunk for {key!r} does not reference it")
