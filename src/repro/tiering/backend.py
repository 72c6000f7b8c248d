"""``TieredBackend`` — DRAM (L1) over :class:`DiskTier` (L2) as one Store
backend.

The stacking contract:

* **Demotion.** The backend listens on the L1 KVS: a *capacity* eviction
  (``explicit=False``) offers the victim to the demotion filter; passers
  are appended to the disk tier with their payload (when the victim is
  bytes-like or metadata-only) and their remaining TTL.  Explicit
  deletes, overwrites, and lazily-reclaimed expired items are never
  demoted.
* **Promotion.** A lookup that misses DRAM probes the disk tier.  A disk
  hit is re-inserted into L1 (TTL carried through) and reported as
  :data:`Outcome.HIT_L2`; when L1 *rejects* the promotion (admission
  controller, too large) the entry stays disk-resident and the lookup
  reports :data:`Outcome.MISS_PROMOTED` — still served, still cheaper
  than recomputing, but not DRAM-resident.
* **Disjointness.** A key is L1-resident or L2-resident, never both: a
  promotion tombstones the disk copy, an insert that lands in L1
  tombstones any stale disk copy, and demotion only happens as the key
  leaves L1.
* **Charging.** ``l2_hit_cost_factor`` prices a disk hit as a fraction
  of the item's recompute cost (reading from disk is cheaper than
  recomputing, but not free); the Store reads it off this backend to feed
  ``SimulationMetrics.record_l2``.

The backend is not internally synchronized — the Store lock (or the
engine lock) serializes access, exactly as for a bare KVS.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.cache.kvs import KVS
from repro.cache.outcomes import Outcome
from repro.core.policy import CacheItem
from repro.errors import ConfigurationError
from repro.tiering.disk_tier import DiskTier
from repro.tiering.filter import AlwaysDemote, DemotionFilter

__all__ = ["TieredBackend"]

Number = Union[int, float]


class _DemotionCapture:
    """KVS listener that turns capacity evictions into tier appends."""

    def __init__(self, owner: "TieredBackend") -> None:
        self._owner = owner

    def on_insert(self, item: CacheItem) -> None:
        pass

    def on_evict(self, item: CacheItem, explicit: bool) -> None:
        self._owner._on_l1_evict(item, explicit)


class TieredBackend:
    """A Store backend stacking a DRAM KVS over an on-disk victim tier."""

    #: payloads live here (L1 dict / L2 segment files), not in the Store
    stores_values = True

    def __init__(self,
                 kvs: KVS,
                 tier: DiskTier,
                 demotion_filter: Optional[DemotionFilter] = None,
                 l2_hit_cost_factor: float = 0.1) -> None:
        """``kvs`` and ``tier`` should share a clock so TTLs demote and
        promote without drift (``StoreConfig.tiered`` wires this).
        ``demotion_filter`` defaults to :class:`AlwaysDemote`;
        ``l2_hit_cost_factor`` must be in ``[0, 1)`` — a disk hit
        cheaper than recomputing, or the tier is pointless."""
        if not 0.0 <= l2_hit_cost_factor < 1.0:
            raise ConfigurationError(
                f"l2_hit_cost_factor must be in [0, 1), "
                f"got {l2_hit_cost_factor}")
        self._kvs = kvs
        self._tier = tier
        self._filter = (demotion_filter if demotion_filter is not None
                        else AlwaysDemote())
        #: read by the Store to price HIT_L2 / MISS_PROMOTED charges
        self.l2_hit_cost_factor = l2_hit_cost_factor
        self._values: Dict[str, object] = {}
        # counters
        self.demotions = 0
        self.filtered_drops = 0
        self.unserializable_drops = 0
        self.promotions = 0
        self.promotions_rejected = 0
        kvs.add_listener(_DemotionCapture(self))

    # ------------------------------------------------------------------
    # demotion (runs inside KVS insert, under the caller's lock)
    # ------------------------------------------------------------------
    def _on_l1_evict(self, item: CacheItem, explicit: bool) -> None:
        value = self._values.pop(item.key, None)
        if explicit:
            # delete / overwrite / lazy expiry — lifecycle, not pressure
            return
        if item.expire_at and self._kvs.clock() >= item.expire_at:
            return
        raw_size = item.size - self._kvs.item_overhead
        if raw_size <= 0:
            return
        if not self._filter.should_demote(item.key, raw_size, item.cost):
            self.filtered_drops += 1
            return
        if value is None:
            payload = None   # metadata-only (trace-driven) item
        elif isinstance(value, (bytes, bytearray, memoryview)):
            payload = bytes(value)
        else:
            # arbitrary loader objects have no on-disk form; dropping
            # beats serving back a payload-less "hit" later
            self.unserializable_drops += 1
            return
        if self._tier.put(item.key, payload, raw_size, item.cost,
                          expire_at=item.expire_at):
            self.demotions += 1

    # ------------------------------------------------------------------
    # the structured backend protocol
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Outcome:
        """L1 first; on a DRAM miss, probe the disk tier and promote."""
        outcome = self._kvs.lookup(key)
        if outcome is not Outcome.MISS:
            return outcome
        record = self._tier.get(key)
        if record is None:
            return Outcome.MISS
        ttl = record.remaining_ttl(self._kvs.clock())
        if ttl is not None and ttl <= 0:
            self._tier.delete(key, tombstone=False)
            return Outcome.MISS
        promoted = self._kvs.insert(key, record.size, record.cost, ttl=ttl)
        if promoted is Outcome.MISS_INSERTED:
            if record.value is not None:
                self._values[key] = record.value
            self._tier.delete(key)   # tombstoned: L1 owns the key now
            self.promotions += 1
            return Outcome.HIT_L2
        self.promotions_rejected += 1
        return Outcome.MISS_PROMOTED

    def insert(self, key: str, size: int, cost: Number,
               ttl: Optional[float] = None, value: object = None,
               **meta: object) -> Outcome:
        outcome = self._kvs.insert(key, size, cost, ttl=ttl)
        if outcome is Outcome.MISS_INSERTED:
            if value is not None:
                self._values[key] = value
            # a fresh insert supersedes any stale disk copy
            if key in self._tier:
                self._tier.delete(key)
        return outcome

    def delete(self, key: str) -> bool:
        self._values.pop(key, None)
        in_l1 = self._kvs.delete(key)
        in_l2 = self._tier.delete(key)
        return in_l1 or in_l2

    def touch(self, key: str, ttl: Optional[float] = None) -> bool:
        if self._kvs.touch(key, ttl):
            return True
        if key not in self._tier:
            return False
        now = self._kvs.clock()
        return self._tier.touch(key, now + ttl if ttl else 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self._kvs or key in self._tier

    def __len__(self) -> int:
        return len(self._kvs) + len(self._tier)

    # ------------------------------------------------------------------
    # optional capabilities the Store resolves
    # ------------------------------------------------------------------
    def peek(self, key: str) -> Optional[CacheItem]:
        """Metadata for a key resident in either tier (no state refresh)."""
        item = self._kvs.peek(key)
        if item is not None:
            return item
        entry = self._tier.peek(key)
        if entry is None:
            return None
        return CacheItem(key, entry.size, entry.cost, entry.expire_at)

    def value_of(self, key: str) -> object:
        """The payload wherever it lives: L1 dict, else a disk read."""
        value = self._values.get(key)
        if value is not None:
            return value
        return self._tier.read_value(key)

    def add_listener(self, listener: object) -> None:
        self._kvs.add_listener(listener)

    def purge_expired(self, limit: Optional[int] = None) -> int:
        return self._kvs.purge_expired(limit)

    def resident_level(self, key: str) -> int:
        """1 / 2 / 0 — which tier holds the key (test & stats hook)."""
        if key in self._kvs:
            return 1
        if key in self._tier:
            return 2
        return 0

    def stats(self) -> Dict[str, Number]:
        merged = dict(self._kvs.stats())
        merged.update(self._tier.stats())
        merged.update({
            "demotions": self.demotions,
            "filtered_drops": self.filtered_drops,
            "unserializable_drops": self.unserializable_drops,
            "promotions": self.promotions,
            "promotions_rejected": self.promotions_rejected,
        })
        return merged

    def check_consistency(self) -> None:
        self._kvs.check_consistency()
        self._tier.check_invariants()
        for key in self._values:
            if key not in self._kvs:
                raise ConfigurationError(
                    f"L1 payload for non-resident key {key!r}")
        for key in list(self._tier.keys()):
            if self._kvs.peek(key) is not None:
                raise ConfigurationError(
                    f"key {key!r} resident in both tiers")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def kvs(self) -> KVS:
        return self._kvs

    @property
    def tier(self) -> DiskTier:
        return self._tier

    @property
    def demotion_filter(self) -> DemotionFilter:
        return self._filter

    @property
    def clock(self):
        return self._kvs.clock

    @property
    def policy(self):
        """L1's eviction policy (the simulator reports its stats)."""
        return self._kvs.policy

    @property
    def capacity(self) -> int:
        return self._kvs.capacity

    @property
    def used_bytes(self) -> int:
        return self._kvs.used_bytes

    @property
    def eviction_count(self) -> int:
        return self._kvs.eviction_count

    @property
    def rejected_too_large(self) -> int:
        return self._kvs.rejected_too_large

    @property
    def rejected_admission(self) -> int:
        return self._kvs.rejected_admission

    def resident_items(self) -> Iterable[CacheItem]:
        return self._kvs.resident_items()

    def close(self) -> None:
        self._tier.close()
