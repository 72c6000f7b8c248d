"""Vertical-scaling extensions from the paper's section 4.1.

The paper argues CAMP scales on multi-cores because (1) the shared heap is
touched only when a queue head changes, (2) distinct LRU queues can be
updated concurrently, and (3) each logical LRU queue "may be represented as
multiple physical queues" with keys hash-partitioned across them.

Two building blocks reproduce that story in Python:

* :class:`ThreadSafePolicy` — wraps any policy with one mutex so a
  multi-threaded caller (the threaded sharding ablation) can share it.
  The mutex is a plain (non-reentrant) ``threading.Lock``: no hot-path
  caller is re-entrant — the store drives the policy one event at a time,
  and batch paths go through :meth:`ThreadSafePolicy.bulk`, which takes
  the lock *once* and hands out the unwrapped inner policy.  A plain lock
  acquires measurably faster than the seed's ``RLock`` (no owner/count
  bookkeeping), which is exactly the per-request tax this wrapper exists
  to minimize.
* :class:`ShardedCampPolicy` — hash-partitions keys across ``shards``
  independent CAMP instances, each guarded by its own plain lock (lock
  striping, as in memcached's per-bucket locks), sharing one
  :class:`~repro.core.rounding.RatioConverter` so ratios stay comparable.
  Victim selection takes the globally minimal queue head across shards.
  Each shard maintains its own inflation offset ``L``; offsets stay within
  one another's reach because every shard sees a similar key sample — the
  deviation from single-instance CAMP is bounded by inter-shard skew and is
  measured (not assumed) in the concurrency ablation benchmark.

The sharded policy advertises ``concurrent_safe = True``:
:class:`~repro.cache.store.StoreConfig` (and any other wiring layer)
must *not* wrap it in a :class:`ThreadSafePolicy`, because a global lock
on top of per-shard locks re-serializes every request and makes shards
strictly slower than one instance — the regression the seed's sharding
ablation measured.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.camp import CampPolicy
from repro.core.policy import CacheItem, EvictionPolicy
from repro.core.rounding import RatioConverter
from repro.errors import ConfigurationError, EvictionError

__all__ = ["ThreadSafePolicy", "ShardedCampPolicy"]

Number = Union[int, float]


class ThreadSafePolicy(EvictionPolicy):
    """Serializes all access to an inner policy with one plain lock."""

    name = "thread-safe"

    def __init__(self, inner: EvictionPolicy) -> None:
        self._inner = inner
        self._lock = threading.Lock()

    @property
    def inner(self) -> EvictionPolicy:
        return self._inner

    def on_hit(self, key: str) -> None:
        with self._lock:
            self._inner.on_hit(key)

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        with self._lock:
            self._inner.on_insert(key, size, cost)

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        with self._lock:
            return self._inner.pop_victim(incoming)

    def on_remove(self, key: str) -> None:
        with self._lock:
            self._inner.on_remove(key)

    @contextmanager
    def bulk(self) -> Iterator[EvictionPolicy]:
        """Hold the lock once and hand out the inner policy for a batch.

        This is the throughput lever behind ``Store.get_many``/
        ``put_many``: one acquisition amortized over the whole batch
        instead of one per policy event.  It is also where re-entrant
        call patterns belong — the inner policy is driven lock-free
        inside the context, so nothing ever acquires the (plain,
        non-reentrant) lock twice.
        """
        with self._lock:
            yield self._inner

    def wants_eviction(self, incoming: CacheItem, free_bytes: int) -> bool:
        with self._lock:
            return self._inner.wants_eviction(incoming, free_bytes)

    def fits(self, incoming: CacheItem, capacity: int) -> bool:
        with self._lock:
            return self._inner.fits(incoming, capacity)

    def stats(self) -> Dict[str, Union[int, float]]:
        with self._lock:
            return self._inner.stats()

    def reset_stats(self) -> None:
        with self._lock:
            self._inner.reset_stats()

    def export_state(self) -> Dict[str, object]:
        """Snapshot the inner policy's state (its kind, not the wrapper's,
        names the dict — a thread-safe CAMP restores into bare CAMP and
        vice versa)."""
        with self._lock:
            return self._inner.export_state()

    def import_state(self, state: Dict[str, object]) -> None:
        with self._lock:
            self._inner.import_state(state)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._inner

    def __len__(self) -> int:
        with self._lock:
            return len(self._inner)


class ShardedCampPolicy(EvictionPolicy):
    """CAMP hash-partitioned over independent shards (section 4.1, point 3).

    Each shard is a :class:`CampPolicy` under its own plain lock; a
    request touches exactly one (lock, shard) pair, found with one hash
    and one list index.  Power-of-two shard counts route with a bit mask.
    """

    name = "camp-sharded"

    #: internally synchronized — wiring layers must not add a global lock
    concurrent_safe = True

    def __init__(self,
                 shards: int = 4,
                 precision: Optional[int] = 5,
                 arity: int = 8,
                 stats: bool = True) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        converter = RatioConverter()
        self._shards: List[CampPolicy] = [
            CampPolicy(precision=precision, arity=arity,
                       converter=converter, stats=stats)
            for _ in range(shards)]
        self._locks = [threading.Lock() for _ in range(shards)]
        #: (lock, shard) pairs — one indexed fetch on the hot path
        self._lanes: List[Tuple[threading.Lock, CampPolicy]] = list(
            zip(self._locks, self._shards))
        self._count = shards
        self._mask = shards - 1 if shards & (shards - 1) == 0 else None

    def _lane(self, key: str) -> Tuple[threading.Lock, CampPolicy]:
        mask = self._mask
        if mask is not None:
            return self._lanes[hash(key) & mask]
        return self._lanes[hash(key) % self._count]

    def on_hit(self, key: str) -> None:
        lock, shard = self._lane(key)
        with lock:
            shard.on_hit(key)

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        lock, shard = self._lane(key)
        with lock:
            shard.on_insert(key, size, cost)

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        # choose the shard holding the globally minimal queue head
        best_lane = None
        best_priority = None
        for lane in self._lanes:
            lock, shard = lane
            with lock:
                priority = shard.peek_min_priority()
            if priority is None:
                continue
            if best_priority is None or priority < best_priority:
                best_priority = priority
                best_lane = lane
        if best_lane is None:
            raise EvictionError("all CAMP shards are empty")
        lock, shard = best_lane
        with lock:
            return shard.pop_victim(incoming)

    def on_remove(self, key: str) -> None:
        lock, shard = self._lane(key)
        with lock:
            shard.on_remove(key)

    def __contains__(self, key: str) -> bool:
        lock, shard = self._lane(key)
        with lock:
            return key in shard

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    @property
    def shard_count(self) -> int:
        return self._count

    def shard_sizes(self) -> List[int]:
        return [len(s) for s in self._shards]

    def stats(self) -> Dict[str, Union[int, float]]:
        merged: Dict[str, Union[int, float]] = {"shards": self._count}
        for stat_key in ("heap_node_visits", "heap_updates", "queue_count"):
            merged[stat_key] = sum(s.stats()[stat_key] for s in self._shards)
        return merged

    def reset_stats(self) -> None:
        for shard in self._shards:
            shard.reset_stats()
