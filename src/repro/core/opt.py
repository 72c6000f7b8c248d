"""Offline (clairvoyant) baselines: Belady's MIN and a cost-aware greedy.

The competitive-ratio story of the paper (Proposition 3, Young's k-bound)
is stated against OPT, the offline algorithm that knows the whole request
sequence.  These policies make that reference point runnable:

* :class:`BeladyPolicy` — the classical MIN rule: evict the resident pair
  whose **next use is furthest in the future** (never-used-again first).
  Optimal for uniform sizes and costs; with either varying, it is only a
  heuristic (the general problem is NP-hard), but remains the standard
  clairvoyant yardstick.
* :class:`OfflineGreedyPolicy` — a cost/size-aware clairvoyant heuristic:
  evict the pair with the smallest ``cost / size`` among those not used
  soon; concretely, the smallest ``cost(p) / size(p)`` divided by the
  distance to the next use.  It dominates Belady on cost-weighted metrics
  for strongly cost-skewed traces.

Both need the trace in advance: build them with :func:`from_trace` (or
feed ``next_uses`` directly), then drive them through the ordinary
simulator.  Each ``on_hit``/``on_insert`` call consumes one position of
the precomputed schedule, so the policy must see exactly the same request
stream the schedule was built from.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, Optional, Union

from repro.core.policy import CacheItem, EvictionPolicy
from repro.errors import (
    ConfigurationError,
    DuplicateKeyError,
    EvictionError,
    MissingKeyError,
)
from repro.structures import DaryHeap, HeapEntry
from repro.workloads.trace import TraceRecord

__all__ = ["BeladyPolicy", "OfflineGreedyPolicy", "next_use_schedule"]

Number = Union[int, float]

#: stands for "never requested again"
_INFINITY = float("inf")


def next_use_schedule(trace: Iterable[TraceRecord]
                      ) -> Dict[str, Deque[int]]:
    """Per-key queue of the request indices at which the key appears."""
    schedule: Dict[str, Deque[int]] = defaultdict(deque)
    for index, record in enumerate(trace):
        schedule[record.key].append(index)
    return dict(schedule)


class _ClairvoyantBase(EvictionPolicy):
    """Shared machinery: consume the schedule, keep a max-heap on priority."""

    def __init__(self, next_uses: Dict[str, Deque[int]]) -> None:
        self._schedule = {key: deque(positions)
                          for key, positions in next_uses.items()}
        self._clock = 0   # index of the *next* request to be processed
        self._heap = DaryHeap(arity=8)
        self._entries: Dict[str, HeapEntry] = {}

    @classmethod
    def from_trace(cls, trace: Iterable[TraceRecord], **kwargs):
        return cls(next_use_schedule(trace), **kwargs)

    # ------------------------------------------------------------------
    def _advance(self, key: str) -> None:
        """Consume the current request position for ``key``."""
        positions = self._schedule.get(key)
        if not positions:
            raise ConfigurationError(
                f"request for {key!r} not in the precomputed schedule "
                "(the policy must replay exactly the scheduled trace)")
        self._clock = positions.popleft() + 1

    def _next_use(self, key: str) -> float:
        positions = self._schedule.get(key)
        return positions[0] if positions else _INFINITY

    def _priority(self, key: str, item: CacheItem):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def on_hit(self, key: str) -> None:
        entry = self._entries.get(key)
        if entry is None:
            raise MissingKeyError(key)
        self._advance(key)
        self._heap.update(entry, self._priority(key, entry.item))

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        if key in self._entries:
            raise DuplicateKeyError(key)
        self._advance(key)
        item = CacheItem(key, size, cost)
        entry = HeapEntry(self._priority(key, item), item)
        self._heap.push(entry)
        self._entries[key] = entry

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        if not self._heap:
            raise EvictionError("nothing to evict")
        entry = self._heap.pop()
        del self._entries[entry.item.key]
        return entry.item.key

    def on_remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            raise MissingKeyError(key)
        self._heap.remove(entry)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class BeladyPolicy(_ClairvoyantBase):
    """Belady's MIN: evict the pair re-used furthest in the future."""

    name = "belady"

    def _priority(self, key: str, item: CacheItem):
        # min-heap: the furthest next use must surface first, so negate;
        # never-used-again pairs get the strongest negative priority
        next_use = self._next_use(key)
        if next_use is _INFINITY:
            return (0, 0.0)
        return (1, -float(next_use))


class OfflineGreedyPolicy(_ClairvoyantBase):
    """Clairvoyant cost-aware heuristic: evict the smallest value density.

    Value density of a resident pair = ``(cost / size) / gap`` where
    ``gap`` is the distance to its next use (∞ ⇒ density 0).  This blends
    Belady's forward distance with GDS's cost-to-size ratio.
    """

    name = "offline-greedy"

    def _priority(self, key: str, item: CacheItem):
        next_use = self._next_use(key)
        if next_use is _INFINITY:
            return (0, 0.0)
        gap = max(1.0, float(next_use) - self._clock + 1)
        density = (item.cost / item.size) / gap
        return (1, density)
