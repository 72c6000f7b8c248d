"""Least Recently Used — the baseline memcached/Twemcache policy.

A single queue ordered by recency; evicts the head.  Ignores both size and
cost of key-value pairs, which is exactly the weakness the paper's CAMP
addresses (an aged but expensive pair is treated like any other).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.core.policy import CacheItem, EvictionPolicy
from repro.errors import (ConfigurationError, DuplicateKeyError,
                          EvictionError, MissingKeyError)
from repro.structures import DList, DListNode

__all__ = ["LruPolicy"]


class _LruNode(DListNode):
    """A resident pair's record and its place in the recency queue."""

    __slots__ = ("key", "size", "cost", "expire_at")

    def __init__(self, key: str, size: int, cost: Union[int, float],
                 expire_at: float = 0.0) -> None:
        # DListNode.__init__ inlined (one node per insert)
        self.prev = None
        self.next = None
        self._list = None
        self.key = key
        self.size = size
        self.cost = cost
        self.expire_at = expire_at


class LruPolicy(EvictionPolicy):
    """Classic LRU over an intrusive linked list (O(1) everything).

    Each queue node is its pair's record (:attr:`records`); the key
    events wrap the same bodies the KVS calls.
    """

    name = "lru"

    def __init__(self) -> None:
        self._queue = DList()
        self._nodes: Dict[str, _LruNode] = {}

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------
    @property
    def records(self) -> Dict[str, _LruNode]:
        return self._nodes

    def admit(self, key: str, size: int, cost: Union[int, float],
              expire_at: float = 0.0) -> _LruNode:
        node = self._nodes[key] = _LruNode(key, size, cost, expire_at)
        self._queue.append(node)
        return node

    def hit(self, node: _LruNode) -> None:
        self._queue.move_to_tail(node)

    def evict(self, incoming: Optional[CacheItem] = None) -> _LruNode:
        if not self._queue:
            raise EvictionError("LRU has nothing to evict")
        node = self._queue.popleft()
        del self._nodes[node.key]
        return node

    def discard(self, node: _LruNode) -> None:
        del self._nodes[node.key]
        self._queue.remove(node)

    def import_records(self, state: Dict[str, object]) -> None:
        self.import_state(state)

    # ------------------------------------------------------------------
    # key events
    # ------------------------------------------------------------------
    def on_hit(self, key: str) -> None:
        node = self._nodes.get(key)
        if node is None:
            raise MissingKeyError(key)
        self.hit(node)

    def on_insert(self, key: str, size: int, cost: Union[int, float]) -> None:
        if key in self._nodes:
            raise DuplicateKeyError(key)
        if size < 1:
            raise ConfigurationError(f"item size must be >= 1, got {size}")
        if cost < 0:
            raise ConfigurationError(f"item cost must be >= 0, got {cost}")
        self.admit(key, size, cost)

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        return self.evict(incoming).key

    def on_remove(self, key: str) -> None:
        node = self._nodes.get(key)
        if node is None:
            raise MissingKeyError(key)
        self.discard(node)

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def keys_lru_to_mru(self) -> Iterator[str]:
        """Resident keys from next-victim to most recently used."""
        return (node.key for node in self._queue)

    # ------------------------------------------------------------------
    # durable state (snapshot/restore hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """The queue in LRU-to-MRU order — recency is the whole state."""
        entries: List[List[object]] = [
            [node.key, node.size, node.cost] for node in self._queue]
        return {"policy": self.name, "entries": entries}

    def import_state(self, state: Dict[str, object]) -> None:
        """All or nothing: when taking a row raises, the keys taken so far
        are dropped."""
        self._check_importable(state)
        try:
            for key, size, cost in state["entries"]:
                self.on_insert(key, size, cost)
        except BaseException:
            # in place: the KVS holds the node table as its records
            self._queue = DList()
            self._nodes.clear()
            raise
