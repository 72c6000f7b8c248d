"""Least Recently Used — the baseline memcached/Twemcache policy.

A single queue ordered by recency; evicts the head.  Ignores both size and
cost of key-value pairs, which is exactly the weakness the paper's CAMP
addresses (an aged but expensive pair is treated like any other).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.core.policy import CacheItem, EvictionPolicy
from repro.errors import DuplicateKeyError, EvictionError, MissingKeyError
from repro.structures import DList, DListNode

__all__ = ["LruPolicy"]


class _LruNode(DListNode):
    __slots__ = ("item",)

    def __init__(self, item: CacheItem) -> None:
        super().__init__()
        self.item = item


class LruPolicy(EvictionPolicy):
    """Classic LRU over an intrusive linked list (O(1) everything)."""

    name = "lru"

    def __init__(self) -> None:
        self._queue = DList()
        self._nodes: Dict[str, _LruNode] = {}

    def on_hit(self, key: str) -> None:
        node = self._nodes.get(key)
        if node is None:
            raise MissingKeyError(key)
        self._queue.move_to_tail(node)

    def on_insert(self, key: str, size: int, cost: Union[int, float]) -> None:
        if key in self._nodes:
            raise DuplicateKeyError(key)
        node = _LruNode(CacheItem(key, size, cost))
        self._nodes[key] = node
        self._queue.append(node)

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        if not self._queue:
            raise EvictionError("LRU has nothing to evict")
        node = self._queue.popleft()
        del self._nodes[node.item.key]
        return node.item.key

    def on_remove(self, key: str) -> None:
        node = self._nodes.pop(key, None)
        if node is None:
            raise MissingKeyError(key)
        self._queue.remove(node)

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def keys_lru_to_mru(self) -> Iterator[str]:
        """Resident keys from next-victim to most recently used."""
        return (node.item.key for node in self._queue)

    # ------------------------------------------------------------------
    # durable state (snapshot/restore hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """The queue in LRU-to-MRU order — recency is the whole state."""
        entries: List[List[object]] = [
            [node.item.key, node.item.size, node.item.cost]
            for node in self._queue]
        return {"policy": self.name, "entries": entries}

    def import_state(self, state: Dict[str, object]) -> None:
        """All or nothing: when taking a row raises, the keys taken so far
        are dropped."""
        self._check_importable(state)
        try:
            for key, size, cost in state["entries"]:
                self.on_insert(key, size, cost)
        except BaseException:
            self._queue = DList()
            self._nodes = {}
            raise
