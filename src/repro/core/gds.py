"""Greedy Dual Size, exactly as printed in Algorithm 1 of the paper.

Every resident pair ``p`` carries ``H(p) = L + cost(p)/size(p)`` where ``L``
is a global non-decreasing offset.  On a *hit*, line 2 sets ``L`` to the
minimum ``H`` among the **other** resident pairs before refreshing ``H(p)``;
on a *miss*, pairs with minimum ``H`` are evicted until the incoming pair
fits, updating ``L`` to the new minimum after each eviction (line 6).

This implementation keeps all resident pairs in one addressable heap (the
paper's straightforward structure of Figure 1a), so a hit costs a full heap
update — the inefficiency CAMP removes.  The heap is the 8-ary implicit
:class:`~repro.structures.dary_heap.DaryHeap` (``arity`` sets its
branching factor) and counts node visits for Figure 4.

Two faithfulness knobs:

* ``integerize`` (default True) converts ratios to integers through the
  shared :class:`~repro.core.rounding.RatioConverter`, matching the paper's
  "∞ precision" configuration ("no rounding is done after the initial
  cost-to-size ratio is rounded to an integer ... this version corresponds
  to the standard GDS algorithm").  With it, GDS and CAMP at infinite
  precision make **identical** eviction decisions — a tested property.
* ties in ``H`` are broken by least-recent use (the paper's GDS breaks ties
  arbitrarily; deterministic LRU tie-breaking is what CAMP does and makes
  runs reproducible).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.policy import CacheItem, EvictionPolicy
from repro.core.rounding import RatioConverter
from repro.errors import (
    ConfigurationError,
    DuplicateKeyError,
    EvictionError,
    MissingKeyError,
)
from repro.structures import DaryHeap, HeapEntry

__all__ = ["GdsPolicy"]

Number = Union[int, float]


class GdsPolicy(EvictionPolicy):
    """Exact Greedy Dual Size over a single addressable heap."""

    name = "gds"

    def __init__(self,
                 arity: int = 8,
                 integerize: bool = True,
                 converter: Optional[RatioConverter] = None) -> None:
        self._heap = DaryHeap(arity=arity)
        self._entries: Dict[str, HeapEntry] = {}
        self._integerize = integerize
        self._converter = converter if converter is not None else RatioConverter()
        self._L: Number = 0
        self._seq = 0
        self._heap_updates = 0

    # ------------------------------------------------------------------
    # ratio handling
    # ------------------------------------------------------------------
    def _ratio(self, item: CacheItem) -> Number:
        """cost/size, integerized through the adaptive converter by default."""
        if self._integerize:
            return self._converter.to_integer(item.cost, item.size)
        return item.cost / item.size

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_hit(self, key: str) -> None:
        entry = self._entries.get(key)
        if entry is None:
            raise MissingKeyError(key)
        self._seq += 1
        item: CacheItem = entry.item
        # Algorithm 1 line 2.  The pseudocode prints the min over M \ {p},
        # but that reading lets L leap past the hit pair's own (minimal) H
        # and numerically violates Young's k-competitiveness — see
        # tests/test_competitive_ratio.py.  The paper's Proposition-1 proof
        # describes lines 2 and 6 as "the smallest H-value among all the
        # key-value pairs in the KVS", which is what we implement: the
        # global minimum including p (an O(1) heap peek).
        self._L = self._heap.peek().priority[0]
        # line 8: H(p) <- L + cost(p)/size(p)
        self._converter.observe(item.size)
        priority = (self._L + self._ratio(item), self._seq)
        self._heap.update(entry, priority)
        self._heap_updates += 1

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        if key in self._entries:
            raise DuplicateKeyError(key)
        self._seq += 1
        item = CacheItem(key, size, cost)
        self._converter.observe(size)
        entry = HeapEntry((self._L + self._ratio(item), self._seq), item)
        self._heap.push(entry)
        self._entries[key] = entry
        self._heap_updates += 1

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        if not self._heap:
            raise EvictionError("GDS has nothing to evict")
        # line 5: evict the q with the smallest H(q)
        entry = self._heap.pop()
        self._heap_updates += 1
        del self._entries[entry.item.key]
        # line 6: L <- min_{q in M} H(q), evaluated while the victim still
        # counts as resident — i.e. L becomes the victim's own H (the
        # classic Cao-Irani rule).  Reading line 6 as the minimum over the
        # *survivors* breaks Young's k-competitiveness (with k=2, L jumps
        # to an expensive survivor's H and newly inserted cheap pairs then
        # outrank it); see tests/test_competitive_ratio.py.
        self._L = entry.priority[0]
        return entry.item.key

    def on_remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            raise MissingKeyError(key)
        self._heap.remove(entry)
        self._heap_updates += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def inflation(self) -> Number:
        """The global offset L."""
        return self._L

    @property
    def converter(self) -> RatioConverter:
        return self._converter

    def priority_of(self, key: str) -> Number:
        """H(key) for a resident key (used by invariant tests)."""
        entry = self._entries.get(key)
        if entry is None:
            raise MissingKeyError(key)
        return entry.priority[0]

    def peek_min_priority(self) -> Optional[Number]:
        """Smallest H among residents, or None when empty."""
        if not self._heap:
            return None
        return self._heap.peek().priority[0]

    # ------------------------------------------------------------------
    # durable state (snapshot/restore hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Residents as ``[key, size, cost, H, seq]`` rows with their
        fixed priorities, plus the global clocks — heap shape is
        irrelevant, priorities are total."""
        entries = [[e.item.key, e.item.size, e.item.cost,
                    e.priority[0], e.priority[1]]
                   for e in self._entries.values()]
        return {
            "policy": self.name,
            "integerize": self._integerize,
            "L": self._L,
            "seq": self._seq,
            "multiplier": self._converter.multiplier,
            "entries": entries,
        }

    def import_state(self, state: Dict[str, object]) -> None:
        self._check_importable(state)
        self._integerize = bool(state["integerize"])
        self._L = state["L"]
        self._seq = state["seq"]
        self._converter.observe(int(state["multiplier"]))
        for row in state["entries"]:
            key = row[0]
            if key in self._entries:
                raise ConfigurationError(f"snapshot lists {key!r} twice")
            entry = HeapEntry((row[3], row[4]),
                              CacheItem(key, row[1], row[2]))
            self._heap.push(entry)
            self._entries[key] = entry

    def stats(self) -> Dict[str, Union[int, float]]:
        return {
            "heap_node_visits": self._heap.node_visits,
            "heap_updates": self._heap_updates,
            "heap_size": len(self._heap),
            "inflation": float(self._L),
            "multiplier": self._converter.multiplier,
        }

    def reset_stats(self) -> None:
        self._heap.reset_visits()
        self._heap_updates = 0
