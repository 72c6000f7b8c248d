"""The seed (pre-optimization) CAMP implementation, frozen as a reference.

PR 5 rewrote :class:`repro.core.camp.CampPolicy`'s hot path (inlined queue
moves, inlined ratio arithmetic, optional stats accounting).  This module is
a verbatim copy of the implementation *before* that rewrite.  It exists so
the optimized policy can be pinned decision-for-decision against a known
good baseline:

* ``tests/test_hotpath_equivalence.py`` property-tests that optimized CAMP
  (stats accounting on and off) makes byte-identical eviction decisions on
  random traces;
* ``benchmarks/test_hotpath.py`` replays the primary figure trace through
  both and asserts identical eviction sequences while measuring speedup.

Do not optimize or otherwise modify this file: its value is that it stays
behind while ``camp.py`` moves.
"""


from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.policy import CacheItem, EvictionPolicy
from repro.core.rounding import RatioConverter, round_to_precision
from repro.errors import (
    ConfigurationError,
    DuplicateKeyError,
    EvictionError,
    MissingKeyError,
)
from repro.structures import DList, DListNode, make_heap

__all__ = ["ReferenceCampPolicy"]

Number = Union[int, float]


class _CampEntry(DListNode):
    """A resident pair: a linked-list node carrying CAMP bookkeeping."""

    __slots__ = ("item", "h", "seq", "ratio_key")

    def __init__(self, item: CacheItem, h: int, seq: int, ratio_key: int) -> None:
        super().__init__()
        self.item = item
        self.h = h          # H value fixed at the last request
        self.seq = seq      # global sequence number of the last request
        self.ratio_key = ratio_key  # rounded integer ratio = queue id


class _CampQueue:
    """One LRU queue per distinct rounded cost-to-size ratio."""

    __slots__ = ("ratio_key", "items", "handle")

    def __init__(self, ratio_key: int) -> None:
        self.ratio_key = ratio_key
        self.items = DList()
        self.handle = None  # heap handle; set right after creation

    def head_priority(self) -> Tuple[int, int]:
        head = self.items.head
        assert head is not None
        return (head.h, head.seq)


class ReferenceCampPolicy(EvictionPolicy):
    """Cost Adaptive Multi-queue eviction Policy."""

    name = "camp"  # same registry name: state files interchange with CampPolicy

    def __init__(self,
                 precision: Optional[int] = 5,
                 heap_kind: str = "dary",
                 arity: int = 8,
                 reround_on_hit: bool = True,
                 converter: Optional[RatioConverter] = None) -> None:
        """``precision`` counts significant bits kept (paper default 5);
        ``None`` disables rounding (the ∞/GDS-equivalent configuration).

        ``reround_on_hit`` applies the paper's "the new value is used for
        all future rounding": a hit recomputes the rounded ratio with the
        current multiplier, possibly migrating the pair to another queue.
        """
        if precision is not None and precision < 1:
            raise ConfigurationError(
                f"precision must be >= 1 or None, got {precision}")
        self._precision = precision
        self._heap = make_heap(heap_kind, arity=arity)
        self._entry_factory = type(self._heap).entry_type
        self._entries: Dict[str, _CampEntry] = {}
        self._queues: Dict[int, _CampQueue] = {}
        self._reround_on_hit = reround_on_hit
        self._converter = converter if converter is not None else RatioConverter()
        self._L = 0
        self._seq = 0
        self._heap_updates = 0
        self._queues_created = 0
        self._max_queues = 0

    # ------------------------------------------------------------------
    # rounded ratio
    # ------------------------------------------------------------------
    def _rounded_ratio(self, item: CacheItem) -> int:
        return round_to_precision(
            self._converter.to_integer(item.cost, item.size), self._precision)

    # ------------------------------------------------------------------
    # queue / heap plumbing
    # ------------------------------------------------------------------
    def _append_to_queue(self, entry: _CampEntry) -> None:
        """Append entry at the tail of its queue, creating it if needed."""
        queue = self._queues.get(entry.ratio_key)
        if queue is None:
            queue = _CampQueue(entry.ratio_key)
            self._queues[entry.ratio_key] = queue
            queue.items.append(entry)
            queue.handle = self._entry_factory(queue.head_priority(), queue)
            self._heap.push(queue.handle)
            self._heap_updates += 1
            self._queues_created += 1
            if len(self._queues) > self._max_queues:
                self._max_queues = len(self._queues)
        else:
            # tail append never changes the head, so the heap is untouched —
            # this is the O(1) hit/insert path the paper's Figure 3 shows.
            queue.items.append(entry)

    def _detach_from_queue(self, entry: _CampEntry) -> None:
        """Remove entry from its queue, fixing the heap if the head changed."""
        queue = self._queues[entry.ratio_key]
        was_head = queue.items.head is entry
        queue.items.remove(entry)
        if not queue.items:
            self._heap.remove(queue.handle)
            self._heap_updates += 1
            del self._queues[entry.ratio_key]
        elif was_head:
            self._heap.update(queue.handle, queue.head_priority())
            self._heap_updates += 1

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_hit(self, key: str) -> None:
        entry = self._entries.get(key)
        if entry is None:
            raise MissingKeyError(key)
        self._seq += 1
        # Algorithm 1 line 2: L advances to the smallest H among all
        # resident pairs — the minimum queue head, an O(1) heap peek.
        # (The pseudocode prints min over M \ {p}; that reading breaks the
        # competitive bound — see repro.core.gds and the competitive-ratio
        # tests — while the Proposition-1 proof describes the global min.)
        self._L = self._heap.peek().priority[0]
        self._converter.observe(entry.item.size)
        if self._reround_on_hit:
            new_key = self._rounded_ratio(entry.item)
        else:
            new_key = entry.ratio_key
        h = self._L + new_key
        if new_key == entry.ratio_key:
            queue = self._queues[entry.ratio_key]
            was_head = queue.items.head is entry
            queue.items.move_to_tail(entry)
            entry.h = h
            entry.seq = self._seq
            if was_head:
                # the head changed (or the singleton's priority did)
                self._heap.update(queue.handle, queue.head_priority())
                self._heap_updates += 1
        else:
            # the adaptive multiplier grew: the pair migrates queues
            self._detach_from_queue(entry)
            entry.ratio_key = new_key
            entry.h = h
            entry.seq = self._seq
            self._append_to_queue(entry)

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        if key in self._entries:
            raise DuplicateKeyError(key)
        self._seq += 1
        item = CacheItem(key, size, cost)
        self._converter.observe(size)
        ratio_key = self._rounded_ratio(item)
        entry = _CampEntry(item, self._L + ratio_key, self._seq, ratio_key)
        self._entries[key] = entry
        self._append_to_queue(entry)

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        if not self._heap:
            raise EvictionError("CAMP has nothing to evict")
        # line 5: the victim is the head of the minimum-priority queue
        queue: _CampQueue = self._heap.peek().item
        entry = queue.items.popleft()
        del self._entries[entry.item.key]
        if queue.items:
            self._heap.update(queue.handle, queue.head_priority())
            self._heap_updates += 1
        else:
            self._heap.remove(queue.handle)
            self._heap_updates += 1
            del self._queues[queue.ratio_key]
        # line 6: L becomes the victim's H (the minimum evaluated while the
        # victim still counts as resident) — matching GDS; the survivors-
        # only reading violates Proposition 3, see
        # tests/test_competitive_ratio.py.
        self._L = entry.h
        return entry.item.key

    def on_remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            raise MissingKeyError(key)
        self._detach_from_queue(entry)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def precision(self) -> Optional[int]:
        return self._precision

    @property
    def inflation(self) -> int:
        """The global offset L."""
        return self._L

    @property
    def converter(self) -> RatioConverter:
        return self._converter

    @property
    def queue_count(self) -> int:
        """Number of non-empty LRU queues (the y-axis of Figure 5b)."""
        return len(self._queues)

    def queue_lengths(self) -> Dict[int, int]:
        """Mapping rounded-ratio -> queue length (diagnostics)."""
        return {k: len(q.items) for k, q in self._queues.items()}

    def iter_queue(self, ratio_key: int) -> Iterator[_CampEntry]:
        """Yield entries of one queue head-to-tail (used by invariant tests)."""
        queue = self._queues.get(ratio_key)
        if queue is None:
            return iter(())
        return iter(queue.items)  # type: ignore[return-value]

    def priority_of(self, key: str) -> int:
        """H(key) for a resident key."""
        entry = self._entries.get(key)
        if entry is None:
            raise MissingKeyError(key)
        return entry.h

    def peek_min_priority(self) -> Optional[Tuple[int, int]]:
        """(H, seq) of the current eviction candidate, or None when empty."""
        if not self._heap:
            return None
        return self._heap.peek().priority

    # ------------------------------------------------------------------
    # durable state (snapshot/restore hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Everything a restored CAMP needs to evict identically: the
        global clocks L/seq and the adaptive multiplier as scalars, and
        one ``[key, size, cost, H, seq, ratio_key]`` row per member —
        queue by queue, head-to-tail inside each queue, so LRU order
        survives."""
        entries = [[e.item.key, e.item.size, e.item.cost, e.h, e.seq,
                    ratio_key]
                   for ratio_key, queue in self._queues.items()
                   for e in queue.items]
        return {
            "policy": self.name,
            "precision": self._precision,
            "reround_on_hit": self._reround_on_hit,
            "L": self._L,
            "seq": self._seq,
            "multiplier": self._converter.multiplier,
            "entries": entries,
        }

    def import_state(self, state: Dict[str, object]) -> None:
        self._check_importable(state)
        self._precision = state["precision"]
        self._reround_on_hit = bool(state["reround_on_hit"])
        self._L = state["L"]
        self._seq = state["seq"]
        self._converter.observe(int(state["multiplier"]))
        for key, size, cost, h, seq, ratio_key in state["entries"]:
            if key in self._entries:
                raise ConfigurationError(
                    f"snapshot lists {key!r} in two queues")
            entry = _CampEntry(CacheItem(key, size, cost), h, seq, ratio_key)
            self._entries[key] = entry
            self._append_to_queue(entry)

    def stats(self) -> Dict[str, Union[int, float]]:
        return {
            "heap_node_visits": self._heap.node_visits,
            "heap_updates": self._heap_updates,
            "heap_size": len(self._heap),
            "queue_count": len(self._queues),
            "queues_created": self._queues_created,
            "max_queues": self._max_queues,
            "inflation": float(self._L),
            "multiplier": self._converter.multiplier,
        }

    def reset_stats(self) -> None:
        self._heap.reset_visits()
        self._heap_updates = 0
        self._queues_created = 0
        self._max_queues = len(self._queues)

    def check_invariants(self) -> None:
        """Verify CAMP's structural invariants (test hook).

        Within every queue, H and seq must be non-decreasing head-to-tail
        and every member's ratio_key must equal the queue key; the heap must
        carry exactly the non-empty queues keyed by their heads.
        """
        assert len(self._heap) == len(self._queues)
        total = 0
        for ratio_key, queue in self._queues.items():
            assert queue.items, "empty queue retained"
            assert queue.handle.priority == queue.head_priority()
            prev_h = prev_seq = None
            for node in queue.items:
                total += 1
                assert node.ratio_key == ratio_key
                if prev_h is not None:
                    assert node.h >= prev_h, "queue not ordered by H"
                    assert node.seq > prev_seq, "queue not ordered by seq"
                prev_h, prev_seq = node.h, node.seq
        assert total == len(self._entries)
