"""CAMP — the paper's contribution (section 2).

CAMP approximates GDS by

1. converting each cost-to-size ratio to an integer (adaptive multiplier,
   :class:`~repro.core.rounding.RatioConverter`),
2. rounding that integer to ``precision`` significant bits
   (:func:`~repro.core.rounding.round_to_precision`), and
3. grouping resident pairs with equal rounded ratio ``c`` into an **LRU
   queue**.  Within a queue, LRU order *is* priority order: each member's
   ``H = L-at-last-request + c``, and ``L`` never decreases, so the head is
   the member with minimum ``H``.

A heap holds the head of every non-empty queue, keyed by ``(head H, head
last-touch sequence)``; the second component reproduces CAMP's LRU
tie-breaking between queues whose heads share an ``H`` value.  The heap is
touched only when a queue's head changes, a queue empties, or a new queue
appears — the source of the order-of-magnitude node-visit savings in the
paper's Figure 4.

With ``precision=None`` (the figure legends' ∞), rounding is the identity
and CAMP makes exactly the same eviction decisions as
:class:`~repro.core.gds.GdsPolicy` — enforced by an equivalence test.

**Hot-path layout.**  ``on_hit``/``on_insert``/``pop_victim`` are the
per-request critical path of every store in the repo, so they are written
allocation-lean: the ratio conversion and significant-bit rounding are
inlined (same arithmetic as :mod:`repro.core.rounding`, which remains the
readable spec), and entries carry ``key``/``size``/``cost`` as plain slots
instead of a :class:`CacheItem` allocation.

The queue-head heap that decides is a plain list of ``(h, seq, head)``
tuples ordered by the C :mod:`heapq` functions, with lazy invalidation:
whenever a queue's head changes a fresh tuple is pushed and recorded as
the queue's ``top``; the old one stays in the list, *stale*, until it
surfaces at the top and is discarded.  A tuple is live exactly while it
is its queue's ``top``.  ``(h, seq)`` is unique per tuple (``seq`` is a
global request counter), so tuples never compare their entries.  An
eviction re-keys the root with one ``heapreplace`` (or drops it with one
``heappop``); the list is compacted back to the live tuples whenever
stale ones outnumber them by more than :data:`STALE_SLACK`, so it never
holds more than twice the live queue count plus that slack.

``stats=True`` (the default) additionally replays every queue-head event
— push, re-key, remove — into a counting
:class:`~repro.structures.dary_heap.DaryHeap` of the chosen ``arity``,
keyed by the same tuples (their unique ``(h, seq)`` decides
every comparison): a mirror that only measures, so ``heap_node_visits`` and
``heap_updates`` keep the seed's Figure 4 meaning while decisions always
come from the :mod:`heapq` index.  Decision equivalence with the
unoptimized seed implementation
(:class:`repro.core.camp_reference.ReferenceCampPolicy`) is pinned by
property tests, stats on and off.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.policy import CacheItem, EvictionPolicy
from repro.core.rounding import RatioConverter
from repro.errors import (
    ConfigurationError,
    DuplicateKeyError,
    EvictionError,
    MissingKeyError,
)
from repro.structures import DaryHeap, DList, DListNode, HeapEntry

__all__ = ["CampPolicy"]

Number = Union[int, float]

#: stale index tuples tolerated beyond the live count before the index is
#: compacted: with only a handful of live queues, compacting as soon as
#: stale outnumber live would rebuild every few head moves
STALE_SLACK = 32


class _CampEntry(DListNode):
    """A resident pair: a linked-list node carrying CAMP bookkeeping.

    ``key``/``size``/``cost`` live as plain slots (building a
    :class:`CacheItem` per insert costs a validated dataclass allocation
    on the hot path); :attr:`item` materializes one on demand for
    introspection callers.
    """

    __slots__ = ("key", "size", "cost", "h", "seq", "ratio_key", "mult",
                 "queue")

    def __init__(self, key: str, size: int, cost: Number, h: int, seq: int,
                 ratio_key: int, mult: int) -> None:
        # DListNode.__init__ inlined (one entry per insert on the hot path)
        self.prev = None
        self.next = None
        self._list = None
        self.key = key
        self.size = size
        self.cost = cost
        self.h = h          # H value fixed at the last request
        self.seq = seq      # global sequence number of the last request
        self.ratio_key = ratio_key  # rounded integer ratio = queue id
        self.mult = mult    # converter multiplier ratio_key was rounded at
        self.queue = None   # owning _CampQueue (set on queue append)

    @property
    def item(self) -> CacheItem:
        """The entry as a :class:`CacheItem` (diagnostics/tests)."""
        return CacheItem(self.key, self.size, self.cost)


class _CampQueue:
    """One LRU queue per distinct rounded cost-to-size ratio."""

    __slots__ = ("ratio_key", "items", "top", "handle")

    def __init__(self, ratio_key: int) -> None:
        self.ratio_key = ratio_key
        self.items = DList()
        self.top = None     # this queue's live (h, seq, head) index tuple
        self.handle = None  # stats mirror handle (stats=True only)


class CampPolicy(EvictionPolicy):
    """Cost Adaptive Multi-queue eviction Policy."""

    name = "camp"

    def __init__(self,
                 precision: Optional[int] = 5,
                 arity: int = 8,
                 reround_on_hit: bool = True,
                 converter: Optional[RatioConverter] = None,
                 stats: bool = True) -> None:
        """``precision`` counts significant bits kept (paper default 5);
        ``None`` disables rounding (the ∞/GDS-equivalent configuration).

        ``reround_on_hit`` applies the paper's "the new value is used for
        all future rounding": a hit recomputes the rounded ratio with the
        current multiplier, possibly migrating the pair to another queue.

        ``stats`` toggles measurement accounting (heap ``node_visits``,
        ``heap_updates``, per-queue creation counters), which the
        ``arity``-ary heap mirror counts.  Figures keep the default;
        production stores pass ``stats=False`` and the counters cost
        nothing — eviction decisions are identical either way.
        """
        if precision is not None and precision < 1:
            raise ConfigurationError(
                f"precision must be >= 1 or None, got {precision}")
        self._precision = precision
        self._stats = stats
        # the deciding queue-head index: a heapq list of (h, seq, head)
        self._index: List[Tuple[int, int, _CampEntry]] = []
        # built either way, so a bad arity fails here; only fed (and so
        # only counting) with stats on
        self._mirror = DaryHeap(arity=arity)
        self._entries: Dict[str, _CampEntry] = {}
        self._queues: Dict[int, _CampQueue] = {}
        # recycled queue shells: under eviction pressure queues run short
        # (often singletons), so the evict-one/insert-one steady state
        # destroys and recreates a queue — plus its list sentinel and
        # heap handle — on almost every request; reuse caps that churn
        self._queue_pool: List[_CampQueue] = []
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
    def _rounded_ratio_of(self, size: int, cost: Number) -> int:
        """``round_to_precision(converter.to_integer(cost, size))``,
        inlined.  Kept bit-identical with :mod:`repro.core.rounding`
        (the readable spec); sizes/costs are pre-validated at insert."""
        multiplier = self._converter._max_size
        if isinstance(cost, int):
            # exact round-half-up of cost * multiplier / size
            value = (2 * cost * multiplier + size) // (2 * size)
        else:
            value = round(cost * multiplier / size)
        if value < 1:
            value = 1
        precision = self._precision
        if precision is not None:
            drop = value.bit_length() - precision
            if drop > 0:
                value = (value >> drop) << drop
        return value

    def _rounded_ratio(self, item: CacheItem) -> int:
        """Spec form of the conversion (delegates to the inlined path)."""
        return self._rounded_ratio_of(item.size, item.cost)

    # ------------------------------------------------------------------
    # queue / heap plumbing
    # ------------------------------------------------------------------
    def _set_top(self, queue: _CampQueue,
                 head: _CampEntry) -> Tuple[int, int, _CampEntry]:
        """Index ``head`` as ``queue``'s live top and return the tuple.
        The previous top goes stale — re-keyed in place when it is the
        root (the minimum queue), which leaves nothing stale behind.  The
        stats mirror is the caller's business."""
        index = self._index
        stale = queue.top
        queue.top = top = (head.h, head.seq, head)
        if index and index[0] is stale:
            heapreplace(index, top)
        else:
            heappush(index, top)
            self._maybe_compact()
        return top

    def _maybe_compact(self) -> None:
        """Rebuild the index from the live tuples alone once stale tuples
        outnumber live ones by more than :data:`STALE_SLACK` — amortized
        O(1) per push, and the list never exceeds twice the live queue
        count plus the slack.  In place: hot paths hold the list."""
        index = self._index
        if len(index) > 2 * len(self._queues) + STALE_SLACK:
            index[:] = [queue.top for queue in self._queues.values()]
            heapify(index)

    def _live_top(self) -> Optional[Tuple[int, int, _CampEntry]]:
        """The minimum live ``(h, seq, head)`` tuple, or None when empty;
        stale tuples met on top on the way are discarded."""
        index = self._index
        while index:
            top = index[0]
            if top[2].queue.top is top:
                return top
            heappop(index)
        return None

    def _append_to_queue(self, entry: _CampEntry) -> None:
        """Append entry at the tail of its queue, creating it if needed."""
        queue = self._queues.get(entry.ratio_key)
        if queue is None:
            pool = self._queue_pool
            if pool:
                queue = pool.pop()
                queue.ratio_key = entry.ratio_key
            else:
                queue = _CampQueue(entry.ratio_key)
            self._queues[entry.ratio_key] = queue
            queue.items.append(entry)
            top = self._set_top(queue, entry)
            if self._stats:
                if queue.handle is None:
                    queue.handle = HeapEntry(top, queue)
                else:
                    queue.handle.priority = top
                self._mirror.push(queue.handle)
                self._heap_updates += 1
                self._queues_created += 1
                if len(self._queues) > self._max_queues:
                    self._max_queues = len(self._queues)
        else:
            # tail append never changes the head, so the heap is untouched —
            # this is the O(1) hit/insert path the paper's Figure 3 shows
            # (splice inlined: the entry is freshly created or detached)
            items = queue.items
            sentinel = items._sentinel
            last = sentinel.prev
            entry.prev = last
            entry.next = sentinel
            last.next = entry
            sentinel.prev = entry
            entry._list = items
            items._size += 1
        entry.queue = queue

    def _detach_from_queue(self, entry: _CampEntry) -> None:
        """Remove entry from its queue, fixing the heap if the head changed."""
        queue = entry.queue
        items = queue.items
        was_head = items.head is entry
        items.remove(entry)
        if not items:
            queue.top = None
            del self._queues[entry.ratio_key]
            if len(self._queue_pool) < 64:
                self._queue_pool.append(queue)
            self._maybe_compact()
            if self._stats:
                self._mirror.remove(queue.handle)
                self._heap_updates += 1
        elif was_head:
            top = self._set_top(queue, items.head)
            if self._stats:
                self._mirror.update(queue.handle, top)
                self._heap_updates += 1

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_hit(self, key: str) -> None:
        entry = self._entries.get(key)
        if entry is None:
            raise MissingKeyError(key)
        self._seq = seq = self._seq + 1
        # Algorithm 1 line 2: L advances to the smallest H among all
        # resident pairs — the minimum queue head, the index's live top.
        # (The pseudocode prints min over M \ {p}; that reading breaks the
        # competitive bound — see repro.core.gds and the competitive-ratio
        # tests — while the Proposition-1 proof describes the global min.)
        top = self._index[0]
        if top[2].queue.top is not top:
            top = self._live_top()
        self._L = L = top[0]
        size = entry.size
        converter = self._converter
        mult = converter._max_size
        if size > mult:
            converter._max_size = mult = size
        if self._reround_on_hit and mult != entry.mult:
            # the multiplier grew since this entry was last rounded; the
            # conversion is deterministic in (size, cost, multiplier), so
            # an unchanged multiplier makes recomputing it a no-op — the
            # overwhelmingly common case once the max size converges
            new_key = self._rounded_ratio_of(size, entry.cost)
            entry.mult = mult
        else:
            new_key = entry.ratio_key
        h = L + new_key
        if new_key == entry.ratio_key:
            queue = entry.queue
            # inlined DList.move_to_tail: the LRU touch is the hottest
            # statement in the library, so the links are respliced here
            # without the method call and membership check (the entry's
            # residency in this queue is a policy invariant)
            sentinel = queue.items._sentinel
            was_head = sentinel.next is entry
            if sentinel.prev is not entry:
                prev = entry.prev
                nxt = entry.next
                prev.next = nxt
                nxt.prev = prev
                last = sentinel.prev
                entry.prev = last
                entry.next = sentinel
                last.next = entry
                sentinel.prev = entry
            entry.h = h
            entry.seq = seq
            if was_head:
                # the head changed (or the singleton's priority did)
                top = self._set_top(queue, sentinel.next)
                if self._stats:
                    self._mirror.update(queue.handle, top)
                    self._heap_updates += 1
        else:
            # the adaptive multiplier grew: the pair migrates queues
            self._detach_from_queue(entry)
            entry.ratio_key = new_key
            entry.h = h
            entry.seq = seq
            self._append_to_queue(entry)

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        if key in self._entries:
            raise DuplicateKeyError(key)
        if size < 1:
            raise ConfigurationError(f"item size must be >= 1, got {size}")
        if cost < 0:
            raise ConfigurationError(f"item cost must be >= 0, got {cost}")
        self._seq = seq = self._seq + 1
        converter = self._converter
        mult = converter._max_size
        if size > mult:
            converter._max_size = mult = size
        ratio_key = self._rounded_ratio_of(size, cost)
        entry = _CampEntry(key, size, cost, self._L + ratio_key, seq,
                           ratio_key, mult)
        self._entries[key] = entry
        queue = self._queues.get(ratio_key)
        if queue is None:
            self._append_to_queue(entry)
        else:
            # existing queue: tail append, heap untouched (inlined splice)
            items = queue.items
            sentinel = items._sentinel
            last = sentinel.prev
            entry.prev = last
            entry.next = sentinel
            last.next = entry
            sentinel.prev = entry
            entry._list = items
            items._size += 1
            entry.queue = queue

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        # line 5: the victim is the head of the minimum-priority queue
        index = self._index
        top = index[0] if index else None
        if top is None or top[2].queue.top is not top:
            top = self._live_top()
            if top is None:
                raise EvictionError("CAMP has nothing to evict")
        entry = top[2]
        queue = entry.queue
        items = queue.items
        # inlined DList.popleft (see on_hit for the splice rationale)
        sentinel = items._sentinel
        head = entry.next
        sentinel.next = head
        head.prev = sentinel
        entry.prev = None
        entry.next = None
        entry._list = None
        items._size = size = items._size - 1
        del self._entries[entry.key]
        if size:
            # the victim's queue is the root: re-key it in place
            queue.top = top = (head.h, head.seq, head)
            heapreplace(index, top)
            if self._stats:
                self._mirror.update(queue.handle, top)
        else:
            heappop(index)
            queue.top = None
            del self._queues[queue.ratio_key]
            pool = self._queue_pool
            if len(pool) < 64:
                pool.append(queue)
            self._maybe_compact()
            if self._stats:
                self._mirror.remove(queue.handle)
        if self._stats:
            self._heap_updates += 1
        # line 6: L becomes the victim's H (the minimum evaluated while the
        # victim still counts as resident) — matching GDS; the survivors-
        # only reading violates Proposition 3, see
        # tests/test_competitive_ratio.py.
        self._L = entry.h
        return entry.key

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
    def stats_enabled(self) -> bool:
        """Whether measurement accounting is compiled into this instance."""
        return self._stats

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
        top = self._live_top()
        return None if top is None else (top[0], top[1])

    # ------------------------------------------------------------------
    # durable state (snapshot/restore hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Everything a restored CAMP needs to evict identically: the
        global clocks L/seq and the adaptive multiplier as scalars, and
        one ``[key, size, cost, H, seq, ratio_key]`` row per member —
        queue by queue in creation order, head-to-tail inside each queue,
        so LRU order survives.  Queue ids (rounded ratios) ride along so
        migration history survives even when the current multiplier
        would round a member into a different queue today."""
        entries = [[e.key, e.size, e.cost, e.h, e.seq, ratio_key]
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
            # mult=-1: a snapshot does not say which multiplier each
            # member was rounded under, so the first hit after a
            # restore always rerounds — exactly the seed's behaviour
            entry = _CampEntry(key, size, cost, h, seq, ratio_key, -1)
            self._entries[key] = entry
            self._append_to_queue(entry)

    def stats(self) -> Dict[str, Union[int, float]]:
        return {
            "heap_node_visits": self._mirror.node_visits,
            "heap_updates": self._heap_updates,
            "heap_size": len(self._queues),
            "queue_count": len(self._queues),
            "queues_created": self._queues_created,
            "max_queues": self._max_queues,
            "inflation": float(self._L),
            "multiplier": self._converter.multiplier,
        }

    def reset_stats(self) -> None:
        self._mirror.reset_visits()
        self._heap_updates = 0
        self._queues_created = 0
        self._max_queues = len(self._queues)

    def check_invariants(self) -> None:
        """Verify CAMP's structural invariants (test hook).

        Within every queue, H and seq must be non-decreasing head-to-tail
        and every member's ratio_key must equal the queue key.  The index
        must be heap-ordered with unique ``(h, seq)`` keys and hold exactly
        one live tuple per non-empty queue — its ``top``, keyed by the
        queue's head — so that its first live tuple is the minimum queue
        head; stale tuples must not outnumber live ones by more than
        :data:`STALE_SLACK`.  With stats on, the mirror must carry exactly
        the queues, keyed by their live tuples.
        """
        index = self._index
        queues = self._queues
        assert len({(t[0], t[1]) for t in index}) == len(index), \
            "index keys (h, seq) not unique"
        for i in range(1, len(index)):
            assert index[(i - 1) // 2] <= index[i], "index not heap-ordered"
        live = [t for t in index if t[2].queue.top is t]
        assert len(live) == len(queues), "not one live tuple per queue"
        assert len(index) <= 2 * len(queues) + STALE_SLACK, \
            "stale tuples unbounded"
        if self._stats:
            assert len(self._mirror) == len(queues)
        total = 0
        for ratio_key, queue in queues.items():
            assert queue.items, "empty queue retained"
            head = queue.items.head
            assert queue.top[2] is head, "queue top is not its head"
            assert queue.top[:2] == (head.h, head.seq), "stale queue top"
            if self._stats:
                assert queue.handle.priority is queue.top
            prev_h = prev_seq = None
            for node in queue.items:
                total += 1
                assert node.ratio_key == ratio_key
                if prev_h is not None:
                    assert node.h >= prev_h, "queue not ordered by H"
                    assert node.seq > prev_seq, "queue not ordered by seq"
                prev_h, prev_seq = node.h, node.seq
        assert total == len(self._entries)
        if queues:
            probe = list(index)
            while probe[0][2].queue.top is not probe[0]:
                heappop(probe)
            assert probe[0] == min(queue.top for queue in queues.values()), \
                "live top is not the minimum queue head"
