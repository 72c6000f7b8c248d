"""d-ary implicit min-heap with external handles and node-visit accounting.

The paper implements both GDS and CAMP on top of an *8-ary implicit heap*
(branching factor at most 8, array-backed) following Larkin, Sen and
Tarjan's empirical study of priority queues.  Figure 4 of the paper reports
the **number of heap nodes visited** by each algorithm; to regenerate that
figure, this heap counts every array slot it inspects or moves while
sifting.  GDS and CAMP use the identical structure, so their visit counts
are directly comparable.

Handles (:class:`HeapEntry`) let callers update or remove an element in
place — required by GDS (priority bump on every hit) and by CAMP (queue-head
priority changes).

Visit accounting is a *measurement* feature and is paid inside every
sift.  GDS decides on this heap; CAMP decides on a C :mod:`heapq` index
of its queue heads and, with ``stats=True``, replays the same
push/update/remove events into one of these heaps only to count them
(see :mod:`repro.core.camp`), so its Figure 4 counts stay comparable
with GDS's.
"""

from __future__ import annotations

from typing import Any, Generic, List, Optional, TypeVar

from repro.errors import ReproError

__all__ = ["HeapEntry", "DaryHeap"]

T = TypeVar("T")


class HeapEntry(Generic[T]):
    """A handle to an element stored in a :class:`DaryHeap`.

    ``priority`` must be totally ordered (ints or tuples of ints here, so
    eviction order is exact — no float ties).  ``item`` is an arbitrary
    payload.  ``index`` is maintained by the heap; ``-1`` means detached.
    """

    __slots__ = ("priority", "item", "index")

    def __init__(self, priority: Any, item: T) -> None:
        self.priority = priority
        self.item = item
        self.index = -1

    @property
    def in_heap(self) -> bool:
        return self.index >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapEntry(priority={self.priority!r}, item={self.item!r})"


class DaryHeap(Generic[T]):
    """Array-backed min-heap with branching factor ``arity`` (default 8).

    Supports O(log_d n) push/pop/update/remove through handles, O(1) peek,
    and O(d) :meth:`peek_second` (the second-smallest element of a heap is
    always among the root's children).
    """

    __slots__ = ("_arity", "_data", "node_visits")

    def __init__(self, arity: int = 8) -> None:
        if arity < 2:
            raise ReproError(f"heap arity must be >= 2, got {arity}")
        self._arity = arity
        self._data: List[HeapEntry[T]] = []
        #: cumulative count of heap-array slots inspected or moved; the
        #: quantity plotted in Figure 4 of the paper.
        self.node_visits = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self._arity

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __contains__(self, entry: HeapEntry[T]) -> bool:
        i = entry.index
        return 0 <= i < len(self._data) and self._data[i] is entry

    def reset_visits(self) -> None:
        """Zero the node-visit counter (start of a measured run)."""
        self.node_visits = 0

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def push(self, entry: HeapEntry[T]) -> HeapEntry[T]:
        """Insert a detached entry; returns it for chaining."""
        if entry.in_heap:
            raise ReproError("entry is already in a heap")
        entry.index = len(self._data)
        self._data.append(entry)
        self.node_visits += 1
        self._sift_up(entry.index)
        return entry

    def peek(self) -> HeapEntry[T]:
        """The minimum entry without removing it."""
        if not self._data:
            raise ReproError("peek on an empty heap")
        return self._data[0]

    def peek_second(self) -> Optional[HeapEntry[T]]:
        """The second-smallest entry, or ``None`` if fewer than two elements.

        GDS needs ``min H(q) over q in M \\ {p}`` when ``p`` happens to be
        the heap minimum; that value is the priority of the best root child.
        """
        n = len(self._data)
        if n < 2:
            return None
        first = 1
        last = min(n, self._arity + 1)
        best = self._data[first]
        self.node_visits += 1
        for i in range(first + 1, last):
            self.node_visits += 1
            if self._data[i].priority < best.priority:
                best = self._data[i]
        return best

    def pop(self) -> HeapEntry[T]:
        """Remove and return the minimum entry."""
        if not self._data:
            raise ReproError("pop from an empty heap")
        top = self._data[0]
        self._detach(0)
        return top

    def remove(self, entry: HeapEntry[T]) -> None:
        """Remove an arbitrary entry through its handle."""
        if entry not in self:
            raise ReproError("entry is not in this heap")
        self._detach(entry.index)

    def update(self, entry: HeapEntry[T], priority: Any) -> None:
        """Change ``entry``'s priority and restore heap order."""
        data = self._data
        i = entry.index
        # __contains__ inlined: CAMP's stats mirror re-keys on every
        # queue-head change
        if not (0 <= i < len(data) and data[i] is entry):
            raise ReproError("entry is not in this heap")
        old = entry.priority
        entry.priority = priority
        self.node_visits += 1
        if priority < old:
            self._sift_up(entry.index)
        elif old < priority:
            self._sift_down(entry.index)

    def clear(self) -> None:
        for entry in self._data:
            entry.index = -1
        self._data.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _detach(self, index: int) -> None:
        data = self._data
        victim = data[index]
        last = data.pop()
        self.node_visits += 1
        victim.index = -1
        if last is victim:
            return
        data[index] = last
        last.index = index
        # restore order in whichever direction is needed
        if index > 0 and last.priority < data[(index - 1) // self._arity].priority:
            self._sift_up(index)
        else:
            self._sift_down(index)

    def _sift_up(self, index: int) -> None:
        data = self._data
        entry = data[index]
        d = self._arity
        while index > 0:
            parent = (index - 1) // d
            self.node_visits += 1
            if data[parent].priority <= entry.priority:
                break
            data[index] = data[parent]
            data[index].index = index
            index = parent
        data[index] = entry
        entry.index = index

    def _sift_down(self, index: int) -> None:
        data = self._data
        entry = data[index]
        d = self._arity
        n = len(data)
        while True:
            first_child = index * d + 1
            if first_child >= n:
                break
            last_child = min(first_child + d, n)
            best = first_child
            self.node_visits += 1
            for c in range(first_child + 1, last_child):
                self.node_visits += 1
                if data[c].priority < data[best].priority:
                    best = c
            if data[best].priority < entry.priority:
                data[index] = data[best]
                data[index].index = index
                index = best
            else:
                break
        data[index] = entry
        entry.index = index

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise if the heap order or index map is corrupt."""
        d = self._arity
        for i, entry in enumerate(self._data):
            if entry.index != i:
                raise ReproError(f"index map corrupt at slot {i}")
            if i > 0:
                parent = (i - 1) // d
                if self._data[parent].priority > entry.priority:
                    raise ReproError(f"heap order violated at slot {i}")

