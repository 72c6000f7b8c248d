"""Priority queues and linked lists used by every eviction policy.

:class:`~repro.structures.dary_heap.DaryHeap` is the addressable implicit
min-heap the paper uses (8-ary by default; ``arity=2`` is a binary heap).
It counts ``node_visits`` for Figure 4: GDS decides on it, while CAMP
decides on its own :mod:`heapq` index and feeds a ``DaryHeap`` only as a
counting mirror.
"""

from __future__ import annotations

from repro.structures.countmin import CountMinSketch
from repro.structures.dary_heap import DaryHeap, HeapEntry
from repro.structures.dlist import DList, DListNode

__all__ = [
    "DList",
    "DListNode",
    "DaryHeap",
    "HeapEntry",
    "CountMinSketch",
]
