"""Priority queues and linked lists used by every eviction policy.

Three interchangeable addressable min-heaps are provided:

* :class:`~repro.structures.dary_heap.DaryHeap` — the 8-ary implicit heap
  the paper actually uses (default backend),
* :class:`~repro.structures.pairing_heap.PairingHeap`,
* :class:`~repro.structures.fibonacci_heap.FibonacciHeap` — the textbook
  choice the paper cites for a straightforward GDS.

All three share an interface (``push`` / ``pop`` / ``peek`` /
``peek_second`` / ``update`` / ``remove`` / ``node_visits``), so GDS and
CAMP can be benchmarked over any of them (the "heap kind" ablation):
GDS decides on the chosen heap, while CAMP decides on its own
:mod:`heapq` index and feeds the chosen heap only as a counting mirror.
:func:`make_heap` builds one by name.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.structures.countmin import CountMinSketch
from repro.structures.dary_heap import DaryHeap, HeapEntry
from repro.structures.dlist import DList, DListNode
from repro.structures.fibonacci_heap import FibEntry, FibonacciHeap
from repro.structures.pairing_heap import PairingEntry, PairingHeap

__all__ = [
    "DList",
    "DListNode",
    "DaryHeap",
    "HeapEntry",
    "PairingHeap",
    "PairingEntry",
    "FibonacciHeap",
    "FibEntry",
    "CountMinSketch",
    "AddressableHeap",
    "make_heap",
    "HEAP_KINDS",
]


@runtime_checkable
class AddressableHeap(Protocol):
    """Structural type implemented by all heap backends in this package."""

    node_visits: int

    def push(self, entry: Any) -> Any: ...

    def pop(self) -> Any: ...

    def peek(self) -> Any: ...

    def peek_second(self) -> Optional[Any]: ...

    def update(self, entry: Any, priority: Any) -> None: ...

    def remove(self, entry: Any) -> None: ...

    def reset_visits(self) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, entry: Any) -> bool: ...


# Each heap advertises the handle class callers should instantiate.
DaryHeap.entry_type = HeapEntry  # type: ignore[attr-defined]
PairingHeap.entry_type = PairingEntry  # type: ignore[attr-defined]
FibonacciHeap.entry_type = FibEntry  # type: ignore[attr-defined]

#: Heap kinds accepted by :func:`make_heap`.
HEAP_KINDS = ("dary", "binary", "pairing", "fibonacci")


def make_heap(kind: str = "dary", arity: int = 8) -> AddressableHeap:
    """Build a heap backend by name.

    ``kind`` is one of ``"dary"`` (uses ``arity``, default 8 per the paper),
    ``"binary"`` (shorthand for a 2-ary implicit heap), ``"pairing"`` or
    ``"fibonacci"``.  Every backend counts ``node_visits`` (Figure 4);
    CAMP uses one only as its ``stats=True`` measurement mirror.
    """
    if kind == "dary":
        return DaryHeap(arity=arity)
    if kind == "binary":
        return DaryHeap(arity=2)
    if kind == "pairing":
        return PairingHeap()
    if kind == "fibonacci":
        return FibonacciHeap()
    raise ConfigurationError(
        f"unknown heap kind {kind!r}; expected one of {HEAP_KINDS}")
