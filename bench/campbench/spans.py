"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``(name, start, end, parent, request)``.  They are kept as flat
arrays in memory and written out once, when the run ends.  Spans nest
wherever a public constructor accepts an instance: :class:`PolicyProxy`
goes into ``StoreConfig.policy(instance)`` so a store call's span
contains the policy events it caused, and :class:`EngineProxy` goes into
``ServerSession(engine)`` / ``LoopbackClient(engine)`` so a protocol
span contains the engine call it made.  A layer's self time is its
span's duration minus its children's.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter_ns
from typing import Dict, List, Optional

from repro.core.policy import CacheItem, EvictionPolicy

__all__ = ["Tracer", "PolicyProxy", "EngineProxy"]


class Tracer:
    """Flat in-memory span store with a stack for parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self._stack: List[int] = []
        self._request = -1       # a span with no parent opens a request

    def name(self, text: str) -> int:
        """Intern a span name once, outside the timed path."""
        ident = self._name_ids.get(text)
        if ident is None:
            ident = self._name_ids[text] = len(self.names)
            self.names.append(text)
        return ident

    def clear(self) -> None:
        """Forget every span recorded so far (names stay interned)."""
        for column in (self.name_id, self.start, self.end, self.parent,
                       self.request):
            del column[:]
        self._request = -1

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        if not stack:
            self._request += 1
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self._request)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, call):
        """``call`` with every invocation recorded as a span ``name``."""
        ident = self.name(name)
        begin, finish = self.begin, self.finish

        def spanned(*args, **kwargs):
            span = begin(ident)
            result = call(*args, **kwargs)
            finish(span)
            return result
        return spanned

    # ------------------------------------------------------------------
    # analysis (after the run)
    # ------------------------------------------------------------------
    def durations_us(self, name: str) -> List[float]:
        ident = self._name_ids.get(name)
        return [(self.end[i] - self.start[i]) / 1e3
                for i in range(len(self.start)) if self.name_id[i] == ident]

    def self_us(self, name: str) -> List[float]:
        """Per span of ``name``: its duration minus its direct children's."""
        ident = self._name_ids.get(name)
        child_ns = [0] * len(self.start)
        for i in range(len(self.start)):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        return [(self.end[i] - self.start[i] - child_ns[i]) / 1e3
                for i in range(len(self.start)) if self.name_id[i] == ident]

    def total_us(self, name: str) -> float:
        return sum(self.durations_us(name))

    def median_us(self, name: str) -> float:
        values = self.durations_us(name)
        return statistics.median(values) if values else 0.0

    def dump(self, path: str, limit: int = 50_000) -> None:
        """Write the first ``limit`` spans; the file is for reading one
        request's anatomy, the metrics come from the arrays."""
        count = min(limit, len(self.start))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "spans_total": len(self.start),
                "name": self.name_id[:count].tolist(),
                "start_ns": self.start[:count].tolist(),
                "end_ns": self.end[:count].tolist(),
                "parent": self.parent[:count].tolist(),
                "request": self.request[:count].tolist(),
            }, handle)


class PolicyProxy(EvictionPolicy):
    """Delegates every policy event to ``inner`` inside a span.

    The four events the store drives are traced; the capacity queries
    are forwarded untimed because they are a few instructions each.
    """

    def __init__(self, inner: EvictionPolicy, tracer: Tracer) -> None:
        self._inner = inner
        self.name = inner.name
        self._begin = tracer.begin
        self._finish = tracer.finish
        self._hit = tracer.name("core.on_hit")
        self._insert = tracer.name("core.on_insert")
        self._evict = tracer.name("core.pop_victim")
        self._remove = tracer.name("core.on_remove")

    # spelled out rather than built with Tracer.wrap: one call layer
    # fewer between the store and the policy keeps the proxy's own cost,
    # which lands in the store's self time, as small as it can be
    def on_hit(self, key: str) -> None:
        span = self._begin(self._hit)
        self._inner.on_hit(key)
        self._finish(span)

    def on_insert(self, key: str, size: int, cost) -> None:
        span = self._begin(self._insert)
        self._inner.on_insert(key, size, cost)
        self._finish(span)

    def pop_victim(self, incoming: Optional[CacheItem] = None) -> str:
        span = self._begin(self._evict)
        victim = self._inner.pop_victim(incoming)
        self._finish(span)
        return victim

    def on_remove(self, key: str) -> None:
        span = self._begin(self._remove)
        self._inner.on_remove(key)
        self._finish(span)

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def wants_eviction(self, incoming: CacheItem, free_bytes: int) -> bool:
        return self._inner.wants_eviction(incoming, free_bytes)

    def fits(self, incoming: CacheItem, capacity: int) -> bool:
        return self._inner.fits(incoming, capacity)

    def stats(self):
        return self._inner.stats()


class EngineProxy:
    """Delegates the engine surface ``execute_command`` uses; ``get`` and
    ``set`` run inside spans, everything else is forwarded as is."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self.get = tracer.wrap("engine.get", inner.get)
        self.set = tracer.wrap("engine.set", inner.set)

    def __getattr__(self, attribute: str):
        return getattr(self._inner, attribute)
