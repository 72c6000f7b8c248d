"""The KVS memory simulator, its metrics, and the Store facade over it."""

from __future__ import annotations

from repro.cache.kvs import KVS, CacheListener
from repro.cache.metrics import (
    OccupancyTracker,
    PerNamespaceMetrics,
    SimulationMetrics,
    WindowedMetrics,
    default_namespace,
)
from repro.cache.async_store import AsyncStore
from repro.cache.outcomes import AccessResult, BatchResult, Computed, Outcome
from repro.cache.store import Store, StoreConfig

__all__ = [
    "KVS",
    "CacheListener",
    "Store",
    "AsyncStore",
    "StoreConfig",
    "Outcome",
    "AccessResult",
    "BatchResult",
    "Computed",
    "SimulationMetrics",
    "OccupancyTracker",
    "WindowedMetrics",
    "PerNamespaceMetrics",
    "default_namespace",
]
