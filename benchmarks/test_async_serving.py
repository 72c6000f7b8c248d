"""Async serving surface: single-flight coalescing.

A thundering herd of concurrent `get_or_compute` misses on one key pays
its loader exactly once, in both the sync `Store` (per-key in-flight
flights) and `AsyncStore` (shared load tasks): duplicate loads per hot
key ~= 1.  Served throughput and latency are measured by `bench/`'s
`served_getset` workload.
"""

import asyncio
import threading
import time

from conftest import bench_scale

from repro.analysis import Table
from repro.cache import StoreConfig

HERD = {"tiny": (8, 4), "default": (32, 8), "full": (64, 16)}


def test_single_flight_collapses_thundering_herds(save_tables):
    scale = bench_scale()
    threads_n, hot_keys = HERD.get(scale, HERD["default"])

    # -- sync Store: one herd of threads per hot key ------------------
    store = StoreConfig(64 << 20).policy("camp").thread_safe().build()
    herd_calls = []
    barrier = threading.Barrier(threads_n)

    def loader(key):
        herd_calls.append(key)
        time.sleep(0.002)
        return b"x" * 256

    def worker(worker_id):
        barrier.wait()
        for i in range(hot_keys):
            store.get_or_compute(f"hot{(worker_id + i) % hot_keys}", loader)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sync_requests = threads_n * hot_keys
    sync_loads = store.loads

    # -- AsyncStore: every awaiter arrives at once --------------------
    async def async_herd():
        astore = StoreConfig(64 << 20).policy("camp").build_async()

        async def aloader(key):
            await asyncio.sleep(0.002)
            return b"y" * 256

        await asyncio.gather(*[
            astore.get_or_compute(f"hot{i % hot_keys}", aloader)
            for i in range(threads_n * hot_keys)])
        return astore

    astore = asyncio.run(async_herd())
    async_requests = threads_n * hot_keys

    table = Table(
        f"single-flight coalescing ({threads_n} concurrent callers, "
        f"{hot_keys} hot keys, scale {scale})",
        ["store", "concurrent_requests", "hot_keys", "loader_calls",
         "loads_per_key", "coalesced"])
    table.add_row("Store (threads)", sync_requests, hot_keys, sync_loads,
                  round(sync_loads / hot_keys, 2), store.coalesced_loads)
    table.add_row("AsyncStore", async_requests, hot_keys, astore.loads,
                  round(astore.loads / hot_keys, 2),
                  astore.coalesced_loads)
    save_tables("async_coalescing", [table])

    # the redesign's guarantee: one loader call per hot key, total —
    # N callers of one missing key share one load + admission decision
    assert sync_loads == hot_keys, (
        f"sync store paid {sync_loads} loads for {hot_keys} hot keys")
    assert astore.loads == hot_keys, (
        f"async store paid {astore.loads} loads for {hot_keys} hot keys")
    assert store.coalesced_loads > 0
    assert astore.coalesced_loads == async_requests - hot_keys
