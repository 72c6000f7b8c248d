"""Micro-benchmark: batched Store requests vs looped single calls.

``get_many``/``put_many`` drive the eviction policy through its
``bulk()`` handle — one ``ThreadSafePolicy`` lock acquisition per batch
instead of one (or three, on the insert path) per request, and no
per-item result allocation.  The acceptance bar for the facade redesign
is >= 1.3x per-op throughput on ThreadSafePolicy-wrapped CAMP; this
benchmark measures and enforces it.
"""

import time

from conftest import bench_scale

from repro.analysis import Table
from repro.cache import StoreConfig

#: minimum speedup of the batched path over looped single calls.  The
#: acceptance bar of 1.3x is demonstrated by the archived default-scale
#: table (measured ~1.5-1.8x locally) and enforced strictly at full
#: scale; tiny/default keep a safety margin because they run inside CI
#: gates (`pytest -x` tier-1 collects benchmarks/) on noisy shared
#: runners, where this assertion guards against rot, not regressions.
REQUIRED_SPEEDUP = {"tiny": 1.1, "default": 1.2, "full": 1.3}
ROUNDS = {"tiny": 7, "default": 5, "full": 3}

OPS = {"tiny": 4_000, "default": 20_000, "full": 100_000}


def camp_store(capacity):
    return (StoreConfig(capacity)
            .policy("camp", precision=5)
            .thread_safe()
            .build())


def best_seconds(fn, rounds):
    """Min-of-rounds wall time — the standard noise-robust estimator."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_batched_requests_beat_looped_singles(save_tables):
    scale = bench_scale()
    ops = OPS.get(scale, OPS["default"])
    rounds = ROUNDS.get(scale, ROUNDS["default"])
    required = REQUIRED_SPEEDUP.get(scale, REQUIRED_SPEEDUP["default"])
    distinct = ops // 10
    entries = [(f"k{i}", 100, (i % 7) + 1) for i in range(distinct)]
    keys = [f"k{i % distinct}" for i in range(ops)]
    capacity = distinct * 100 * 2     # inserts never evict: pure-path timing

    # -- put: looped singles vs one batch -----------------------------
    def looped_put():
        store = camp_store(capacity)
        put = store.put
        for key, size, cost in entries:
            put(key, size, cost)
        return store

    def batched_put():
        store = camp_store(capacity)
        store.put_many(entries)
        return store

    put_single = best_seconds(looped_put, rounds)
    put_batch = best_seconds(batched_put, rounds)

    # -- get: looped singles vs one batch (hit-heavy) -----------------
    store = camp_store(capacity)
    store.put_many(entries)

    def looped_get():
        get = store.get
        for key in keys:
            get(key)

    def batched_get():
        store.get_many(keys)

    get_single = best_seconds(looped_get, rounds)
    get_batch = best_seconds(batched_get, rounds)

    get_speedup = get_single / get_batch
    put_speedup = put_single / put_batch
    table = Table("Store batch vs looped singles (thread-safe CAMP)",
                  ["path", "ops", "single_us_per_op", "batch_us_per_op",
                   "speedup"])
    table.add_row("get", len(keys), round(get_single / len(keys) * 1e6, 3),
                  round(get_batch / len(keys) * 1e6, 3),
                  round(get_speedup, 2))
    table.add_row("put", len(entries),
                  round(put_single / len(entries) * 1e6, 3),
                  round(put_batch / len(entries) * 1e6, 3),
                  round(put_speedup, 2))
    save_tables("store_batch", [table])

    assert get_speedup >= required, (
        f"get_many only {get_speedup:.2f}x looped gets (need {required}x)")
    assert put_speedup >= required, (
        f"put_many only {put_speedup:.2f}x looped puts (need {required}x)")


def test_batch_and_looped_paths_agree_on_state():
    """The fast path must not change semantics: same residency/evictions."""
    entries = [(f"k{i % 40}", 60 + (i % 5) * 17, (i % 9) + 1)
               for i in range(300)]
    looped = camp_store(2_500)
    batched = camp_store(2_500)
    outcomes_single = [looped.put(*entry).outcome for entry in entries]
    outcomes_batch = list(batched.put_many(entries))
    assert outcomes_single == outcomes_batch
    assert sorted(i.key for i in looped.kvs.resident_items()) == \
        sorted(i.key for i in batched.kvs.resident_items())
    assert looped.kvs.eviction_count == batched.kvs.eviction_count
    looped.check_consistency()
    batched.check_consistency()
