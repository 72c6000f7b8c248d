"""``policy_replay`` — the paper's primary trace through an in-process Store.

Three-cost Zipf trace (costs 1 / 100 / 10 000, 50 k keys) replayed
single-threaded through ``StoreConfig(cap).policy("camp").build()`` at
cache = 0.25 × unique bytes, so every miss evicts.  ``core`` and
``cache`` do all the work and no layer above them runs: a policy or heap
change must show here, a protocol or transport change must not.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.core import CampPolicy, LruPolicy
from repro.workloads import three_cost_trace

from .common import (latency_summary, make_tape, rate_summary,
                     three_cost_price)
from .inproc import replay_timed, run_laps, tally
from .spans import PolicyProxy, Tracer

CACHE_RATIO = 0.25
SIZES = (512, 1024, 2048, 4096, 8192)
SLICE_OPS = 10_000
#: requests of the traced slice in a 10-second run
TRACE_OPS = 120_000


class PolicyReplay:
    name = "policy_replay"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.n_keys, self.n_requests = (
            (2_000, 12_000) if ctx.smoke else (50_000, 250_000))
        self.slice_ops = 1_000 if ctx.smoke else SLICE_OPS
        self.store = None

    # ------------------------------------------------------------------
    def make_tape(self) -> None:
        self.tape = make_tape(three_cost_trace, three_cost_price(SIZES),
                              n_keys=self.n_keys, n_requests=self.n_requests,
                              seed=self.ctx.seed)
        self.warm = len(self.tape) // 5
        self.capacity = int(self.tape.unique_bytes * CACHE_RATIO)

    def _build(self, policy):
        store = StoreConfig(self.capacity).policy(policy).build()
        access = store.access_outcome
        for key, size, cost in self.tape.rows[:self.warm]:
            access(key, size, cost)
        return store

    def bring_up(self) -> None:
        self.store = self._build(CampPolicy(stats=False))

    def teardown(self) -> None:
        self.store = None

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict:
        run = run_laps(self.store.access_outcome, self.tape, self.warm,
                       seconds, self.slice_ops)
        self.ctx.mark_rss()
        first = tally(self.tape, run.first_lap, self.warm, run.stop)
        failed = first.wrong
        self.store.kvs.check_consistency()
        rate = rate_summary(run.slice_ops, run.slice_ns)
        latency = latency_summary(run.samples())
        return {
            "metrics": {
                "ops_per_s": rate["undisturbed"],
                "req_p50_us": latency["p50_us"],
                "req_p95_us": latency["p95_us"],
                "cost_miss_ratio": first.cost_miss_ratio,
            },
            "attempted": run.ops,
            "failed": failed,
            "detail": {
                "loop": "closed, one thread",
                "ops_per_s": rate, "latency": latency, "laps": run.laps,
                "first_lap": {"requests": run.stop - self.warm,
                              "counted": first.counted, "hits": first.hits,
                              "misses": first.misses,
                              "miss_rate": first.miss_rate},
                "capacity_bytes": self.capacity,
                "resident_items": len(self.store),
            },
        }

    # ------------------------------------------------------------------
    def _timed_slice(self, store, stop: int):
        """Replay the traced slice untraced; (outcomes, seconds)."""
        return replay_timed(store.access_outcome, self.tape.rows,
                            self.warm, stop)

    def trace(self, seconds: float) -> Dict:
        self.make_tape()
        tape, warm = self.tape, self.warm
        stop = min(len(tape), warm + max(self.slice_ops,
                                         int(TRACE_OPS * seconds / 10)))
        ops = stop - warm

        plain_outcomes, plain_s = self._timed_slice(
            self._build(CampPolicy(stats=False)), stop)
        _, lru_s = self._timed_slice(self._build(LruPolicy()), stop)

        # traced leg: store span ⊃ policy event spans
        tracer = Tracer()
        store = self._build(PolicyProxy(CampPolicy(stats=False), tracer))
        tracer.clear()      # the warm-up's spans are not part of the slice
        evictions_before = store.kvs.eviction_count
        traced_outcomes, traced_s = replay_timed(
            tracer.wrap("cache.access", store.access_outcome), tape.rows,
            warm, stop)
        same = traced_outcomes[warm:stop] == plain_outcomes[warm:stop]
        counts = tally(tape, traced_outcomes, warm, stop)
        evictions = store.kvs.eviction_count - evictions_before
        stats = store.kvs.stats()
        core_us = sum(tracer.total_us(name) for name in (
            "core.on_hit", "core.on_insert", "core.pop_victim",
            "core.on_remove"))
        cache_self_us = sum(tracer.self_us("cache.access"))
        tracer.dump(self.ctx.trace_path(self.name))

        # counting leg: the same decisions with the policy's counters on
        counting = CampPolicy(stats=True)
        counted_store = self._build(counting)
        counting.reset_stats()
        counted_before = counted_store.kvs.eviction_count
        counted_outcomes, _ = self._timed_slice(counted_store, stop)
        policy_stats = counting.stats()
        inserts = sum(1 for o in counted_outcomes[warm:stop]
                      if o is Outcome.MISS_INSERTED)
        same = same and counted_outcomes[warm:stop] == plain_outcomes[warm:stop]

        metrics = {
            "core.self_us_per_op": core_us / ops,
            "core.hit_us": tracer.median_us("core.on_hit"),
            "core.insert_us": tracer.median_us("core.on_insert"),
            "core.evict_us": tracer.median_us("core.pop_victim"),
            "core.camp_over_lru": plain_s / lru_s,
            "core.heap_node_visits_per_op":
                policy_stats["heap_node_visits"] / ops,
            "core.heap_updates_per_op": policy_stats["heap_updates"] / ops,
            "core.queues_live": policy_stats["queue_count"],
            "core.evictions_per_insert":
                (counted_store.kvs.eviction_count - counted_before)
                / max(inserts, 1),
            "cache.self_us_per_op": cache_self_us / ops,
            "cache.miss_rate": counts.miss_rate,
            "cache.evictions": evictions,
            "cache.rejected": stats["rejected_too_large"]
                + stats["rejected_admission"],
            "workloads.gen_s": tape.gen_s,
            "trace.overhead_ratio": plain_s / traced_s,
        }
        return {
            "metrics": metrics,
            "attempted": 4 * ops,
            "failed": counts.wrong,
            "same_decisions": same,
            "detail": {"slice_requests": ops,
                       "untraced_us_per_op": plain_s / ops * 1e6,
                       "traced_us_per_op": traced_s / ops * 1e6,
                       "lru_us_per_op": lru_s / ops * 1e6,
                       "spans": len(tracer.start)},
        }

