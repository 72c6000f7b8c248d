"""Ablations of the design choices DESIGN.md calls out (not paper figures).

* heap arity — the paper picked an 8-ary implicit heap citing
  Larkin/Sen/Tarjan; compare it with a 2-ary one on GDS and CAMP node
  visits and wall time.
* rounding scheme — CAMP's MSB-preserving rounding vs naive low-bit
  truncation (Table 1's "regular rounding") plugged into CAMP.
* admission control — the section 6 future-work idea, on CAMP and LRU.
* competitors — GD-Wheel and GDSF vs CAMP on the primary trace.
* sharded CAMP — the section 4.1 hash-partitioned variant vs plain CAMP.
"""

from __future__ import annotations

import sys
import threading
import time
import zlib
from typing import List

from repro.analysis import Table
from repro.core import (
    CampPolicy,
    GdsPolicy,
    GdsfPolicy,
    GdWheelPolicy,
    LruPolicy,
    SecondHitAdmission,
    ShardedCampPolicy,
    regular_rounding,
)
from repro.experiments.data import get_scale, primary_trace
from repro.sim import run_policy_on_trace, sweep_cache_sizes

__all__ = ["run_heap_ablation", "run_rounding_ablation",
           "run_admission_ablation", "run_competitor_ablation",
           "run_sharding_ablation"]

RATIO = 0.25


def run_heap_ablation(scale: str = "default") -> List[Table]:
    trace = primary_trace(scale)
    table = Table(
        "Ablation — heap arity under GDS and CAMP (cache ratio 0.25)",
        ["policy", "backend", "node_visits", "wall_seconds",
         "cost_miss_ratio"])
    for arity in (8, 2):
        label = f"dary-{arity}"
        for name, policy in (("gds", GdsPolicy(arity=arity)),
                             ("camp", CampPolicy(precision=5, arity=arity))):
            result = run_policy_on_trace(policy, trace, RATIO)
            table.add_row(name, label,
                          result.policy_stats["heap_node_visits"],
                          result.wall_seconds, result.cost_miss_ratio)
    return [table]


class _RegularRoundingCamp(CampPolicy):
    """CAMP with Table 1's *wrong* rounding (drops low bits unconditionally)."""

    def _rounded_ratio_of(self, size, cost) -> int:
        raw = self._converter.to_integer(cost, size)
        if self._precision is None:
            return raw
        return max(1, regular_rounding(raw, self._precision))


def run_rounding_ablation(scale: str = "default") -> List[Table]:
    trace = primary_trace(scale)
    table = Table(
        "Ablation — CAMP's MSB rounding vs regular truncation",
        ["scheme", "precision", "queues", "cost_miss_ratio"])
    for precision in (2, 4, 6, 8):
        for scheme, cls in (("camp-msb", CampPolicy),
                            ("regular", _RegularRoundingCamp)):
            policy = cls(precision=precision)
            result = run_policy_on_trace(policy, trace, RATIO)
            table.add_row(scheme, precision,
                          result.policy_stats["queue_count"],
                          result.cost_miss_ratio)
    return [table]


def run_admission_ablation(scale: str = "default") -> List[Table]:
    trace = primary_trace(scale)
    table = Table(
        "Ablation — second-hit admission control (section 6 future work)",
        ["policy", "admission", "miss_rate", "cost_miss_ratio",
         "evictions"])
    for name, factory in (("camp", lambda: CampPolicy(precision=5)),
                          ("lru", lambda: LruPolicy())):
        for admission_label, admission in (
                ("none", None),
                ("second-hit", SecondHitAdmission(window=5000))):
            result = run_policy_on_trace(factory(), trace, RATIO,
                                         admission=admission)
            table.add_row(name, admission_label, result.miss_rate,
                          result.cost_miss_ratio, result.evictions)
    return [table]


def run_competitor_ablation(scale: str = "default") -> List[Table]:
    config = get_scale(scale)
    trace = primary_trace(scale)
    factories = {
        "camp(p=5)": lambda capacity: CampPolicy(precision=5),
        "gd-wheel": lambda capacity: GdWheelPolicy(),
        "gdsf": lambda capacity: GdsfPolicy(),
        "lru": lambda capacity: LruPolicy(),
    }
    sweep = sweep_cache_sizes(trace, factories,
                              cache_size_ratios=config.cache_ratios)
    table = Table(
        "Ablation — CAMP vs GD-Wheel vs GDSF (cost-miss ratio)",
        ["cache_size_ratio"] + list(factories))
    for ratio in config.cache_ratios:
        table.add_row(ratio, *[sweep.lookup(name, ratio).cost_miss_ratio
                               for name in factories])
    return [table]


#: threads hammering the policy in the concurrency leg; high relative to
#: core count on purpose — the quantity under test is lock contention
SHARDING_THREADS = 8
SHARDING_TIMING_REPEATS = 3
#: each thread replays its stream this many times per timed run: the
#: trace split 8 ways is only a few thousand events per thread, which
#: start/join fixed costs would swamp; passes after the first are all
#: hits, which is exactly the contended path under test
SHARDING_STREAM_PASSES = 6
#: GIL switch interval (seconds) while the threaded driver runs.  The
#: cost striping removes is a thread being preempted *while holding*
#: the policy mutex (every waiter then burns its whole slice); a
#: shorter interval raises the preemption rate, surfacing on a small
#: box the convoy behaviour a busy multi-core server sees constantly.
SHARDING_SWITCH_INTERVAL = 0.001


def _sharded_event_streams(trace, threads: int):
    """Partition a trace into per-thread (key, size, cost) streams.

    Keys are owned by exactly one thread (stable hash), so the
    contains-then-hit/insert sequence below never races on a key: the
    only shared state across threads is the policy itself — which is
    the point.
    """
    streams: List[List] = [[] for _ in range(threads)]
    for key, size, cost in trace.tape():
        streams[zlib.crc32(key.encode("utf-8")) % threads].append(
            (key, size, cost))
    return streams


def _threaded_policy_seconds(policy, streams) -> float:
    """Drive hit/insert traffic from one thread per stream; wall time."""
    def worker(stream):
        contains = policy.__contains__
        on_hit = policy.on_hit
        on_insert = policy.on_insert
        for _ in range(SHARDING_STREAM_PASSES):
            for key, size, cost in stream:
                if contains(key):
                    on_hit(key)
                else:
                    on_insert(key, size, cost)

    workers = [threading.Thread(target=worker, args=(stream,))
               for stream in streams]
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SHARDING_SWITCH_INTERVAL)
    try:
        started = time.perf_counter()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        return time.perf_counter() - started
    finally:
        sys.setswitchinterval(previous_interval)


def run_sharding_ablation(scale: str = "default") -> List[Table]:
    """Sharded CAMP: decision quality single-threaded, scaling threaded.

    The seed measured wall time on a *single-threaded* replay, where
    shards can only lose (routing plus lock overhead with nobody to
    contend against) — and lost more the more shards it had.  Lock
    striping is a concurrency mechanism, so the timing leg now drives
    the policy from many threads: with one shard every event serializes
    on one mutex (the contended handoffs dominate even under the GIL);
    with striped per-shard locks contention drops roughly linearly.
    Decision quality (miss rate, cost-miss ratio) stays measured on the
    deterministic single-threaded replay.
    """
    trace = primary_trace(scale)
    table = Table(
        "Ablation — hash-partitioned CAMP (section 4.1): quality from the "
        "single-threaded replay; threaded_wall_seconds = %d threads of "
        "hit/insert traffic, best of %d (lock striping vs one mutex)"
        % (SHARDING_THREADS, SHARDING_TIMING_REPEATS),
        ["shards", "miss_rate", "cost_miss_ratio", "threaded_wall_seconds"])
    streams = _sharded_event_streams(trace, SHARDING_THREADS)
    for shards in (1, 2, 4, 8):
        result = run_policy_on_trace(
            ShardedCampPolicy(shards=shards, precision=5), trace, RATIO)
        threaded = None
        for _ in range(SHARDING_TIMING_REPEATS):
            policy = ShardedCampPolicy(shards=shards, precision=5,
                                       stats=False)
            seconds = _threaded_policy_seconds(policy, streams)
            threaded = seconds if threaded is None else min(threaded,
                                                            seconds)
        table.add_row(shards, result.miss_rate, result.cost_miss_ratio,
                      threaded)
    return [table]
