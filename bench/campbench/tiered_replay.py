"""``tiered_replay`` — a working set ten times DRAM, over the disk tier.

In-process ``StoreConfig(dram).policy("camp").tiered(dir, disk,
demote_min_cost_per_byte=0.01)`` at DRAM 0.1 × and disk 0.5 × unique
bytes on the three-cost trace, with real value bytes so demotions write
and L2 hits read them back.  ``tiering`` dominates: demotion appends, L2
reads, tombstones and segment GC.  The segment files live on a real
filesystem under the run's work dir; reads come from the OS page cache.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.core import CampPolicy
from repro.workloads import three_cost_trace

from .common import (latency_summary, make_tape, proc_io_bytes,
                     rate_summary, three_cost_price, value_for)
from .inproc import replay_timed, run_laps, tally

SIZES = (512, 1024, 2048, 4096, 8192)
DRAM_RATIO = 0.1
DISK_RATIO = 0.5
DEMOTE_MIN_COST_PER_BYTE = 0.01
L2_FACTOR = 0.1
SLICE_OPS = 4_000
TRACE_OPS = 60_000


class TieredReplay:
    name = "tiered_replay"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.n_keys, self.n_requests = (
            (1_500, 8_000) if ctx.smoke else (20_000, 100_000))
        self.slice_ops = 400 if ctx.smoke else SLICE_OPS
        self.store = None
        self.wrong_values = 0

    # ------------------------------------------------------------------
    def make_tape(self) -> None:
        self.tape = make_tape(three_cost_trace, three_cost_price(SIZES),
                              n_keys=self.n_keys, n_requests=self.n_requests,
                              seed=self.ctx.seed)
        self.warm = len(self.tape) // 5
        self.dram = int(self.tape.unique_bytes * DRAM_RATIO)
        self.disk = int(self.tape.unique_bytes * DISK_RATIO)

    def _step(self, store):
        """get, check the bytes served, put on a miss."""
        get, put = store.get, store.put_outcome
        miss, expired = Outcome.MISS, Outcome.EXPIRED

        def step(key, size, cost):
            result = get(key)
            outcome = result.outcome
            if outcome is miss or outcome is expired:
                return put(key, size, cost, value=value_for(key, size))
            if result.value != value_for(key, size):
                self.wrong_values += 1
            return outcome
        return step

    def _build(self, tiered: bool):
        config = StoreConfig(self.dram).policy(CampPolicy(stats=False))
        if tiered:
            config = config.tiered(
                self.ctx.workdir.fresh("tier"), self.disk,
                demote_min_cost_per_byte=DEMOTE_MIN_COST_PER_BYTE,
                l2_hit_cost_factor=L2_FACTOR)
        store = config.build()
        step = self._step(store)
        for key, size, cost in self.tape.rows[:self.warm]:
            step(key, size, cost)
        return store

    def bring_up(self) -> None:
        self.store = self._build(tiered=True)

    def teardown(self) -> None:
        if self.store is not None:
            self.store.backend.close()
            self.store = None

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict:
        self.wrong_values = 0
        run = run_laps(self._step(self.store), self.tape, self.warm,
                       seconds, self.slice_ops)
        self.ctx.mark_rss()
        first = tally(self.tape, run.first_lap, self.warm, run.stop,
                      l2_factor=L2_FACTOR)
        self.store.check_consistency()
        rate = rate_summary(run.slice_ops, run.slice_ns)
        latency = latency_summary(run.samples())
        stats = self.store.stats()
        return {
            "metrics": {
                "ops_per_s": rate["undisturbed"],
                "req_p50_us": latency["p50_us"],
                "req_p95_us": latency["p95_us"],
                "cost_miss_ratio": first.cost_miss_ratio,
            },
            "attempted": run.ops,
            "failed": first.wrong + self.wrong_values,
            "detail": {
                "loop": "closed, one thread",
                "ops_per_s": rate, "latency": latency, "laps": run.laps,
                "first_lap": {"requests": run.stop - self.warm,
                              "counted": first.counted, "hits": first.hits,
                              "l2_served": first.l2, "misses": first.misses},
                "dram_bytes": self.dram, "disk_bytes": self.disk,
                "segments_collected": stats["tier_segments_collected"],
                "segments_created": stats["tier_segments_created"],
            },
        }

    # ------------------------------------------------------------------
    def _timed_slice(self, store, stop: int):
        return replay_timed(self._step(store), self.tape.rows,
                            self.warm, stop)

    def trace(self, seconds: float) -> Dict:
        """Two rungs on one slice: a memory-only Store at the same DRAM,
        then the tiered Store.  ``tiering`` is private to the backend, so
        its time is the difference between the rungs; its counts come
        from the backend's own ``stats()``."""
        self.make_tape()
        self.wrong_values = 0
        stop = min(len(self.tape), self.warm + max(
            self.slice_ops, int(TRACE_OPS * seconds / 10)))
        ops = stop - self.warm

        _, flat_s = self._timed_slice(self._build(tiered=False), stop)

        self.store = self._build(tiered=True)
        before = self.store.stats()
        written_before = proc_io_bytes()[1]
        outcomes, tiered_s = self._timed_slice(self.store, stop)
        file_bytes = proc_io_bytes()[1] - written_before
        after = self.store.stats()
        self.store.check_consistency()
        counts = tally(self.tape, outcomes, self.warm, stop,
                       l2_factor=L2_FACTOR)

        def moved(name: str) -> float:
            return after[name] - before[name]

        demoted = moved("tier_bytes_written")
        metrics = {
            "tiering.us_per_op_over_flat": (tiered_s - flat_s) / ops * 1e6,
            # bytes handed to write() per user byte demoted: framing,
            # payload encoding, tombstones and GC rewrites all count
            "tiering.write_amp": file_bytes / demoted if demoted else 0.0,
            "tiering.demotions": moved("demotions"),
            "tiering.filtered_drops": moved("filtered_drops"),
            "tiering.l2_hits": moved("tier_hits"),
            "tiering.bytes_written": demoted,
            "tiering.bytes_rewritten": moved("tier_bytes_rewritten"),
            "tiering.bytes_read": moved("tier_bytes_read"),
            "tiering.segments_collected": moved("tier_segments_collected"),
            "cache.miss_rate": counts.miss_rate,
            "cache.evictions": moved("evictions"),
            "cache.rejected": moved("rejected_too_large")
                + moved("rejected_admission"),
            "workloads.gen_s": self.tape.gen_s,
            # no spans are recorded in this workload; both rungs run bare
            "trace.overhead_ratio": 1.0,
        }
        return {
            "metrics": metrics,
            "attempted": 2 * ops,
            "failed": counts.wrong + self.wrong_values,
            "detail": {"slice_requests": ops,
                       "flat_us_per_op": flat_s / ops * 1e6,
                       "tiered_us_per_op": tiered_s / ops * 1e6,
                       "file_bytes_written": file_bytes},
        }
