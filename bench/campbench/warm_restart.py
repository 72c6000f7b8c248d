"""``warm_restart`` — serve with the operation log on, snapshot, crash, rebuild.

In-process ``StoreConfig(cap).policy("camp").persistence(dir,
fsync="batch")`` holding over 100 k resident pairs.  One *cycle* replays
a chunk of the tape (40 k requests) with the log on, calls ``save()``, drops the Store
without ``close()``, rebuilds it from the directory and goes on with the
next chunk.  ``persistence`` does most of the work — an append per
mutation, the snapshot writer, recovery — so this is the workload a
change to the log or snapshot format must leave unmoved.  The snapshot
round-trips the policy's state, so the rebuilt Store must decide exactly
as one that never restarted; the run checks that.
"""

from __future__ import annotations

import gc
import statistics
import time
from time import perf_counter_ns
from typing import Dict, List

from repro.cache.store import StoreConfig
from repro.core import CampPolicy
from repro.workloads import three_cost_trace

from .common import (latency_buffer, latency_summary, make_tape,
                     rate_summary, three_cost_price)
from .inproc import replay, replay_timed, tally

SIZES = (512, 1024, 2048, 4096, 8192)
CACHE_RATIO = 0.5
CHUNK_OPS = 40_000
SLICE_OPS = 10_000
#: cycles whose outcomes are kept, checked against the control and
#: give cost_miss_ratio; every run completes at least these
FIXED_CYCLES = 4
LATENCY_SAMPLES = 2_000_000


class WarmRestart:
    name = "warm_restart"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.n_keys, self.n_requests = (
            (6_000, 8_000) if ctx.smoke else (350_000, 480_000))
        self.chunk_ops = 2_000 if ctx.smoke else CHUNK_OPS
        self.slice_ops = 500 if ctx.smoke else SLICE_OPS
        self.store = None
        self.directory = None

    # ------------------------------------------------------------------
    def make_tape(self) -> None:
        self.tape = make_tape(three_cost_trace, three_cost_price(SIZES),
                              n_keys=self.n_keys, n_requests=self.n_requests,
                              seed=self.ctx.seed)
        # every distinct pair is preloaded once, in order of first
        # appearance, so no request of the tape is a cold one and the
        # Store starts full of the pairs CAMP chose to keep
        self.preload = [row for row, cold in zip(self.tape.rows,
                                                 self.tape.cold) if cold]
        self.tape.cold = bytearray(len(self.tape))
        self.capacity = int(self.tape.unique_bytes * CACHE_RATIO)
        self.chunks = len(self.tape) // self.chunk_ops

    def _config(self) -> StoreConfig:
        return StoreConfig(self.capacity).policy(CampPolicy(stats=False))

    def _durable(self, directory: str, recover: bool, **kwargs):
        return self._config().persistence(
            directory, fsync="batch", recover=recover, **kwargs).build()

    def _preload(self, store) -> None:
        put = store.put_outcome
        for key, size, cost in self.preload:
            put(key, size, cost)

    def bring_up(self) -> None:
        self.directory = self.ctx.workdir.fresh("state")
        self.store = self._durable(self.directory, recover=False)
        self._preload(self.store)

    def teardown(self) -> None:
        if self.store is not None:
            self.store.persistence.close()
            self.store = None

    def _crash(self) -> None:
        """Lose the process's memory: the Store is dropped without
        ``close()``.  The collection stands in for the process exiting,
        so that dead Stores do not pile up in this one."""
        self.store = None
        gc.collect()

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict:
        rows = self.tape.rows
        lat = latency_buffer(LATENCY_SAMPLES)
        filled = 0
        kept: List[List] = []
        scratch = [None] * len(rows)
        cycle_ns, save_rates, recover_rates = [], [], []
        cycle_parts = []
        slice_ops, slice_ns = [], []
        failed = 0
        now = perf_counter_ns
        deadline = now() + int(seconds * 1e9)
        cycle = 0
        while True:
            begin = (cycle % self.chunks) * self.chunk_ops
            outcomes = scratch
            if cycle < FIXED_CYCLES:
                outcomes = [None] * len(rows)
                kept.append(outcomes)
            step = self.store.access_outcome
            replay_ns = 0
            for start in range(begin, begin + self.chunk_ops, self.slice_ops):
                started = now()
                filled = replay(step, rows, start, start + self.slice_ops,
                                outcomes, lat, filled)
                spent = now() - started
                replay_ns += spent
                slice_ops.append(self.slice_ops)
                slice_ns.append(spent)
            items = len(self.store)
            started = now()
            self.store.save()
            save_ns = now() - started
            self._crash()
            started = now()
            self.store = self._durable(self.directory, recover=True)
            recover_ns = now() - started
            report = self.store.last_recovery
            if report.items_restored != items or len(self.store) != items:
                failed += 1
            cycle_parts.append([round(ns / 1e6) for ns in
                                (replay_ns, save_ns, recover_ns)])
            cycle_ns.append(replay_ns + save_ns + recover_ns)
            save_rates.append(items * 1e9 / save_ns)
            recover_rates.append(items * 1e9 / recover_ns)
            cycle += 1
            # stop rather than start a cycle that would overrun
            if cycle >= FIXED_CYCLES and now() + cycle_ns[-1] > deadline:
                break
        self.ctx.mark_rss()

        # the control never restarts; the durable Store's outcomes over
        # the fixed cycles must be the control's, request by request
        control = self._config().build()
        self._preload(control)
        access = control.access_outcome
        counts = []
        for number, outcomes in enumerate(kept):
            begin = (number % self.chunks) * self.chunk_ops
            stop = begin + self.chunk_ops
            expected = [access(*rows[i]) for i in range(begin, stop)]
            failed += sum(1 for got, want in zip(outcomes[begin:stop],
                                                 expected) if got is not want)
            counts.append(tally(self.tape, outcomes, begin, stop))
        self.store.kvs.check_consistency()
        failed += sum(count.wrong for count in counts)
        cost_total = sum(count.cost_total for count in counts)
        cost_paid = sum(count.cost_paid for count in counts)
        latency = latency_summary(lat[:filled])
        rate = rate_summary([self.chunk_ops] * cycle, cycle_ns)
        return {
            "metrics": {
                # requests served per second of whole cycles: replaying
                # with the log on, the snapshot and the rebuild all count
                "ops_per_s": rate["undisturbed"],
                "req_p50_us": latency["p50_us"],
                "req_p95_us": latency["p95_us"],
                "cost_miss_ratio": cost_paid / cost_total,
            },
            "attempted": cycle * self.chunk_ops + cycle,
            "failed": failed,
            "detail": {
                "loop": "closed, one thread",
                "cycles": cycle,
                "ops_per_s": rate,
                "cycle_parts_ms": cycle_parts,
                "replay_ops_per_s": statistics.median(
                    ops * 1e9 / ns for ops, ns in zip(slice_ops, slice_ns)),
                "snapshot_items_per_s": statistics.median(save_rates),
                "recover_items_per_s": statistics.median(recover_rates),
                "latency": latency,
                "resident_items": len(self.store),
                "capacity_bytes": self.capacity,
                "fsync": "batch, every 64 appends",
            },
        }

    # ------------------------------------------------------------------
    def _timed_slice(self, store, ops: int) -> float:
        return replay_timed(store.access_outcome, self.tape.rows, 0, ops)[1]

    def trace(self, seconds: float) -> Dict:
        """Rungs on one slice: a Store without persistence, the same
        Store with the log on, then ``save()``, a rebuild from the
        snapshot, and a rebuild from a log alone.  The log and snapshot
        code is private to the Store, so its time is the difference
        between the first two rungs."""
        self.make_tape()
        ops = min(len(self.tape), max(self.slice_ops,
                                      int(CHUNK_OPS * seconds / 10)))
        plain = self._config().build()
        self._preload(plain)
        plain_s = self._timed_slice(plain, ops)
        plain = None

        directory = self.ctx.workdir.fresh("state")
        self.store = self._durable(directory, recover=False)
        self._preload(self.store)
        logged_s = self._timed_slice(self.store, ops)
        log = self.store.persistence.stats()
        items = len(self.store)
        started = time.perf_counter()
        self.store.save()
        save_s = time.perf_counter() - started
        snapshot_bytes = self.store.persistence.stats()["snapshot_bytes"]
        self._crash()
        started = time.perf_counter()
        self.store = self._durable(directory, recover=True)
        recover_s = time.perf_counter() - started
        restored = self.store.last_recovery.items_restored
        self.teardown()

        # a crash with no snapshot at all: recovery is log replay alone
        directory = self.ctx.workdir.fresh("state")
        self.store = self._durable(directory, recover=False,
                                   compact_ratio=None)
        self._preload(self.store)
        self.store.persistence.flush()
        self._crash()
        started = time.perf_counter()
        self.store = self._durable(directory, recover=True,
                                   compact_ratio=None)
        replay_s = time.perf_counter() - started
        replayed = self.store.last_recovery.log_records_replayed

        metrics = {
            "persistence.aol_us_per_op": (logged_s - plain_s) / ops * 1e6,
            "persistence.aol_bytes_per_mutation":
                log["log_bytes"] / max(log["log_records"], 1),
            "persistence.snapshot_bytes_per_item": snapshot_bytes / items,
            "persistence.snapshot_items_per_s": items / save_s,
            "persistence.recover_items_per_s": restored / recover_s,
            "persistence.log_records_replayed": replayed,
            "workloads.gen_s": self.tape.gen_s,
            # no spans are recorded in this workload; every rung runs bare
            "trace.overhead_ratio": 1.0,
        }
        failed = int(restored != items) + int(replayed != len(self.preload))
        return {
            "metrics": metrics,
            "attempted": 2 * ops + 2,
            "failed": failed,
            "detail": {"slice_requests": ops, "resident_items": items,
                       "plain_us_per_op": plain_s / ops * 1e6,
                       "logged_us_per_op": logged_s / ops * 1e6,
                       "save_s": save_s, "recover_s": recover_s,
                       "log_replay_s": replay_s},
        }
