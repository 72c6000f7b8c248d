"""``cluster_batch`` — batched, write-heavy traffic through ``ClusterClient``.

Two node processes behind ``ClusterClient(replicas=2, pool_size=1)``, a
closed loop of two callers.  One request is a ``get_many`` of 32 keys
followed by a ``set_many`` of the misses plus an unconditional overwrite
of every fourth key; values are 4 KiB and costs are log-uniform
(``equal_size_variable_cost_trace``: many distinct costs, so many CAMP
queues — §3.2's other extreme).  The same ``protocol``, ``transport`` and
``engine`` layers as ``served_getset`` are used differently — batched,
write-heavy, large data blocks, every write replicated — so a gain for
single-key reads that costs batched writes shows here, and ``cluster``
does its work here and nowhere else.
"""

from __future__ import annotations

import asyncio
import time
from time import perf_counter
from typing import Callable, Dict, Optional

from repro.cluster.client import ClusterClient
from repro.twemcache.async_client import AsyncSocketClient
from repro.workloads import equal_size_variable_cost_trace

from .common import (closed_loop, generator_gc_quiet, generator_loop,
                     latency_summary, log_uniform_price, make_tape,
                     proc_cpu_s, proc_io_bytes, value_for)
from .inproc import Tally

BATCH = 32
VALUE_SIZE = 4096
CACHE_RATIO = 0.25
#: one key in four is rewritten whether or not it was found
OVERWRITE_EVERY = 4
SLICE_BATCHES = 20
#: requests of the timed region whose outcomes give cost_miss_ratio; every
#: run gets at least these done, so the ratio does not depend on how far
#: down the tape the host's speed let the run get
FIXED_BATCHES = 1_600


class ClusterBatch:
    name = "cluster_batch"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.n_keys, self.n_requests = (
            (600, 4_000) if ctx.smoke else (20_000, 100_000))
        self.slice_batches = 4 if ctx.smoke else SLICE_BATCHES
        self.fixed_batches = 40 if ctx.smoke else FIXED_BATCHES
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.cluster: Optional[ClusterClient] = None

    # ------------------------------------------------------------------
    def make_tape(self) -> None:
        self.tape = make_tape(equal_size_variable_cost_trace,
                              log_uniform_price(VALUE_SIZE, 1, 100_000),
                              n_keys=self.n_keys, n_requests=self.n_requests,
                              seed=self.ctx.seed)
        self.warm = len(self.tape) // 5 // BATCH * BATCH
        self.memory = max(int(self.tape.unique_bytes * CACHE_RATIO), 8 << 20)
        self._reset_accounting()

    def _reset_accounting(self) -> None:
        self.cursor = self.warm
        self.taken = 0
        self.attempted = self.failed = self.wrong = 0
        self.tally = Tally()

    def _take(self) -> int:
        """Start of the next batch; wraps to the start of the timed region."""
        index = self.cursor
        self.taken += 1
        self.cursor += BATCH
        if self.cursor + BATCH > len(self.tape):
            self.cursor = self.warm
            self.tape.cold = bytearray(len(self.tape))   # all seen by now
        return index

    async def _batch(self, fetch: Callable, store: Callable, begin: int,
                     account: bool = True) -> bool:
        """One request: read 32 keys, write back the misses and the
        overwrites.  Every value and every cost read is checked.  Returns
        whether anything had to be written."""
        rows = self.tape.rows[begin:begin + BATCH]
        wanted = {}
        for offset, (key, size, cost) in enumerate(rows):
            wanted.setdefault(key, (size, cost, begin + offset))
        self.attempted += len(wanted)
        found = await fetch(list(wanted))
        writes = []
        for key, (size, cost, index) in wanted.items():
            served = found.get(key)
            if served is not None and (served.value != value_for(key, size)
                                       or served.cost != cost):
                self.wrong += 1
            if served is None or index % OVERWRITE_EVERY == 0:
                writes.append((key, value_for(key, size), 0, 0, cost))
            if account and not self.tape.cold[index]:
                self.tally.served(cost, hit=served is not None)
        if writes:
            self.attempted += len(writes)
            stored = await store(writes)
            self.failed += stored.count(False)
        return bool(writes)

    def closed_loop(self, fetch: Callable, store: Callable, seconds: float,
                    at_least: int = 0):
        """Two callers, each sending its next request when its last one
        is done; a request's latency is the read and the write together.
        The first ``fixed_batches`` requests are the ones accounted."""
        async def step(lat_ns) -> None:
            started = perf_counter()
            begin = self._take()
            await self._batch(fetch, store, begin,
                              account=self.taken <= self.fixed_batches)
            lat_ns.append(int((perf_counter() - started) * 1e9))
        return closed_loop(step, 2, seconds, self.slice_batches,
                           units_per_step=BATCH, at_least=at_least)

    # ------------------------------------------------------------------
    def _start_cluster(self) -> None:
        nodes = [self.ctx.nodes.spawn(self.memory) for _ in range(2)]
        self.cluster_nodes = nodes
        self.loop = generator_loop()
        self.cluster = ClusterClient(
            {f"n{i}": node.address for i, node in enumerate(nodes)},
            replicas=2, pool_size=1)
        self.loop.run_until_complete(
            self._warm_up(self.cluster.get_many, self.cluster.set_many))

    async def _warm_up(self, fetch: Callable, store: Callable) -> None:
        for begin in range(0, self.warm, BATCH):
            await self._batch(fetch, store, begin, account=False)
        self._reset_accounting()

    def bring_up(self) -> None:
        self._start_cluster()

    def teardown(self) -> None:
        if self.loop is not None:
            if self.cluster is not None:
                self.loop.run_until_complete(self.cluster.close())
            self.loop.close()
        self.loop = self.cluster = None

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict:
        return self.loop.run_until_complete(self._measure(seconds))

    async def _measure(self, seconds: float) -> Dict:
        cluster = self.cluster
        with generator_gc_quiet():
            run = await self.closed_loop(cluster.get_many, cluster.set_many,
                                         seconds, at_least=self.fixed_batches)
        self.ctx.mark_rss()
        counters = dict(cluster.counters)
        unhealthy = counters["failovers"] + counters["node_failures"]
        rate = run.rate()
        latency = latency_summary(run.lat_ns)
        # a toy-size run is too short for ten slices and asserts no timing
        invalid = [] if self.ctx.smoke else run.invalid()
        return {
            "metrics": {
                "ops_per_s": rate["undisturbed"],          # keys per second
                "req_p50_us": latency["p50_us"],      # one 32-key request
                "req_p95_us": latency["p95_us"],
                "cost_miss_ratio": self.tally.cost_miss_ratio,
            },
            "attempted": self.attempted,
            "failed": self.failed + self.wrong + unhealthy,
            "invalid": invalid,
            "detail": {
                "loop": "closed, 2 callers, 1 connection per node",
                "ops_per_s": rate, "latency": latency,
                "batches": run.steps, "keys_per_batch": BATCH,
                "accounted_batches": self.fixed_batches,
                "hits": self.tally.hits, "misses": self.tally.misses,
                "wrong": self.wrong, "counters": counters,
                "node_memory_bytes": self.memory,
            },
        }

    # ------------------------------------------------------------------
    def trace(self, seconds: float) -> Dict:
        """Two rungs on one tape: straight to one node with
        ``AsyncSocketClient``, then through ``ClusterClient`` to two.
        ``ClusterClient``'s per-node clients are private and the nodes
        are other processes, so ``cluster``'s cost is the difference
        between the rungs; its counts are the client's own counters."""
        self.make_tape()
        stretch = 2.5 * seconds / 10

        # the reference rung: one node, no routing, no replication
        node = self.ctx.nodes.spawn(self.memory)
        self.loop = generator_loop()
        direct_run = self.loop.run_until_complete(
            self._direct_rung(node, stretch))
        direct_failed = self.failed + self.wrong
        direct_attempted = self.attempted
        self.loop.close()
        self.loop = None
        self.ctx.nodes.stop_all()

        self._start_cluster()
        outcome = self.loop.run_until_complete(self._cluster_rung(stretch))
        direct_rate = direct_run.rate()["undisturbed"]
        cluster_rate = outcome["rate"]
        metrics = {
            "transport.batch_us_per_key": 1e6 / direct_rate,
            "cluster.us_per_key": 1e6 / cluster_rate,
            "cluster.efficiency": cluster_rate / direct_rate,
            "workloads.gen_s": self.tape.gen_s,
            # no spans are recorded in this workload; both rungs run bare
            "trace.overhead_ratio": 1.0,
        }
        metrics.update(outcome["metrics"])
        return {
            "metrics": metrics,
            "attempted": direct_attempted + self.attempted,
            "failed": direct_failed + self.failed + self.wrong
                + int(metrics["cluster.failovers"]),
            "detail": {"direct_keys_per_s": direct_rate,
                       "cluster_keys_per_s": cluster_rate,
                       "counting_batches": outcome["counting_batches"]},
        }

    async def _direct_rung(self, node, stretch: float):
        client = AsyncSocketClient(node.address, pool_size=1)

        def fetch(keys):
            return client.get_many(keys, with_cost=True)

        await self._warm_up(fetch, client.set_many)
        run = await self.closed_loop(fetch, client.set_many, stretch)
        await client.close()
        return run

    async def _cluster_rung(self, stretch: float) -> Dict:
        cluster = self.cluster
        pids = [node.pid for node in self.cluster_nodes]
        before = dict(cluster.counters)
        stats_before = await cluster.stats_all()
        node_cpu = sum(proc_cpu_s(pid) for pid in pids)
        node_io = [proc_io_bytes(pid) for pid in pids]
        client_cpu = time.process_time()
        run = await self.closed_loop(cluster.get_many, cluster.set_many,
                                     stretch)
        client_cpu = time.process_time() - client_cpu
        node_cpu = sum(proc_cpu_s(pid) for pid in pids) - node_cpu
        node_in = sum(proc_io_bytes(pid)[0] - io[0]
                      for pid, io in zip(pids, node_io))
        node_out = sum(proc_io_bytes(pid)[1] - io[1]
                       for pid, io in zip(pids, node_io))
        stats_after = await cluster.stats_all()

        # one caller at a time makes the counters attributable to a
        # batch: count the sequential network rounds each batch needed
        rounds = 0
        counting = 10 * self.slice_batches
        for _ in range(counting):
            seen = dict(cluster.counters)
            begin = self._take()
            keys = len({row[0] for row in self.tape.rows[begin:begin + BATCH]})
            wrote = await self._batch(cluster.get_many, cluster.set_many,
                                      begin)
            primary = cluster.counters["primary_hits"] - seen["primary_hits"]
            replica = cluster.counters["replica_hits"] - seen["replica_hits"]
            rounds += 1 + int(primary < keys) + int(replica > 0) + int(wrote)

        digests = await cluster.digest_all()
        distinct = set().union(*digests.values())
        copies = sum(len(digest) for digest in digests.values())

        def moved(name: str) -> int:
            return cluster.counters[name] - before[name]

        def engine_moved(name: str) -> float:
            return sum(stats_after[node][name] - stats_before[node][name]
                       for node in stats_after)

        return {
            "rate": run.rate()["undisturbed"],
            "counting_batches": counting,
            "metrics": {
                "cluster.round_trips_per_batch": rounds / counting,
                "cluster.replica_copies_per_key":
                    copies / max(len(distinct), 1),
                "cluster.primary_hits": moved("primary_hits"),
                "cluster.replica_hits": moved("replica_hits"),
                "cluster.read_repairs": moved("read_repairs"),
                "cluster.failovers": moved("failovers")
                    + moved("node_failures"),
                "cluster.node_cpu_us_per_key": node_cpu / run.units * 1e6,
                "cluster.client_cpu_us_per_key": client_cpu / run.units * 1e6,
                "protocol.bytes_in_per_op": node_in / run.units,
                "protocol.bytes_out_per_op": node_out / run.units,
                "engine.evictions": engine_moved("evictions"),
                "engine.slab_reassignments":
                    engine_moved("slab_reassignments"),
            },
        }
