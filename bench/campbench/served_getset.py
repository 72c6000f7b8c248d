"""``served_getset`` — the paper's §5 cycle over loopback TCP to one node.

One ``repro.cluster.node`` process (CAMP, memory = 0.25 × unique bytes)
driven by ``AsyncSocketClient(pool_size=2)``: a single-key ``get`` and,
on a miss, a ``set`` with the trace's cost.  The end-to-end run has two
phases on one tape: an **open loop** at ``RATE_REF`` requests/s (seeded
Poisson arrivals, every request timed from the instant it was *due*) and
a **closed loop** of two callers.  Messages are small and reads dominate,
so per-message cost in ``protocol``, ``transport`` and ``engine`` sets the
numbers and ``core`` is a few percent of them.
"""

from __future__ import annotations

import asyncio
import statistics
import time
import zlib
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.twemcache.async_client import AsyncSocketClient
from repro.twemcache.client import LoopbackClient
from repro.twemcache.engine import TwemcacheEngine
from repro.twemcache.protocol import ServerSession
from repro.workloads import three_cost_trace

from .common import (closed_loop, generator_gc_quiet, generator_loop,
                     latency_summary, make_tape, percentile, poisson_arrivals,
                     proc_cpu_s, three_cost_price, value_for)
from .inproc import Tally
from .spans import EngineProxy, Tracer

#: a third of the closed-loop throughput measured on the 2-core reference
#: host when the benchmark was defined (~9 000/s).  Half of it sits on the
#: knee there — p99 doubles between 3 500/s and 4 000/s — and a number
#: taken on a knee does not repeat
RATE_REF = 3_000
RATE_LIGHT = RATE_REF // 8
#: a request slower than this has missed its limit
LIMIT_US = 5_000.0
#: share of the timed region spent in the open loop: its p99 needs the
#: samples, the closed loop's throughput is steady after a few seconds
OPEN_SHARE = 0.7
CACHE_RATIO = 0.25
SIZES = (256, 512, 1024, 2048, 4096)
WARM_BATCH = 64
#: one key in 64 is read back with ``gets`` to check its cost survived
COST_CHECK_MODULUS = 64
#: how long the open loop waits for replies after its last arrival; what
#: is still out then is cancelled and counted as failed
DRAIN_S = 1.0
#: the generator is the slow part when its median lateness exceeds this
#: share of the median latency it reports
LAG_SHARE = 0.1
POOL = 2
#: requests of the timed region whose outcomes give cost_miss_ratio — the
#: open loop's and the closed loop's first.  Every run gets at least these
#: done, so the ratio does not depend on how far down the tape the host's
#: speed let the run get
FIXED_REQUESTS = 40_000
#: an open-loop phase's backlog counts as growing when its last tenth
#: has this share of a tenth's sends more in flight than its middle tenth
BACKLOG_SHARE = 0.1
_FAILED_NS = int(LIMIT_US * 10 * 1e3)
_NODE_ERRORS = (OSError, ProtocolError, asyncio.TimeoutError)


class OpenRun:
    """What one open-loop stretch produced."""

    def __init__(self) -> None:
        self.lat_ns: List[int] = []      # get latency, from due time
        self.lag_ns: List[int] = []      # how late the generator sent
        self.inflight: List[int] = []    # requests in flight at each send
        self.abandoned = 0               # still out when the drain ended

    def backlog(self):
        """Median requests in flight over the middle tenth of the sends
        and over the last tenth.  (Medians, because one stall of the
        host inside a tenth piles up a hundred requests for a moment.)"""
        tenth = max(1, len(self.inflight) // 10)
        middle = len(self.inflight) // 2
        return (statistics.median(self.inflight[middle:middle + tenth]),
                statistics.median(self.inflight[-tenth:]))

    def backlog_grew(self) -> bool:
        """Whether the server fell behind the schedule for good.  At
        3 000/s a server 2 % too slow for the rate has 200 requests more
        in flight in the last tenth than in the middle one, which is the
        threshold; a host at half speed for the last second has 50."""
        middle, end = self.backlog()
        return end - middle > BACKLOG_SHARE * len(self.inflight) / 10


class ServedGetSet:
    name = "served_getset"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.n_keys, self.n_requests = (
            (2_000, 8_000) if ctx.smoke else (50_000, 120_000))
        self.slice_ops = 50 if ctx.smoke else 500
        self.fixed_requests = 1_000 if ctx.smoke else FIXED_REQUESTS
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.client: Optional[AsyncSocketClient] = None
        self.node = None

    # ------------------------------------------------------------------
    def make_tape(self) -> None:
        self.tape = make_tape(three_cost_trace, three_cost_price(SIZES),
                              n_keys=self.n_keys, n_requests=self.n_requests,
                              seed=self.ctx.seed)
        self.warm = len(self.tape) // 5
        # the engine allocates whole 1 MiB slabs to size classes; below
        # a few slabs per class it cannot hold anything
        self.memory = max(int(self.tape.unique_bytes * CACHE_RATIO), 8 << 20)
        self._reset_accounting()

    def _reset_accounting(self) -> None:
        self.cursor = self.warm
        self.taken = 0
        self.attempted = self.failed = self.wrong = 0
        self.tally = Tally()
        self.inflight = 0

    def _take(self):
        """Next tape position, and whether the request counts towards
        cost_miss_ratio; wraps to the start of the timed region."""
        index = self.cursor
        self.taken += 1
        self.cursor += 1
        if self.cursor >= len(self.tape):
            self.cursor = self.warm
            self.tape.cold = bytearray(len(self.tape))   # all seen by now
        return index, self.taken <= self.fixed_requests

    async def _warm_up(self, client) -> None:
        rows = self.tape.rows
        for begin in range(0, self.warm, WARM_BATCH):
            batch = {key: (size, cost)
                     for key, size, cost in rows[begin:begin + WARM_BATCH]}
            found = await client.get_many(list(batch))
            await client.set_many(
                [(key, value_for(key, size), 0, 0, cost)
                 for key, (size, cost) in batch.items() if key not in found])

    def bring_up(self) -> None:
        self.node = self.ctx.nodes.spawn(self.memory)
        self.loop = generator_loop()
        self.client = AsyncSocketClient(self.node.address, pool_size=POOL)
        self.loop.run_until_complete(self._warm_up(self.client))

    def teardown(self) -> None:
        if self.loop is not None:
            if self.client is not None:
                self.loop.run_until_complete(self.client.close())
            self.loop.close()
        self.loop = self.client = self.node = None

    # ------------------------------------------------------------------
    # one request of the cycle
    # ------------------------------------------------------------------
    async def _request(self, client, taken, due: float,
                       lat_ns: List[int]) -> None:
        """get, set on a miss, sometimes read the cost back.  Appends
        exactly one latency: the get's, from ``due``."""
        index, accounted = taken
        key, size, cost = self.tape.rows[index]
        cold = self.tape.cold[index]
        self.attempted += 1
        self.inflight += 1
        timed = False
        try:
            served = await client.get(key)
            lat_ns.append(int((perf_counter() - due) * 1e9))
            timed = True
            if served is None:
                stored = await client.set(key, value_for(key, size),
                                          cost=cost)
                if not stored:
                    self.failed += 1
            elif served.value != value_for(key, size):
                self.wrong += 1
            if zlib.crc32(key.encode()) % COST_CHECK_MODULUS == 0:
                self.attempted += 1
                back = (await client.get_map([key], with_cost=True)).get(key)
                if back is not None and back.cost != cost:
                    self.wrong += 1
        except (*_NODE_ERRORS, asyncio.CancelledError) as error:
            # failed, refused, timed out or abandoned by the drain: it
            # has missed any limit
            self.failed += 1
            if not timed:
                lat_ns.append(_FAILED_NS)
            if isinstance(error, asyncio.CancelledError):
                raise
            return
        finally:
            self.inflight -= 1
        if accounted and not cold:
            self.tally.served(cost, hit=served is not None)

    # ------------------------------------------------------------------
    # the two kinds of loop
    # ------------------------------------------------------------------
    async def open_loop(self, client, rate: float, seconds: float,
                        seed: int) -> OpenRun:
        """Send on a Poisson schedule whatever the replies do."""
        run = OpenRun()
        arrivals = poisson_arrivals(rate, seconds, seed)
        loop = asyncio.get_running_loop()
        tasks = []
        origin = perf_counter() + 0.02
        for offset in arrivals:
            due = origin + offset
            # sleep to a millisecond short of the due time, then yield
            # to the loop until it arrives: a sleeping generator wakes
            # 100-300 µs late on this kind of host, and that lateness
            # would be charged to every request.  The generator has its
            # own CPU (see pin_generator), so the wait starves no one.
            while True:
                ahead = due - perf_counter()
                if ahead <= 0:
                    break
                await asyncio.sleep(ahead - 0.001 if ahead > 0.0015 else 0)
            run.lag_ns.append(int(-ahead * 1e9))
            run.inflight.append(self.inflight)
            tasks.append(loop.create_task(
                self._request(client, self._take(), due, run.lat_ns)))
        # a server that has fallen behind is not waited for: the phase
        # ends a fixed time after its last arrival
        if tasks:
            _, late = await asyncio.wait(tasks, timeout=DRAIN_S)
            for task in late:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            run.abandoned = len(late)
        return run

    def closed_loop(self, client, callers: int, seconds: float,
                    at_least: int = 0, limit: Optional[int] = None):
        """Each caller sends its next request when its last one is done."""
        def step(lat_ns):
            return self._request(client, self._take(), perf_counter(), lat_ns)
        return closed_loop(step, callers, seconds, self.slice_ops,
                           at_least=at_least, limit=limit)

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict:
        return self.loop.run_until_complete(self._measure(seconds))

    async def _measure(self, seconds: float) -> Dict:
        self._reset_accounting()
        with generator_gc_quiet():
            opened = await self.open_loop(self.client, RATE_REF,
                                          seconds * OPEN_SHARE, self.ctx.seed)
            closed = await self.closed_loop(
                self.client, POOL, seconds * (1 - OPEN_SHARE),
                at_least=self.fixed_requests - self.taken)
        self.ctx.mark_rss()
        stats = await self.client.stats()
        rate = closed.rate()
        latency = latency_summary(opened.lat_ns)
        lag = latency_summary(opened.lag_ns)
        # a run in which the server fell behind the schedule, or the
        # generator behind its own, or the closed loop got too little
        # done for a median, measured the host's stall and not the code
        invalid = []
        if opened.backlog_grew() or opened.abandoned:
            invalid.append("the open loop's backlog grew")
        if lag["pooled_p50_us"] > LAG_SHARE * latency["pooled_p50_us"]:
            invalid.append("the generator ran late")
        if not self.ctx.smoke:      # a toy-size run asserts no timing
            invalid += closed.invalid()
        return {
            "metrics": {
                "ops_per_s": rate["undisturbed"],
                "req_p50_us": latency["p50_us"],
                "req_p95_us": latency["p95_us"],
                "cost_miss_ratio": self.tally.cost_miss_ratio,
            },
            "attempted": self.attempted,
            "failed": self.failed + self.wrong,
            "invalid": invalid,
            "detail": {
                "open_loop": {
                    "rate_per_s": RATE_REF, "connections": POOL,
                    "latency": latency, "limit_us": LIMIT_US,
                    "over_limit_share": _over_limit(opened.lat_ns),
                    "generator_lag": lag,
                    "inflight_mid_end": opened.backlog(),
                    "backlog_grew": opened.backlog_grew(),
                    "abandoned": opened.abandoned,
                },
                "closed_loop": {"callers": POOL, "ops_per_s": rate,
                                "requests": closed.steps},
                "accounted_requests": self.tally.counted,
                "hits": self.tally.hits, "misses": self.tally.misses,
                "wrong": self.wrong, "node_memory_bytes": self.memory,
                "node_stats": stats,
            },
        }

    # ------------------------------------------------------------------
    # the traced run: the ladder Loopback → socket, then the rate ladder
    # ------------------------------------------------------------------
    def _engine(self) -> TwemcacheEngine:
        return TwemcacheEngine(self.memory, eviction="camp")

    def _loopback_rung(self, engine, stop: int, tracer: Optional[Tracer]):
        """Replay the slice through ``LoopbackClient``; per-request get
        and set times (ns), the hit count and the seconds it took."""
        client = LoopbackClient(engine)
        get, put = client.get, client.set
        rows = self.tape.rows
        for key, size, cost in rows[:self.warm]:
            if get(key) is None:
                put(key, value_for(key, size), cost=cost)
        if tracer is not None:
            tracer.clear()
            get = tracer.wrap("client.get", get)
            put = tracer.wrap("client.set", put)
        gets, sets, hits = [], [], 0
        now = perf_counter_ns
        started = now()
        for key, size, cost in rows[self.warm:stop]:
            before = now()
            served = get(key)
            gets.append(now() - before)
            if served is not None:
                hits += 1
                if served.value != value_for(key, size):
                    self.wrong += 1
                continue
            value = value_for(key, size)
            before = now()
            put(key, value, cost=cost)
            sets.append(now() - before)
        return gets, sets, hits, (now() - started) / 1e9

    def _session_rung(self, stop: int, tracer: Tracer):
        """Feed rendered requests straight to ``ServerSession.receive``
        around a traced engine; bytes in and out per request."""
        session = ServerSession(EngineProxy(self._engine(), tracer))
        rows = self.tape.rows

        def render_set(key, size, cost):
            value = value_for(key, size)
            return (f"set {key} 0 0 {len(value)} {cost}\r\n".encode()
                    + value + b"\r\n")

        for key, size, cost in rows[:self.warm]:
            reply, _ = session.receive(f"get {key}\r\n".encode())
            if reply.startswith(b"END"):
                session.receive(render_set(key, size, cost))
        tracer.clear()
        receive_get = tracer.wrap("protocol.receive_get", session.receive)
        receive_set = tracer.wrap("protocol.receive_set", session.receive)
        bytes_in = bytes_out = hits = 0
        for key, size, cost in rows[self.warm:stop]:
            request = f"get {key}\r\n".encode()
            reply, _ = receive_get(request)
            bytes_in += len(request)
            bytes_out += len(reply)
            if not reply.startswith(b"END"):
                hits += 1
                continue
            request = render_set(key, size, cost)
            reply, _ = receive_set(request)
            bytes_in += len(request)
            bytes_out += len(reply)
        return bytes_in, bytes_out, hits

    def trace(self, seconds: float) -> Dict:
        self.make_tape()
        scale = seconds / 10
        stop = min(len(self.tape), self.warm + max(
            self.slice_ops, int(15_000 * scale)))
        ops = stop - self.warm

        # rungs over the socket first, while this process is still small:
        # the generator must not be the slow part
        self.node = self.ctx.nodes.spawn(self.memory)
        self.loop = generator_loop()
        with generator_gc_quiet():
            socket = self.loop.run_until_complete(
                self._socket_rungs(ops, scale))
        socket_failed = self.failed + self.wrong
        socket_attempted = self.attempted
        self.wrong = 0

        # rungs inside this process, on the same slice
        plain_engine = self._engine()
        gets, sets, plain_hits, plain_s = self._loopback_rung(
            plain_engine, stop, None)
        loop_tracer = Tracer()
        _, _, traced_hits, traced_s = self._loopback_rung(
            EngineProxy(self._engine(), loop_tracer), stop, loop_tracer)
        session_tracer = Tracer()
        bytes_in, bytes_out, session_hits = self._session_rung(
            stop, session_tracer)
        same = plain_hits == traced_hits == session_hits
        loop_tracer.dump(self.ctx.trace_path(self.name))
        loopback_get_us = statistics.median(gets) / 1e3
        engine_stats = plain_engine.stats()
        sizes = {key: size for key, size, _ in self.tape.rows}
        user_bytes = sum(sizes[key] for key in plain_engine.digest())

        metrics = {
            "engine.us_per_get": loop_tracer.median_us("engine.get"),
            "engine.us_per_set": loop_tracer.median_us("engine.set"),
            "engine.evictions": engine_stats["evictions"],
            "engine.slab_reassignments": engine_stats["slab_reassignments"],
            "engine.mem_per_user_byte":
                engine_stats["allocated_slabs"] * (1 << 20) / user_bytes,
            "protocol.self_us_per_get": statistics.median(
                session_tracer.self_us("protocol.receive_get")),
            "protocol.self_us_per_set": statistics.median(
                session_tracer.self_us("protocol.receive_set")),
            "protocol.client_us_per_op":
                loop_tracer.median_us("client.get")
                - session_tracer.median_us("protocol.receive_get"),
            "protocol.bytes_in_per_op": bytes_in / ops,
            "protocol.bytes_out_per_op": bytes_out / ops,
            # the socket rung is the open loop at RATE_LIGHT, so an idle
            # server's wake-up is part of the hop, as it is for a user
            "transport.us_per_op":
                socket["metrics"]["transport.get_p50_us_light"]
                - loopback_get_us,
            "workloads.gen_s": self.tape.gen_s,
            "trace.overhead_ratio": plain_s / traced_s,
        }
        metrics.update(socket["metrics"])
        path_us = (metrics["protocol.client_us_per_op"]
                   + metrics["transport.us_per_op"]
                   + metrics["protocol.self_us_per_get"]
                   + metrics["engine.us_per_get"])
        return {
            "metrics": metrics,
            "attempted": socket_attempted + 3 * ops,
            "failed": socket_failed + self.wrong,
            "same_decisions": same,
            "detail": {
                "slice_requests": ops,
                "loopback_get_us": loopback_get_us,
                "loopback_set_us": statistics.median(sets) / 1e3,
                "socket_get_us": socket["socket_get_us"],
                "blocking_path_us": path_us,
                "blocking_path_over_p50_light":
                    path_us / metrics["transport.get_p50_us_light"],
                "rate_ladder": socket["ladder"],
                "hits": {"loopback": plain_hits, "traced": traced_hits,
                         "session": session_hits},
            },
        }

    async def _socket_rungs(self, ops: int, scale: float) -> Dict:
        single = AsyncSocketClient(self.node.address, pool_size=1)
        self.client = AsyncSocketClient(self.node.address, pool_size=POOL)
        await self._warm_up(self.client)

        # one caller, one connection: the round trip with no queueing
        self._reset_accounting()
        cpu_server = proc_cpu_s(self.node.pid)
        cpu_client = time.process_time()
        alone = await self.closed_loop(single, 1, 60.0, limit=ops)
        cpu_server = proc_cpu_s(self.node.pid) - cpu_server
        cpu_client = time.process_time() - cpu_client
        await single.close()
        socket_get_us = percentile(sorted(alone.lat_ns), 0.5) / 1e3

        light = await self.open_loop(self.client, RATE_LIGHT, 2.0 * scale,
                                     self.ctx.seed + 1)
        ref = await self.open_loop(self.client, RATE_REF, 2.5 * scale,
                                   self.ctx.seed + 2)
        light_p50 = latency_summary(light.lat_ns)["p50_us"]
        ref_latency = latency_summary(ref.lat_ns)

        # the rate ladder: the highest rate whose p99 meets the limit
        # with no backlog building up; it stops at the first rate that
        # does not
        ladder = []
        max_rate_ok = 0
        for number, factor in enumerate((0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)):
            rate = int(RATE_REF * factor)
            phase = ref if factor == 1.0 else await self.open_loop(
                self.client, rate, 1.0 * scale, self.ctx.seed + 3 + number)
            p99 = percentile(sorted(phase.lat_ns), 0.99) / 1e3
            grew = phase.backlog_grew()
            ladder.append({"rate_per_s": rate, "p99_us": p99,
                           "backlog_grew": grew,
                           "requests": len(phase.lat_ns)})
            if p99 > LIMIT_US or grew:
                break
            max_rate_ok = rate
        return {
            "socket_get_us": socket_get_us,
            "ladder": ladder,
            "metrics": {
                "transport.get_p50_us_light": light_p50,
                "transport.queue_wait_us": ref_latency["p50_us"] - light_p50,
                "transport.get_p99_us": ref_latency["pooled_p99_us"],
                "transport.get_p999_us":
                    percentile(sorted(ref.lat_ns), 0.999) / 1e3,
                "transport.over_limit_share": _over_limit(ref.lat_ns),
                "transport.generator_lag_p99_us":
                    latency_summary(ref.lag_ns)["pooled_p99_us"],
                "transport.max_rate_ok": max_rate_ok,
                "transport.server_cpu_us_per_op":
                    cpu_server / alone.steps * 1e6,
                "transport.client_cpu_us_per_op":
                    cpu_client / alone.steps * 1e6,
            },
        }


def _over_limit(lat_ns: List[int]) -> float:
    return sum(1 for value in lat_ns if value > LIMIT_US * 1e3) / len(lat_ns)
