"""``ClusterClient`` — consistent-hash routing over live CAMP servers.

This is :class:`~repro.cluster.cluster.CooperativeCluster`'s request
path rebuilt over real sockets: keys place on the same
:class:`~repro.cluster.hashring.HashRing`, every write goes to the
ring's preference list (``replicas`` distinct holders), and a read that
misses its primary falls through to the next replica holder, then
*read-repairs* the pair back toward the primary — the KOSAR-style
cooperative semantics of the paper's section 6, served by N
:class:`~repro.twemcache.async_server.AsyncTwemcacheServer` processes.

Routing and failure handling:

* ``get_many``/``set_many`` shard their batch per node and pipeline
  each shard through that node's
  :class:`~repro.twemcache.async_client.AsyncSocketClient` pool, so a
  B-key batch over N nodes costs ~one round trip per node, not B.
* Node health runs a per-node **circuit breaker**: a node that errors
  (dial failure, mid-pipeline death, timeout) opens its breaker for a
  jittered exponential-backoff window; while open, requests route to
  the next replica holder.  When the window lapses the breaker goes
  *half-open* — exactly one request shard is admitted as the probe —
  and its outcome either closes the breaker (node revived, idle
  sockets already dropped so it re-dials fresh) or re-opens it wider.
* An optional **per-request deadline** (``request_deadline``) budgets
  each public call *across* its failover retries: once the budget is
  spent, still-pending keys degrade to misses / unreplicated writes
  instead of waiting out another node timeout — bounded latency under
  faults, never a client-visible error.
* With ``hints_dir`` set, writes a down holder missed are parked as
  **hints** (:class:`~repro.cluster.hints.HintLog`, CRC-framed) and
  replayed — real CAMP costs intact — as soon as that node's probe
  succeeds, so a bounced node converges without waiting for reads.
* :meth:`anti_entropy` diffs replica **digests** (the wire's ``digest``
  verb: key → (cost, crc32)) across each key's preference list and
  re-replicates divergent pairs from the first holder that has the
  key, converging even keys never read.  Value conflicts resolve
  primary-led; hint replay (which carries true write order) runs
  first, so conflicting stale copies are already healed in the drills
  this client is built for.
* ``add_node``/``remove_node`` rewire the ring at runtime; consistent
  hashing bounds the keys whose placement changes to ~1/N.

The client is deliberately *stateless about data*: every routing
decision derives from the ring, so any number of ``ClusterClient``
instances (one per application process) agree on placement without
coordination.  Hints are per-client-instance state about *delivery*,
not about data.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.cluster.hashring import HashRing
from repro.cluster.hints import HintLog
from repro.errors import ConfigurationError, ProtocolError
from repro.persistence.format import PersistenceError
from repro.twemcache.async_client import AsyncSocketClient
from repro.twemcache.protocol import Value

__all__ = ["ClusterClient"]

Number = Union[int, float]

#: errors that mean "this node is unhealthy", not "this request is bad"
_NODE_ERRORS = (OSError, ProtocolError, asyncio.TimeoutError)


class _NodeState:
    """Health bookkeeping for one server: a per-node circuit breaker."""

    __slots__ = ("client", "host", "port", "failures", "down_until",
                 "probe_until", "needs_replay")

    def __init__(self, client: AsyncSocketClient, host: str,
                 port: int) -> None:
        self.client = client
        self.host = host
        self.port = port
        self.failures = 0         # consecutive failures (0 = closed)
        self.down_until = 0.0     # breaker-open horizon
        self.probe_until = 0.0    # half-open: the in-flight probe's lease
        self.needs_replay = False  # revived with hints possibly parked


class ClusterClient:
    """Route keys across N live twemcache servers over a hash ring."""

    def __init__(self, nodes: Dict[str, Tuple[str, int]],
                 replicas: int = 2, pool_size: int = 2,
                 timeout: float = 10.0, vnodes: int = 64,
                 backoff_base: float = 0.1, backoff_max: float = 5.0,
                 clock: Optional[Callable[[], float]] = None,
                 hints_dir: Optional[str] = None,
                 request_deadline: Optional[float] = None,
                 jitter_seed: int = 0,
                 fault_plan=None) -> None:
        """``nodes`` maps node name -> (host, port).  ``clock`` feeds the
        breaker and is injectable for deterministic tests.

        ``hints_dir`` enables hinted handoff (one ``<node>.hints`` file
        per absent holder); ``request_deadline`` is the per-call budget
        in seconds spanning retries (None = wait out every holder);
        ``jitter_seed`` makes the backoff jitter reproducible;
        ``fault_plan`` is threaded into every node's socket client for
        deterministic connect/read fault injection.
        """
        if not nodes:
            raise ConfigurationError("at least one node is required")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if request_deadline is not None and request_deadline <= 0:
            raise ConfigurationError(
                f"request_deadline must be positive, got {request_deadline}")
        self._replicas = replicas
        self._pool_size = pool_size
        self._timeout = timeout
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._clock = clock if clock is not None else time.monotonic
        self._hints_dir = (pathlib.Path(hints_dir)
                           if hints_dir is not None else None)
        self._hint_logs: Dict[str, HintLog] = {}
        self._request_deadline = request_deadline
        self._jitter = random.Random(jitter_seed)
        self._fault_plan = fault_plan
        self._repair_task: Optional[asyncio.Task] = None
        self._ring = HashRing(vnodes=vnodes)
        self._states: Dict[str, _NodeState] = {}
        for name, (host, port) in nodes.items():
            self._ring.add_node(name)
            self._states[name] = self._make_state(host, port)
        self.counters: Dict[str, int] = {
            "primary_hits": 0, "replica_hits": 0, "read_repairs": 0,
            "misses": 0, "node_failures": 0, "failovers": 0,
            "probes": 0, "deadline_expirations": 0,
            "hints_written": 0, "hints_replayed": 0, "hint_failures": 0,
            "digest_sweeps": 0, "repair_pairs": 0,
        }

    def _make_state(self, host: str, port: int) -> _NodeState:
        client = AsyncSocketClient((host, port), pool_size=self._pool_size,
                                   timeout=self._timeout,
                                   fault_plan=self._fault_plan)
        return _NodeState(client, host, port)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def node_names(self) -> List[str]:
        return self._ring.nodes

    def add_node(self, name: str, host: str, port: int) -> None:
        """Join a node: ~1/N of keys re-home onto it (consistent hash)."""
        self._ring.add_node(name)
        self._states[name] = self._make_state(host, port)

    async def remove_node(self, name: str) -> None:
        """Drop a node from the ring and close its pool."""
        self._ring.remove_node(name)
        state = self._states.pop(name)
        await state.client.close()

    def holders(self, key: str) -> List[str]:
        """The key's preference list (primary first)."""
        return self._ring.preference_list(key, self._replicas)

    # ------------------------------------------------------------------
    # health: the per-node circuit breaker
    # ------------------------------------------------------------------
    def breaker_state(self, name: str) -> str:
        """``closed`` / ``open`` / ``half_open`` (observability)."""
        state = self._states.get(name)
        if state is None or not state.failures:
            return "closed"
        return "open" if state.down_until > self._clock() else "half_open"

    def _admit(self, name: str) -> bool:
        """The routing gate.  Closed admits everything; open admits
        nothing; half-open admits exactly one shard — the probe — whose
        outcome closes or re-opens the breaker.  The probe holds a
        bounded lease so an abandoned probe (an error path that reaches
        neither ``_mark_up`` nor ``_mark_down``) self-heals rather than
        wedging the node half-open forever."""
        state = self._states.get(name)
        if state is None:
            return False
        if not state.failures:
            return True
        now = self._clock()
        if state.down_until > now:
            return False
        if state.probe_until > now:
            return False            # a probe is already in flight
        state.probe_until = now + max(self._timeout, 0.001) * 2
        self.counters["probes"] += 1
        return True

    def _usable(self, name: str) -> bool:
        """Side-effect-free health read (admin paths, tests)."""
        state = self._states.get(name)
        return state is not None and state.down_until <= self._clock()

    def _mark_down(self, name: str) -> None:
        state = self._states.get(name)
        if state is None:
            return
        state.failures += 1
        state.probe_until = 0.0
        delay = min(self._backoff_base * (2 ** (state.failures - 1)),
                    self._backoff_max)
        # jittered: [0.5, 1.0) of the nominal window, so a fleet of
        # clients that saw the same death does not probe in lockstep
        delay *= 0.5 + 0.5 * self._jitter.random()
        state.down_until = self._clock() + delay
        self.counters["node_failures"] += 1
        # stale sockets to the dead process would fail one by one on
        # reuse; drop them so the probe after backoff re-dials fresh
        state.client.reset()

    def _mark_up(self, name: str) -> None:
        state = self._states.get(name)
        if state is not None and state.failures:
            state.failures = 0
            state.down_until = 0.0
            state.probe_until = 0.0
            if self._hints_dir is not None:
                state.needs_replay = True   # drained at end of this call

    def down_nodes(self) -> List[str]:
        """Nodes currently inside an open breaker (for observability)."""
        now = self._clock()
        return [name for name, state in self._states.items()
                if state.down_until > now]

    # ------------------------------------------------------------------
    # request deadlines
    # ------------------------------------------------------------------
    def _deadline(self) -> Optional[float]:
        if self._request_deadline is None:
            return None
        return self._clock() + self._request_deadline

    def _remaining(self, deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return deadline - self._clock()

    async def _bounded(self, coroutine, deadline: Optional[float]):
        """Run one per-node operation under what's left of the budget;
        an exhausted budget surfaces as the node timeout it is."""
        remaining = self._remaining(deadline)
        if remaining is None:
            return await coroutine
        if remaining <= 0:
            coroutine.close()
            raise asyncio.TimeoutError("request deadline exhausted")
        return await asyncio.wait_for(coroutine, timeout=remaining)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    async def get(self, key: str) -> Optional[Value]:
        found = await self.get_many([key])
        return found.get(key)

    async def get_many(self, keys: Sequence[str]) -> Dict[str, Value]:
        """Fetch a batch across the cluster; misses are simply absent.

        Each round shards the still-pending keys by their current
        preference-list position, pipelines one ``gets`` batch per node,
        and advances failed/missed keys to the next replica holder.  A
        key only becomes a miss once every holder either missed or is
        down — or the request deadline ran out — a dead node never
        surfaces as a client error.  Replica hits are read-repaired
        toward their primary (fire-and-forget semantics but awaited
        here, so tests observe the repair).
        """
        if not keys:
            return {}
        deadline = self._deadline()
        found: Dict[str, Value] = {}
        # key -> index into its preference list for the next attempt
        pending: Dict[str, int] = {key: 0 for key in dict.fromkeys(keys)}
        prefs = {key: self.holders(key) for key in pending}
        repairs: List[Tuple[str, Value]] = []   # replica hits to re-home
        while pending:
            remaining = self._remaining(deadline)
            if remaining is not None and remaining <= 0:
                self.counters["misses"] += len(pending)
                self.counters["deadline_expirations"] += 1
                break
            shards: Dict[str, List[str]] = {}
            for key, idx in list(pending.items()):
                # skip past holders whose breaker rejects us right now
                holders = prefs[key]
                while idx < len(holders) and not self._admit(holders[idx]):
                    idx += 1
                    self.counters["failovers"] += 1
                if idx >= len(holders):
                    del pending[key]
                    self.counters["misses"] += 1
                    continue
                pending[key] = idx
                shards.setdefault(holders[idx], []).append(key)
            if not shards:
                break
            names = list(shards)
            results = await asyncio.gather(
                *(self._bounded(
                    self._states[name].client.get_many(shards[name],
                                                       with_cost=True),
                    deadline)
                  for name in names),
                return_exceptions=True)
            for name, result in zip(names, results):
                if isinstance(result, BaseException):
                    if not isinstance(result, _NODE_ERRORS):
                        raise result
                    self._mark_down(name)
                    for key in shards[name]:   # retry on the next holder
                        pending[key] += 1
                    continue
                self._mark_up(name)
                for key in shards[name]:
                    value = result.get(key)
                    if value is None:
                        pending[key] += 1   # miss here; try next holder
                        continue
                    found[key] = value
                    if pending[key] == 0:
                        self.counters["primary_hits"] += 1
                    else:
                        self.counters["replica_hits"] += 1
                        repairs.append((key, value))
                    del pending[key]
        if repairs:
            await self._read_repair(prefs, repairs)
        await self._drain_replayable_hints()
        return found

    async def _read_repair(self, prefs: Dict[str, List[str]],
                           repairs: List[Tuple[str, Value]]) -> None:
        """Re-replicate replica hits onto their (admitted) primaries."""
        shards: Dict[str, List[Tuple[str, bytes, int, float, Number]]] = {}
        for key, value in repairs:
            primary = prefs[key][0]
            if not self._admit(primary):
                continue   # still down; a later read will repair it
            shards.setdefault(primary, []).append(
                (key, value.value, value.flags, 0, value.cost))
        if not shards:
            return
        names = list(shards)
        results = await asyncio.gather(
            *(self._states[name].client.set_many(shards[name])
              for name in names),
            return_exceptions=True)
        for name, result in zip(names, results):
            if isinstance(result, BaseException):
                if not isinstance(result, _NODE_ERRORS):
                    raise result
                self._mark_down(name)   # repair is best-effort
                continue
            self._mark_up(name)
            self.counters["read_repairs"] += sum(result)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    async def set(self, key: str, value: bytes, flags: int = 0,
                  expire_after: float = 0, cost: Number = 0) -> bool:
        results = await self.set_many(
            [(key, value, flags, expire_after, cost)])
        return results[0]

    async def set_many(self,
                       entries: Iterable[Tuple[str, bytes, int, float,
                                               Number]]) -> List[bool]:
        """Store a batch: each entry goes to *every* admitted holder on
        its preference list, sharded and pipelined per node.  An entry
        reports True when at least one holder stored it; a holder that
        is down (or dies mid-batch) costs durability width, never a
        client-visible error — with hints enabled, the missed copies
        are parked for replay instead of silently narrowing.
        """
        rows = [AsyncSocketClient._normalize_entry(e) for e in entries]
        if not rows:
            return []
        deadline = self._deadline()
        results = [False] * len(rows)
        shards: Dict[str, List[int]] = {}   # node -> row indexes
        for i, row in enumerate(rows):
            for name in self.holders(row[0]):
                if self._admit(name):
                    shards.setdefault(name, []).append(i)
                else:
                    self._hint_rows(name, [row])
        names = list(shards)
        replies = await asyncio.gather(
            *(self._bounded(
                self._states[name].client.set_many(
                    [rows[i] for i in shards[name]]),
                deadline)
              for name in names),
            return_exceptions=True)
        expired = False
        for name, reply in zip(names, replies):
            if isinstance(reply, BaseException):
                if not isinstance(reply, _NODE_ERRORS):
                    raise reply
                if (isinstance(reply, asyncio.TimeoutError)
                        and deadline is not None
                        and self._remaining(deadline) <= 0):
                    expired = True
                self._mark_down(name)
                # attempted but undelivered: park the whole shard
                self._hint_rows(name, [rows[i] for i in shards[name]])
                continue
            self._mark_up(name)
            for i, stored in zip(shards[name], reply):
                results[i] = results[i] or stored
        if expired:
            self.counters["deadline_expirations"] += 1
        await self._drain_replayable_hints()
        return results

    async def delete(self, key: str) -> bool:
        """Remove a key from every holder; True if any held it.  Down
        holders get a delete *hint*, so a bounced node cannot resurrect
        the key on rejoin."""
        deleted = False
        for name in self.holders(key):
            if not self._admit(name):
                self._hint_delete(name, key)
                continue
            try:
                deleted = (await self._states[name].client.delete(key)
                           or deleted)
                self._mark_up(name)
            except _NODE_ERRORS:
                self._mark_down(name)
                self._hint_delete(name, key)
        await self._drain_replayable_hints()
        return deleted

    # ------------------------------------------------------------------
    # hinted handoff
    # ------------------------------------------------------------------
    def _hint_log(self, name: str) -> Optional[HintLog]:
        if self._hints_dir is None:
            return None
        log = self._hint_logs.get(name)
        if log is None:
            log = HintLog(self._hints_dir / f"{name}.hints")
            self._hint_logs[name] = log
        return log

    def _hint_rows(self, name: str, rows: Sequence[Tuple]) -> None:
        log = self._hint_log(name)
        if log is None:
            return
        for key, value, flags, expire_after, cost in rows:
            try:
                log.append(key, value, flags, expire_after, cost)
                self.counters["hints_written"] += 1
            except PersistenceError:
                self.counters["hint_failures"] += 1

    def _hint_delete(self, name: str, key: str) -> None:
        log = self._hint_log(name)
        if log is None:
            return
        try:
            log.append_delete(key)
            self.counters["hints_written"] += 1
        except PersistenceError:
            self.counters["hint_failures"] += 1

    async def _drain_replayable_hints(self) -> None:
        if self._hints_dir is None:
            return
        ready = [name for name, state in self._states.items()
                 if state.needs_replay]
        for name in ready:
            await self.replay_hints(name)

    async def replay_hints(self, name: Optional[str] = None) -> int:
        """Deliver parked writes to revived node(s); returns hints
        replayed.  Hints replay newest-per-key with their original CAMP
        costs; the file is dropped only after the whole replay landed,
        so a replay interrupted by another death is retried in full on
        the next revival (replay is idempotent — plain stores)."""
        if self._hints_dir is None:
            return 0
        names = [name] if name is not None else list(self._states)
        replayed = 0
        for node in names:
            state = self._states.get(node)
            log = self._hint_log(node)
            if state is None or log is None:
                continue
            entries = log.entries()
            if not entries:
                state.needs_replay = False
                log.clear()
                continue
            stores = [e for e in entries if e[1] is not None]
            removals = [e[0] for e in entries if e[1] is None]
            try:
                if stores:
                    await state.client.set_many(stores)
                for key in removals:
                    await state.client.delete(key)
            except _NODE_ERRORS:
                self._mark_down(node)   # keep the hints; retry next revival
                continue
            state.needs_replay = False
            replayed += len(entries)
            self.counters["hints_replayed"] += len(entries)
            log.clear()
        return replayed

    # ------------------------------------------------------------------
    # anti-entropy
    # ------------------------------------------------------------------
    async def anti_entropy(self, prefix: str = "") -> Dict[str, int]:
        """One digest sweep: diff every key's replica digests and
        re-replicate divergent pairs; returns a small report.

        Direction: the first holder *in preference order* that has the
        key is the source of truth for the pair — deterministic, so
        repeated sweeps converge.  Replay hints first when a fresher
        ordering matters (the chaos drill does).
        """
        self.counters["digest_sweeps"] += 1
        digests: Dict[str, Dict[str, tuple]] = {}
        for name in self.node_names:
            if not self._admit(name):
                continue
            try:
                digests[name] = await self._states[name].client.digest(
                    prefix)
                self._mark_up(name)
            except _NODE_ERRORS:
                self._mark_down(name)
        keys: set = set()
        for summary in digests.values():
            keys.update(summary)
        checked = 0
        divergent = 0
        fetch: Dict[str, set] = {}           # source node -> keys to pull
        push_plan: Dict[str, List[Tuple[str, str]]] = {}  # target -> pairs
        for key in sorted(keys):
            reachable = [h for h in self.holders(key) if h in digests]
            present = [h for h in reachable if key in digests[h]]
            if not present or len(reachable) < 2:
                continue
            checked += 1
            source = present[0]
            want = digests[source][key]
            for holder in reachable:
                if holder == source:
                    continue
                if digests[holder].get(key) != want:
                    divergent += 1
                    fetch.setdefault(source, set()).add(key)
                    push_plan.setdefault(holder, []).append((key, source))
        values: Dict[str, Value] = {}
        for source, wanted in fetch.items():
            try:
                values.update(await self._states[source].client.get_many(
                    sorted(wanted), with_cost=True))
            except _NODE_ERRORS:
                self._mark_down(source)
        repaired = 0
        for target, pairs in push_plan.items():
            rows = [(key, values[key].value, values[key].flags, 0,
                     values[key].cost)
                    for key, _source in pairs if key in values]
            if not rows:
                continue
            try:
                stored = await self._states[target].client.set_many(rows)
            except _NODE_ERRORS:
                self._mark_down(target)
                continue
            self._mark_up(target)
            repaired += sum(stored)
        self.counters["repair_pairs"] += repaired
        return {"nodes_scanned": len(digests), "keys_checked": checked,
                "divergent_pairs": divergent, "repaired": repaired}

    def start_anti_entropy(self, interval: float = 30.0,
                           prefix: str = "") -> asyncio.Task:
        """Run :meth:`anti_entropy` forever, every ``interval`` seconds,
        as a background task on the current loop (one per client)."""
        if self._repair_task is not None and not self._repair_task.done():
            raise ConfigurationError("anti-entropy loop already running")

        async def _loop() -> None:
            while True:
                await asyncio.sleep(interval)
                try:
                    await self.anti_entropy(prefix)
                except _NODE_ERRORS:     # a sick fleet heals next sweep
                    continue

        self._repair_task = asyncio.get_running_loop().create_task(_loop())
        return self._repair_task

    async def stop_anti_entropy(self) -> None:
        if self._repair_task is None:
            return
        self._repair_task.cancel()
        try:
            await self._repair_task
        except asyncio.CancelledError:
            pass
        self._repair_task = None

    # ------------------------------------------------------------------
    # admin
    # ------------------------------------------------------------------
    async def save_all(self) -> Dict[str, bool]:
        """Ask every admitted node to snapshot (warm-rejoin material)."""
        out: Dict[str, bool] = {}
        for name in self.node_names:
            if not self._admit(name):
                out[name] = False
                continue
            try:
                out[name] = await self._states[name].client.save()
                self._mark_up(name)
            except _NODE_ERRORS:
                self._mark_down(name)
                out[name] = False
        return out

    async def stats_all(self) -> Dict[str, Dict[str, Number]]:
        """Per-node server stats for every node that answers."""
        out: Dict[str, Dict[str, Number]] = {}
        for name in self.node_names:
            if not self._admit(name):
                continue
            try:
                out[name] = await self._states[name].client.stats()
                self._mark_up(name)
            except _NODE_ERRORS:
                self._mark_down(name)
        return out

    async def digest_all(self, prefix: str = ""
                         ) -> Dict[str, Dict[str, tuple]]:
        """Per-node digests (convergence checks; skips unreachable)."""
        out: Dict[str, Dict[str, tuple]] = {}
        for name in self.node_names:
            if not self._admit(name):
                continue
            try:
                out[name] = await self._states[name].client.digest(prefix)
                self._mark_up(name)
            except _NODE_ERRORS:
                self._mark_down(name)
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        await self.stop_anti_entropy()
        for state in self._states.values():
            await state.client.close()

    async def __aenter__(self) -> "ClusterClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
