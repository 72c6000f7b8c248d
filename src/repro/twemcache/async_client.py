"""``AsyncSocketClient`` — pooled, pipelining asyncio protocol client.

The sync :class:`~repro.twemcache.client.SocketClient` is strictly
request/response: every call pays a full network round trip.  This
client keeps a pool of connections and *pipelines*: ``get_many`` /
``set_many`` write a whole batch of commands per connection in one
``send`` and only then read the replies, so N requests cost ~one round
trip per pool connection instead of N.

Each connection is a callback :class:`asyncio.Protocol` over its own
:class:`~repro.twemcache.protocol.ClientSession`: ``data_received``
feeds the session, pops every reply it completes, and resolves the one
waiting future once the exchange has all the replies it expects — no
stream reader, no read loop, no ``drain``.  A connection carries one
exchange at a time (the pool hands it to one caller), so callers never
share a socket: two callers pipelined onto one connection march in
lockstep and stop overlapping client and server CPU.

Single-key ``get``/``set``/``delete`` work too (acquire a pooled
connection, one round trip), so the client is a drop-in async
counterpart for the sync surface, plus ``stats``/``version``/``save``.
A single-key call and a whole batch each run under the one ``timeout``:
a batch writes every connection's commands before it awaits any reply,
so it waits no longer than one request.  The deadline costs no timer
per call: each exchange stores it on its connection, and the
connection's one timer is armed only when none is pending; when it
fires it re-arms for the current deadline, or expires the waiting
exchange once that is past.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError
from repro.faults.transport import apply_connect_faults, apply_read_faults
from repro.twemcache.protocol import ClientSession, Value

__all__ = ["AsyncSocketClient"]

Number = Union[int, float]


class _Connection(asyncio.Protocol):
    """One pooled socket, its protocol session and its deadline timer."""

    __slots__ = ("session", "replies", "deadline", "_loop", "_transport",
                 "_want", "_waiter", "_error", "_timer", "_lost")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.session = ClientSession()
        self.replies: list = []
        self.deadline = 0.0
        self._loop = loop
        self._transport: Optional[asyncio.Transport] = None
        self._want = 0
        self._waiter: Optional[asyncio.Future] = None
        self._error: Optional[BaseException] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._lost = loop.create_future()

    # -- protocol callbacks --------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self.session.receive(data)
        self._collect()

    def connection_lost(self, exc) -> None:
        if exc is None:
            self.session.receive(b"")   # a reply cut short: ProtocolError
        elif self._error is None:
            self._error = exc
        self._collect()
        self._lost.set_result(None)

    def _collect(self) -> None:
        """Pop every reply the buffered bytes complete; wake the waiter
        once the exchange has all it asked for, or the stream broke."""
        session, replies = self.session, self.replies
        try:
            while session.pending:
                reply = session.next_reply()
                if reply is None:
                    break
                replies.append(reply)
        except ProtocolError as exc:
            self._error = self._error or exc
        waiter = self._waiter
        if waiter is None or waiter.done():
            return
        if len(replies) >= self._want:
            self._waiter = None
            waiter.set_result(None)
        elif self._error is not None:
            self._waiter = None
            waiter.set_exception(self._error)

    # -- the lazy deadline ---------------------------------------------
    def _on_deadline(self) -> None:
        self._timer = None
        waiter = self._waiter
        if waiter is None or waiter.done():
            return                      # idle: stop until the next wait
        if self._loop.time() >= self.deadline:
            self._waiter = None
            waiter.set_exception(asyncio.TimeoutError())
        else:
            self._timer = self._loop.call_at(self.deadline,
                                             self._on_deadline)

    # -- the exchange ----------------------------------------------------
    def send(self, request: bytes, timeout: float) -> int:
        """Write ``request`` (its replies are queued on the session) and
        start an exchange due within ``timeout`` seconds; returns how
        many replies it expects."""
        self.replies = []
        self.deadline = self._loop.time() + timeout
        self._transport.write(request)
        return self.session.pending

    async def wait(self, want: int) -> None:
        """Until ``want`` replies of this exchange have arrived, the
        stream breaks, or :attr:`deadline` passes."""
        if len(self.replies) >= want:
            return
        if self._error is not None:
            raise self._error
        self._want = want
        waiter = self._waiter = self._loop.create_future()
        if self._timer is None:
            self._timer = self._loop.call_at(self.deadline,
                                             self._on_deadline)
        await waiter

    def quit(self) -> None:
        try:
            self._transport.write(self.session.quit())
        except (ConnectionError, RuntimeError):
            pass

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._transport.close()

    async def closed(self) -> None:
        await self._lost


class AsyncSocketClient:
    """Pooled asyncio client for the memcached-style text protocol."""

    def __init__(self, address: Tuple[str, int], pool_size: int = 4,
                 timeout: float = 10.0, fault_plan=None) -> None:
        """``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`)
        injects connect/read faults deterministically — tests and chaos
        drills only; None (the default) adds no overhead."""
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self._address = address
        self._pool_size = pool_size
        self._timeout = timeout
        self._fault_plan = fault_plan
        self._fault_target = f"{address[0]}:{address[1]}"
        self._idle: List[_Connection] = []
        self._all: List[_Connection] = []
        self._available = asyncio.Semaphore(pool_size)
        # serializes multi-connection checkouts: without it two
        # concurrent batches can each hold part of the pool and wait
        # forever for the rest (partial-acquisition deadlock)
        self._checkout = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------
    async def _connect(self) -> _Connection:
        host, port = self._address
        await apply_connect_faults(self._fault_plan, self._fault_target)
        loop = asyncio.get_running_loop()
        _, conn = await asyncio.wait_for(
            loop.create_connection(lambda: _Connection(loop), host, port),
            timeout=self._timeout)
        self._all.append(conn)
        return conn

    async def _acquire(self) -> _Connection:
        if self._closed:
            raise ProtocolError("client is closed")
        await self._available.acquire()
        if self._idle:
            return self._idle.pop()
        try:
            return await self._connect()
        except BaseException:
            # hand the permit back or failed dials shrink the pool
            # until every operation blocks forever
            self._available.release()
            raise

    def _release(self, conn: _Connection, broken: bool = False) -> None:
        if broken:
            conn.close()
            if conn in self._all:
                self._all.remove(conn)
        else:
            self._idle.append(conn)
        self._available.release()

    async def _checked_out(self, count: int) -> List[_Connection]:
        """Acquire up to ``count`` pool connections for a fan-out batch.

        Checkouts are serialized: a batch waiting for permits never
        blocks another batch that already holds some (single-key
        operations release their one permit independently, so the lock
        holder always makes progress).
        """
        async with self._checkout:
            conns: List[_Connection] = []
            try:
                for _ in range(min(count, self._pool_size)):
                    conns.append(await self._acquire())
            except BaseException:
                for conn in conns:
                    self._release(conn)
                raise
            return conns

    # ------------------------------------------------------------------
    # exchanges
    # ------------------------------------------------------------------
    async def _replies(self, conn: _Connection, want: int) -> None:
        """Wait for the ``want`` replies of the exchange just sent on a
        checked-out connection, until its deadline.  Callers discard
        the connection on any raise."""
        plan = self._fault_plan
        if plan is None:
            await conn.wait(want)
            return
        for i in range(want):
            # one read-seam opportunity per expected reply, so a plan's
            # ``at`` does not depend on TCP segmentation; an injected
            # stall runs under the exchange's deadline
            async with asyncio.timeout_at(conn.deadline):
                await apply_read_faults(plan, self._fault_target)
            await conn.wait(i + 1)

    async def _call(self, render, *args):
        """One request on one pooled connection: ``render(session,
        *args)`` gives its bytes; returns its reply."""
        conn = await self._acquire()
        try:
            want = conn.send(render(conn.session, *args), self._timeout)
            await self._replies(conn, want)
        except BaseException:
            # BaseException, not Exception: CancelledError (an outer
            # wait_for / deadline budget expiring mid-read) must also
            # discard the connection — its unread reply bytes would
            # poison the next caller — and hand the permit back, or the
            # pool wedges one permit at a time
            self._release(conn, broken=True)
            raise
        self._release(conn)
        return conn.replies[0]

    async def _fan_out(self, items: list, render) -> List[list]:
        """Shard ``items`` over up to ``pool_size`` connections (shard i
        holds ``items[i::n]``), render each shard with ``render(session,
        shard)`` and write them all before collecting any reply, so the
        shards are served concurrently under one timeout, as a single
        exchange is; returns each connection's replies in shard order."""
        conns = await self._checked_out(len(items))
        width = len(conns)
        try:
            wants = [conn.send(render(conn.session, items[i::width]),
                               self._timeout)
                     for i, conn in enumerate(conns)]
            for conn, want in zip(conns, wants):
                await self._replies(conn, want)
        except BaseException:
            # BaseException so an outer cancellation also reaches the
            # cleanup below; a shard's unread replies would poison the
            # next caller of its connection
            for conn in conns:
                self._release(conn, broken=True)
            raise
        for conn in conns:
            self._release(conn)
        return [conn.replies for conn in conns]

    # ------------------------------------------------------------------
    # single-key operations
    # ------------------------------------------------------------------
    async def get(self, *keys: str) -> Optional[Value]:
        """Fetch one or more keys in one command; returns the *last* hit
        for the single-key call shape (mirrors the sync client), or use
        :meth:`get_many` for a dict of every hit."""
        found = await self.get_map(keys)
        for key in reversed(keys):
            if key in found:
                return found[key]
        return None

    async def get_map(self, keys: Sequence[str],
                      with_cost: bool = False) -> Dict[str, Value]:
        """Multi-key get on one pooled connection (commands chunked to
        stay under the server's line bound, pipelined).

        ``with_cost=True`` issues ``gets`` so each returned ``Value``
        carries the item's CAMP cost — the cluster tier needs it to
        read-repair without flattening costs to 0."""
        if not keys:
            return {}
        return await self._call(ClientSession.get, keys, with_cost)

    async def set(self, key: str, value: bytes, flags: int = 0,
                  expire_after: float = 0, cost: Number = 0) -> bool:
        return await self._call(ClientSession.set, key, value, flags,
                                expire_after, cost)

    async def delete(self, key: str) -> bool:
        return await self._call(ClientSession.delete, key)

    # ------------------------------------------------------------------
    # pipelined batches
    # ------------------------------------------------------------------
    async def get_many(self, keys: Sequence[str],
                       keys_per_command: int = 1,
                       with_cost: bool = False) -> Dict[str, Value]:
        """Pipelined fetch of many keys across the pool.

        Keys are sharded over the pool's connections; each connection
        receives *all* its get commands in one write, then replies are
        parsed in order.  ``keys_per_command`` > 1 additionally packs
        several keys into each multi-get command line; ``with_cost``
        switches to the ``gets`` verb (values carry their CAMP cost).
        """
        if not keys:
            return {}
        per_conn = await self._fan_out(
            list(keys), lambda session, shard: session.get(
                shard, with_cost, keys_per_command))
        found: Dict[str, Value] = {}
        for (shard_found,) in per_conn:
            found.update(shard_found)
        return found

    async def set_many(self,
                       entries: Iterable[Tuple[str, bytes, int, float,
                                               Number]]) -> List[bool]:
        """Pipelined stores: ``(key, value[, flags, expire_after, cost])``
        rows fanned over the pool, one write per connection; returns
        per-entry STORED booleans in input order."""
        rows = [self._normalize_entry(entry) for entry in entries]
        if not rows:
            return []
        per_conn = await self._fan_out(
            rows, lambda session, shard: b"".join(
                session.set(*row) for row in shard))
        results: List[bool] = [False] * len(rows)
        for i, stored in enumerate(per_conn):
            results[i::len(per_conn)] = stored
        return results

    @staticmethod
    def _normalize_entry(entry) -> Tuple[str, bytes, int, float, Number]:
        key, value = entry[0], entry[1]
        flags = entry[2] if len(entry) > 2 else 0
        expire_after = entry[3] if len(entry) > 3 else 0
        cost = entry[4] if len(entry) > 4 else 0
        return key, value, flags, expire_after, cost

    # ------------------------------------------------------------------
    # admin verbs
    # ------------------------------------------------------------------
    async def stats(self) -> Dict[str, Number]:
        return await self._call(ClientSession.stats)

    async def digest(self, prefix: str = "") -> Dict[str, Tuple[Number,
                                                                int]]:
        """Fetch the node's anti-entropy summary: key → (cost, crc32).

        The cluster sweep diffs these across a key's replica holders;
        only keys whose pairs disagree cost a value transfer."""
        return await self._call(ClientSession.digest, prefix)

    async def version(self) -> str:
        return await self._call(ClientSession.version)

    async def save(self) -> bool:
        return await self._call(ClientSession.save)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop idle connections so the next operation re-dials.

        The cluster tier calls this when it marks a node down: sockets
        to the dead process would otherwise linger in the pool and fail
        one by one on reuse after the node is bounced.  Connections
        currently checked out are untouched — their own error paths
        already discard them as broken.
        """
        for conn in self._idle:
            conn.close()
            if conn in self._all:
                self._all.remove(conn)
        self._idle.clear()

    async def close(self) -> None:
        self._closed = True
        conns, self._all = self._all, []
        self._idle.clear()
        for conn in conns:
            conn.quit()
            conn.close()
        for conn in conns:
            await conn.closed()

    async def __aenter__(self) -> "AsyncSocketClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
