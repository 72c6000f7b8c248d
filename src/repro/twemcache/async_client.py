"""``AsyncSocketClient`` — pooled, pipelining asyncio protocol client.

The sync :class:`~repro.twemcache.client.SocketClient` is strictly
request/response: every call pays a full network round trip.  This
client keeps a pool of connections and *pipelines*: ``get_many`` /
``set_many`` write a whole batch of commands per connection in one
``send`` and only then read the replies, so N requests cost ~one round
trip per pool connection instead of N.  Each connection is a transport
over its own :class:`~repro.twemcache.protocol.ClientSession`, which
renders the requests and parses the replies.

Single-key ``get``/``set``/``delete`` work too (acquire a pooled
connection, one round trip), so the client is a drop-in async
counterpart for the sync surface, plus ``stats``/``version``/``save``.
A single-key call and a whole batch each run under the one ``timeout``:
a batch's per-connection exchanges run concurrently, so it waits no
longer than one request.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError
from repro.faults.transport import apply_connect_faults, apply_read_faults
from repro.twemcache.client import RECV_BYTES
from repro.twemcache.protocol import ClientSession, Value

__all__ = ["AsyncSocketClient"]

Number = Union[int, float]

#: stream buffer before the socket is paused: a large batch reply
#: arrives without flow-control round trips
_STREAM_LIMIT = 16 << 20


class _Connection:
    """One pooled stream pair and its protocol session."""

    __slots__ = ("reader", "writer", "session")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.session = ClientSession()

    def close(self) -> None:
        self.writer.close()


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
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=_STREAM_LIMIT),
            timeout=self._timeout)
        conn = _Connection(reader, writer)
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
    async def _exchange(self, conn: _Connection, request: bytes) -> list:
        """Write ``request`` on a checked-out connection and read every
        reply its session expects.  Callers bound it by the timeout and
        discard the connection on any raise."""
        conn.writer.write(request)
        await conn.writer.drain()
        session, reader, plan = conn.session, conn.reader, self._fault_plan
        replies = []
        while session.pending:
            if plan is not None:
                # one read-seam opportunity per expected reply, so a
                # plan's ``at`` does not depend on TCP segmentation
                await apply_read_faults(plan, self._fault_target)
            reply = session.next_reply()
            while reply is None:
                session.receive(await reader.read(RECV_BYTES))
                reply = session.next_reply()
            replies.append(reply)
        return replies

    async def _call(self, render, *args):
        """One request on one pooled connection: ``render(session,
        *args)`` gives its bytes; returns its reply."""
        conn = await self._acquire()
        try:
            # a timeout scope, not wait_for: the exchange runs in this
            # task, so the request is written now, not a loop turn later
            async with asyncio.timeout(self._timeout):
                replies = await self._exchange(
                    conn, render(conn.session, *args))
        except BaseException:
            # BaseException, not Exception: CancelledError (an outer
            # wait_for / deadline budget expiring mid-read) must also
            # discard the connection — its unread reply bytes would
            # poison the next caller — and hand the permit back, or the
            # pool wedges one permit at a time
            self._release(conn, broken=True)
            raise
        self._release(conn)
        return replies[0]

    async def _fan_out(self, items: list, render) -> List[list]:
        """Shard ``items`` over up to ``pool_size`` connections (shard i
        holds ``items[i::n]``), render each shard with ``render(session,
        shard)`` and run the exchanges concurrently — under one timeout,
        as a single exchange is; returns each connection's replies in
        shard order."""
        conns = await self._checked_out(len(items))
        width = len(conns)
        tasks: List[asyncio.Future] = []
        try:
            for i, conn in enumerate(conns):
                request = render(conn.session, items[i::width])
                tasks.append(asyncio.ensure_future(
                    self._exchange(conn, request)))
            async with asyncio.timeout(self._timeout):
                results = await asyncio.gather(*tasks)
        except BaseException:
            # BaseException so an outer cancellation also reaches the
            # cleanup below; quiesce sibling shards before tearing
            # their sockets down, or they raise into the void mid-read
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for conn in conns:
                self._release(conn, broken=True)
            raise
        for conn in conns:
            self._release(conn)
        return results

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
        for conn in self._all:
            try:
                conn.writer.write(conn.session.quit())
            except (ConnectionError, RuntimeError):
                pass
            conn.close()
        for conn in self._all:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._all.clear()
        self._idle.clear()

    async def __aenter__(self) -> "AsyncSocketClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
