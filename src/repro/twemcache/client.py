"""Clients for the Twemcache server: socket-based, loopback, in-process.

:class:`SocketClient` plays the role of the Whalin memcached client from
the paper's section 4 (real TCP, real serialization).
:class:`LoopbackClient` keeps the full protocol path — command
rendering, the server's sans-IO byte-stream state machine, response
parsing — but binds it directly to an engine with no sockets: the
deterministic stand-in for the paper's served-system measurements
(Figure 9 replays through it).  Both are transports over one
:class:`~repro.twemcache.protocol.ClientSession`, as is the asyncio
client.  :class:`InProcessClient` bypasses even the protocol for
micro-benchmarks that isolate the engine's replacement-decision
overhead.  All three expose the same ``get``/``set``/``delete`` surface
so :class:`~repro.twemcache.iq.IqSession` and the trace replayer work
over any of them.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional, Tuple, Union

from repro.twemcache.engine import TwemcacheEngine
from repro.twemcache.protocol import ClientSession, ServerSession, Value

__all__ = ["SocketClient", "LoopbackClient", "InProcessClient"]

Number = Union[int, float]

#: bytes asked of one ``recv``
RECV_BYTES = 65536


class SocketClient:
    """A blocking text-protocol client: one session over one socket."""

    def __init__(self, address: Tuple[str, int], timeout: float = 10.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._session = ClientSession()

    def _call(self, request: bytes):
        """Send one rendered request and block until its reply parsed."""
        session = self._session
        try:
            self._sock.sendall(request)
            reply = session.next_reply()
            while reply is None:
                session.receive(self._sock.recv(RECV_BYTES))
                reply = session.next_reply()
        except OSError:
            # a half-read reply would be taken for the next request's
            session.receive(b"")
            raise
        return reply

    def get(self, *keys: str) -> Optional[Value]:
        """Fetch one or more keys with a single multi-key get command.

        Returns the last requested key's value that hit (for the usual
        one-key call, simply that key's value), or None.  Use
        :meth:`get_many` when you want every hit.
        """
        found = self.get_many(keys)
        for key in reversed(keys):
            if key in found:
                return found[key]
        return None

    def get_many(self, keys) -> Dict[str, Value]:
        """Multi-key fetch; returns a dict of every key that hit
        (misses are simply absent, as in the memcached protocol).

        Key lists of any size are fine: commands are chunked to stay
        under the server's fatal line bound and pipelined — every
        chunk's ``get`` is sent before the first response is read, so
        the whole batch still costs ~one round trip."""
        return self._call(self._session.get(list(keys)))

    def set(self, key: str, value: bytes, flags: int = 0,
            expire_after: float = 0, cost: Number = 0) -> bool:
        return self._call(
            self._session.set(key, value, flags, expire_after, cost))

    def delete(self, key: str) -> bool:
        return self._call(self._session.delete(key))

    def stats(self) -> Dict[str, Number]:
        return self._call(self._session.stats())

    def version(self) -> str:
        return self._call(self._session.version())

    def save(self) -> bool:
        """Ask the server to snapshot to its configured path.

        False when the server refuses (no path configured / IO error).
        """
        return self._call(self._session.save())

    def close(self) -> None:
        try:
            self._sock.sendall(self._session.quit())
        except OSError:  # pragma: no cover - already closed
            pass
        self._sock.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LoopbackClient:
    """The protocol path without the kernel: every request is rendered
    to wire bytes, framed through the server's
    :class:`~repro.twemcache.protocol.ServerSession` state machine, and
    every response is parsed back — exactly what a served request pays,
    minus the socket hop.

    The paper's Figure 9 measures Twemcache *as served* (its run time
    includes the protocol work of a real deployment, which is why CAMP's
    replacement arithmetic registers as only a few percent there); this
    client reproduces that measurement deterministically.
    """

    def __init__(self, engine: TwemcacheEngine) -> None:
        self._server = ServerSession(engine)
        self._session = ClientSession()

    def _call(self, request: bytes):
        # the server answers each whole request at once; an empty
        # answer means it has closed, as a socket's empty read would
        data, close = self._server.receive(request)
        session = self._session
        session.receive(data)
        if close:
            session.receive(b"")
        return session.next_reply()

    def get(self, key: str) -> Optional[Value]:
        return self._call(self._session.get((key,))).get(key)

    def get_many(self, keys) -> Dict[str, Value]:
        return self._call(self._session.get(list(keys)))

    def set(self, key: str, value: bytes, flags: int = 0,
            expire_after: float = 0, cost: Number = 0) -> bool:
        return self._call(
            self._session.set(key, value, flags, expire_after, cost))

    def delete(self, key: str) -> bool:
        return self._call(self._session.delete(key))

    def stats(self) -> Dict[str, Number]:
        return self._call(self._session.stats())


class InProcessClient:
    """Direct engine access with the client interface (no network)."""

    def __init__(self, engine: TwemcacheEngine) -> None:
        self._engine = engine

    def get(self, key: str) -> Optional[Value]:
        item = self._engine.get(key)
        if item is None:
            return None
        return Value(item.value, item.flags)

    def get_many(self, keys) -> Dict[str, Value]:
        found: Dict[str, Value] = {}
        for key in keys:
            item = self._engine.get(key)
            if item is not None:
                found[key] = Value(item.value, item.flags)
        return found

    def set(self, key: str, value: bytes, flags: int = 0,
            expire_after: float = 0, cost: Number = 0) -> bool:
        return self._engine.set(key, value, flags=flags,
                                expire_after=expire_after, cost=cost)

    def delete(self, key: str) -> bool:
        return self._engine.delete(key)

    def stats(self) -> Dict[str, Number]:
        return dict(self._engine.stats())
