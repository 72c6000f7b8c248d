"""``AsyncTwemcacheServer`` — the asyncio transport over the sans-IO core.

One event loop serves every connection through a callback
:class:`asyncio.Protocol` (no per-read task or stream machinery): each
``data_received`` chunk is fed to the connection's
:class:`~repro.twemcache.protocol.ServerSession` and *all* commands it
completed are answered with a single batched ``transport.write``.  A
pipelined client therefore costs one wakeup and one write per chunk of
commands, and no connection holds a thread.

Lifecycle is dual-mode:

* sync — ``start()`` spins up a daemon thread running a private event
  loop, so the server drops into blocking tests, examples and the CLI
  (``start``/``stop``/``address``, context manager too).
* async — ``await serve()`` / ``await aclose()`` from a running loop.

``stop()``/``aclose()`` drain gracefully: the listener closes first, and
because command execution is synchronous inside ``data_received``, every
command already received has been answered by the time the drain closes
the transports — which flush buffered responses before closing.  Only
half-received frames are dropped, exactly as a connection loss would.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.faults.transport import FaultyTransport
from repro.twemcache.protocol import ServerSession

__all__ = ["AsyncTwemcacheServer"]


class _Connection(asyncio.Protocol):
    """One client socket: bytes → ServerSession → batched response."""

    __slots__ = ("_server", "_session", "_transport", "_raw_transport")

    def __init__(self, server: "AsyncTwemcacheServer") -> None:
        self._server = server
        self._session: Optional[ServerSession] = None
        self._transport: Optional[asyncio.Transport] = None
        self._raw_transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self._raw_transport = transport
        plan = self._server._fault_plan
        if plan is not None:
            # responses route through the write-seam faults (latency,
            # drop, reset); the raw transport still registers below so
            # drain/close bookkeeping is untouched
            self._transport = FaultyTransport(
                transport, plan, self._server._fault_target)
        else:
            self._transport = transport
        self._session = ServerSession(self._server.engine)
        self._server._transports.add(transport)
        self._server.connections_served += 1

    def data_received(self, data: bytes) -> None:
        assert self._session is not None and self._transport is not None
        out, close = self._session.receive(data)
        if out:
            self._transport.write(out)
        if close:
            self._transport.close()

    def connection_lost(self, exc) -> None:
        if self._raw_transport is not None:
            self._server._transports.discard(self._raw_transport)


class AsyncTwemcacheServer:
    """Pipelined asyncio server over any engine duck type."""

    def __init__(self, engine, host: str = "127.0.0.1",
                 port: int = 0, fault_plan=None,
                 fault_target: str = "server") -> None:
        """``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`)
        wraps every accepted connection's transport so response writes
        can be delayed, dropped, or turned into resets — tests and
        chaos drills only; None (the default) serves unwrapped."""
        self._engine = engine
        self._host = host
        self._port = port
        self._fault_plan = fault_plan
        self._fault_target = fault_target
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._finished: Optional[asyncio.Event] = None
        self._transports: Set[asyncio.Transport] = set()
        self._address: Optional[Tuple[str, int]] = None
        self.connections_served = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self._engine

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise ConfigurationError("server is not running")
        return self._address

    @property
    def active_connections(self) -> int:
        return len(self._transports)

    # ------------------------------------------------------------------
    # async lifecycle
    # ------------------------------------------------------------------
    async def serve(self) -> "AsyncTwemcacheServer":
        """Bind and start accepting on the current event loop."""
        if self._server is not None:
            raise ConfigurationError("server already running")
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self._host, self._port)
        self._address = self._server.sockets[0].getsockname()[:2]
        return self

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight connections, release the port."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        # every received chunk was answered synchronously in its
        # data_received; closing flushes each transport's write buffer
        for transport in list(self._transports):
            transport.close()
        deadline = 500                       # ~5s of 10ms waits
        while self._transports and deadline:
            await asyncio.sleep(0.01)
            deadline -= 1
        self._server = None
        self._address = None

    async def __aenter__(self) -> "AsyncTwemcacheServer":
        return await self.serve()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # sync lifecycle (background event-loop thread)
    # ------------------------------------------------------------------
    def start(self) -> "AsyncTwemcacheServer":
        """Serve on a private event loop in a daemon thread."""
        if self._thread is not None:
            raise ConfigurationError("server already running")
        started = threading.Event()
        failure: list = []

        async def _main() -> None:
            try:
                await self.serve()
            except Exception as exc:       # bind failure: surface in start()
                failure.append(exc)
                started.set()
                return
            finished = asyncio.Event()
            self._finished = finished
            started.set()
            await finished.wait()
            await self.aclose()

        def _run() -> None:
            asyncio.run(_main())

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="async-twemcache-server")
        self._thread.start()
        started.wait(timeout=10)
        if failure:
            self._thread.join(timeout=5)
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> None:
        """Drain and stop the background loop; join its thread."""
        if self._thread is None:
            return
        loop, finished = self._loop, self._finished
        if loop is not None and finished is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(finished.set)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None
        self._finished = None

    def __enter__(self) -> "AsyncTwemcacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
