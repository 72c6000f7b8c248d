"""AsyncTwemcacheServer + AsyncSocketClient: transport behaviour.

Protocol *semantics* are covered by the parity suite
(``test_serving_parity.py``); these tests exercise what is new in the
asyncio transport — pipelining, pooling, graceful drain, framing-error
teardown, and the dual sync/async lifecycle.
"""

import asyncio
import gc
import socket
import struct
import time
import warnings

import pytest

from repro.faults import Fault, FaultPlan
from repro.twemcache import (
    AsyncSocketClient,
    AsyncTwemcacheServer,
    ServerSession,
    SocketClient,
    TwemcacheEngine,
)
from repro.twemcache.protocol import CRLF


def fresh_engine(**kw) -> TwemcacheEngine:
    kw.setdefault("eviction", "camp")
    kw.setdefault("slab_size", 1 << 16)
    return TwemcacheEngine(2 << 20, **kw)


def run(coro):
    return asyncio.run(coro)


class TestAsyncServerBasics:
    def test_round_trip_all_verbs(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address) as client:
                    assert await client.set("k", b"value", flags=3, cost=7)
                    got = await client.get("k")
                    assert got.value == b"value" and got.flags == 3
                    assert await client.get("nope") is None
                    assert await client.delete("k")
                    assert not await client.delete("k")
                    assert await client.set("n", b"10")
                    stats = await client.stats()
                    assert stats["items"] == 1
                    assert (await client.version()).startswith("VERSION")
            return engine

        engine = run(main())
        assert engine.hits >= 1

    def test_pipelined_batches_round_trip(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address,
                                             pool_size=8) as client:
                    entries = [(f"k{i}", f"v{i}".encode()) for i in range(250)]
                    stored = await client.set_many(entries)
                    assert stored == [True] * 250
                    found = await client.get_many(
                        [f"k{i}" for i in range(250)])
                    assert len(found) == 250
                    assert found["k137"].value == b"v137"
                    packed = await client.get_many(
                        [f"k{i}" for i in range(250)], keys_per_command=16)
                    assert {k: v.value for k, v in packed.items()} == \
                        {k: v.value for k, v in found.items()}
            engine.check_consistency()

        run(main())

    def test_multi_key_get_single_command(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address) as client:
                    await client.set("a", b"1")
                    await client.set("b", b"2")
                    found = await client.get_map(["a", "missing", "b"])
                    assert {k: v.value for k, v in found.items()} == \
                        {"a": b"1", "b": b"2"}
                    last = await client.get("a", "b")
                    assert last.value == b"2"

        run(main())

    def test_sync_lifecycle_serves_sync_client(self):
        engine = fresh_engine()
        with AsyncTwemcacheServer(engine) as server:
            with SocketClient(server.address) as client:
                assert client.set("x", b"y", cost=4)
                assert client.get("x").value == b"y"
                assert client.stats()["items"] == 1
        # port released after stop: a fresh server can bind and serve
        with AsyncTwemcacheServer(fresh_engine()) as second:
            with SocketClient(second.address) as client:
                assert client.version().startswith("VERSION")

    def test_stop_is_idempotent_and_safe_without_connections(self):
        server = AsyncTwemcacheServer(fresh_engine()).start()
        server.stop()
        server.stop()


class TestGracefulDrain:
    def test_stop_drains_pipelined_batch_in_flight(self):
        """A client that already sent its commands gets every response
        even when stop() lands concurrently."""
        engine = fresh_engine()
        server = AsyncTwemcacheServer(engine).start()
        script = b"".join(
            f"set k{i} 0 0 2 1".encode() + CRLF + b"vv" + CRLF
            for i in range(200))
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(script)
            expected = b"STORED" + CRLF
            received = bytearray()
            while received.count(expected) < 200:
                chunk = sock.recv(65536)
                assert chunk, "server closed before answering the batch"
                received += chunk
            server.stop()                 # drain: connection was idle
            assert sock.recv(65536) == b""  # and is now closed
        assert bytes(received) == expected * 200
        assert len(engine) == 200

    def test_connections_close_after_stop(self):
        server = AsyncTwemcacheServer(fresh_engine()).start()
        address = server.address
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(b"version" + CRLF)
            assert sock.recv(100).startswith(b"VERSION")
            server.stop()
            assert sock.recv(100) == b""
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)


class TestFramingTeardown:
    """The async transport honours the sans-IO fatal-framing contract."""

    def test_bad_trailer_errors_then_closes(self):
        engine = fresh_engine()
        with AsyncTwemcacheServer(engine) as server:
            with socket.create_connection(server.address, timeout=10) as s:
                s.sendall(b"set k 0 0 5 1" + CRLF + b"abcdeXX"
                          + b"get a" + CRLF)
                received = bytearray()
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    received += chunk
        assert received.startswith(b"CLIENT_ERROR bad data chunk")
        # the bytes after the broken frame were never run as commands
        assert b"END" not in received
        assert "k" not in engine

    def test_short_body_waits_instead_of_desyncing(self):
        """A client that dies mid-data-block must not have its partial
        payload reinterpreted as commands."""
        engine = fresh_engine()
        with AsyncTwemcacheServer(engine) as server:
            with socket.create_connection(server.address, timeout=10) as s:
                # 100-byte body promised, only a command-shaped fragment
                # sent; then the client dies
                s.sendall(b"set k 0 0 100 1" + CRLF + b"flush_all" + CRLF)
                s.close()
            # give the server a beat to observe the close
            import time
            for _ in range(100):
                if server.active_connections == 0:
                    break
                time.sleep(0.01)
        assert "k" not in engine
        # the embedded flush_all was body bytes, not a command: nothing
        # was executed at all on this connection
        assert engine.stats()["misses"] == 0


class TestLargeBatches:
    def test_multi_get_larger_than_server_line_bound(self):
        """Regression: one unbounded 'get k1 k2 ...' line tripped the
        server's fatal MAX_LINE_BYTES check; clients now chunk."""
        long_keys = [f"user:profile:{i:06d}" for i in range(800)]

        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address,
                                             pool_size=4) as client:
                    await client.set_many(
                        [(key, b"v") for key in long_keys])
                    via_map = await client.get_map(long_keys)
                    assert len(via_map) == 800
                    via_many = await client.get_many(
                        long_keys, keys_per_command=500)
                    assert len(via_many) == 800

        run(main())
        # and the sync client
        engine = fresh_engine()
        with AsyncTwemcacheServer(engine) as server:
            with SocketClient(server.address) as client:
                for key in long_keys:
                    client.set(key, b"v")
                found = client.get_many(long_keys)
                assert len(found) == 800

    def test_connect_failure_does_not_leak_pool_permits(self):
        """Regression: a failed dial kept its semaphore permit, so a
        few refused connections wedged the pool forever."""
        async def main():
            # a port with nothing listening
            import socket as socket_module
            probe = socket_module.socket()
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()
            probe.close()
            client = AsyncSocketClient(dead_address, pool_size=2,
                                       timeout=2)
            for _ in range(5):
                with pytest.raises((OSError, asyncio.TimeoutError)):
                    await asyncio.wait_for(client.get("k"), timeout=5)
            await client.close()

        run(main())


class TestConnectionPool:
    def test_pool_reuses_connections(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address,
                                             pool_size=2) as client:
                    for i in range(20):
                        await client.set(f"k{i}", b"v")
                    await client.get_many([f"k{i}" for i in range(20)])
                return engine.stats(), server.connections_served

        _stats, served = run(main())
        assert served <= 2

    def test_concurrent_batches_on_cold_pool_do_not_deadlock(self):
        """Regression: two batches each grabbing part of a cold pool's
        permits used to wait forever for each other's remainder."""
        async def main():
            engine = fresh_engine()
            for i in range(16):
                engine.set(f"k{i}", b"v")
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address,
                                             pool_size=2) as client:
                    keys = [f"k{i}" for i in range(16)]
                    first, second = await asyncio.wait_for(
                        asyncio.gather(client.get_many(keys),
                                       client.get_many(keys)),
                        timeout=10)
                    assert len(first) == 16 and len(second) == 16

        run(main())

    def test_pool_size_bounds_concurrency(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address,
                                             pool_size=3) as client:
                    await asyncio.gather(*[
                        client.set(f"k{i}", b"v") for i in range(30)])
                    found = await client.get_many(
                        [f"k{i}" for i in range(30)])
                    assert len(found) == 30
                return server.connections_served

        assert run(main()) <= 3


class TestPoolFailurePaths:
    """The failure modes the cluster tier leans on: a dead node must
    surface as a prompt error on every call, never a wedged pool."""

    def test_dial_failure_mid_batch_returns_pool_permits(self):
        """``get_many`` fans a batch out over several pooled
        connections; when the node dies between batches, the retry
        dials fail mid-checkout and every permit (including the ones
        already checked out) must come back."""
        from repro.errors import ProtocolError

        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                client = AsyncSocketClient(server.address, pool_size=4,
                                           timeout=2)
                assert await client.set("k0", b"v")   # one idle conn pooled
            # server gone: the pooled socket is stale and fresh dials fail
            keys = [f"k{i}" for i in range(32)]
            for _ in range(5):
                with pytest.raises((OSError, ProtocolError,
                                    asyncio.TimeoutError)):
                    await asyncio.wait_for(client.get_many(keys), timeout=5)
            await client.close()

        run(main())

    def test_node_death_mid_pipeline_raises_cleanly(self):
        """A node that dies after emitting half a response must raise
        ``ProtocolError`` from ``get_many`` — not hang the reader or
        leave the pool wedged for later calls."""
        from repro.errors import ProtocolError

        async def main():
            async def half_a_value(reader, writer):
                await reader.readline()
                writer.write(b"VALUE k0 0 64 0" + CRLF + b"only-a-prefix")
                await writer.drain()
                writer.close()   # die mid-body

            stub = await asyncio.start_server(half_a_value, "127.0.0.1", 0)
            address = stub.sockets[0].getsockname()[:2]
            try:
                client = AsyncSocketClient(address, pool_size=2, timeout=2)
                keys = [f"k{i}" for i in range(16)]
                for _ in range(3):   # pool stays usable after each failure
                    with pytest.raises(ProtocolError):
                        await asyncio.wait_for(client.get_many(keys),
                                               timeout=5)
                await client.close()
            finally:
                stub.close()
                await stub.wait_closed()

        run(main())


class TestLazyDeadline:
    """Each connection keeps one deadline timer, armed only when none
    is pending and re-armed for the current exchange when it fires."""

    def test_timer_from_an_earlier_exchange_rearms_for_a_later_one(self):
        """The first call arms a timer due at t=0.3; the second call,
        sent at t=0.2 and answered at t=0.45, is still inside its own
        deadline (t=0.5), so that timer must re-arm, not expire it."""
        async def main():
            engine = fresh_engine()
            engine.set("k", b"v", cost=1)
            plan = FaultPlan([Fault(kind="latency", seam="write", at=1,
                                    delay=0.25)])
            async with AsyncTwemcacheServer(engine,
                                            fault_plan=plan) as server:
                async with AsyncSocketClient(server.address, pool_size=1,
                                             timeout=0.3) as client:
                    started = time.perf_counter()
                    assert (await client.get("k")).value == b"v"
                    await asyncio.sleep(0.2 - (time.perf_counter()
                                               - started))
                    assert (await client.get("k")).value == b"v"
                    elapsed = time.perf_counter() - started
                    assert elapsed > 0.3       # outlived the first timer
                return server.connections_served

        assert run(main()) == 1

    def test_connection_idle_past_the_timeout_is_reused(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address, pool_size=1,
                                             timeout=0.1) as client:
                    assert await client.set("k", b"v")
                    await asyncio.sleep(0.3)   # its timer fires idle
                    assert (await client.get("k")).value == b"v"
                    assert await client.delete("k")
                return server.connections_served

        assert run(main()) == 1

    def test_sequential_calls_arm_at_most_one_timer_per_connection(self):
        async def main():
            engine = fresh_engine()
            engine.set("k", b"v", cost=1)
            loop = asyncio.get_running_loop()
            armed = []
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                armed.append(callback)
                return call_at(when, callback, *args, **kwargs)

            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address,
                                             pool_size=2) as client:
                    loop.call_at = counting_call_at
                    try:
                        for _ in range(5000):
                            assert (await client.get("k")).value == b"v"
                    finally:
                        del loop.call_at
            return len(armed)

        assert 1 <= run(main()) <= 2

    def test_reset_wakes_the_exchange_before_its_deadline(self):
        """A peer reset fails the waiting exchange at once, not when
        its deadline timer fires."""
        from repro.errors import ProtocolError

        async def main():
            async def reset_after_request(reader, writer):
                await reader.readline()
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
                writer.transport.abort()

            stub = await asyncio.start_server(reset_after_request,
                                              "127.0.0.1", 0)
            address = stub.sockets[0].getsockname()[:2]
            try:
                async with AsyncSocketClient(address, pool_size=1,
                                             timeout=5) as client:
                    started = time.perf_counter()
                    with pytest.raises((ConnectionError, ProtocolError)):
                        await client.get("k")
                    assert time.perf_counter() - started < 2
                    assert client._available._value == 1
                    assert client._idle == []
            finally:
                stub.close()
                await stub.wait_closed()

        run(main())

    def test_close_leaves_no_connection_and_no_resource_warning(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                client = AsyncSocketClient(server.address, pool_size=3)
                await asyncio.gather(*[
                    client.set(f"k{i}", b"v") for i in range(12)])
                assert server.active_connections == 3
                await client.close()
                for _ in range(200):
                    if server.active_connections == 0:
                        break
                    await asyncio.sleep(0.01)
                return server.active_connections

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(main()) == 0
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestServerSessionUnit:
    def test_broken_session_stops_producing(self):
        engine = fresh_engine()
        session = ServerSession(engine)
        out, close = session.receive(
            b"set k 0 0 3 1" + CRLF + b"abXY" + b"version" + CRLF)
        assert close
        assert session.broken
        assert out.startswith(b"CLIENT_ERROR bad data chunk")
        # feeding more bytes after the fatal error yields nothing
        out, close = session.receive(b"version" + CRLF)
        assert out == b""

    def test_oversized_command_line_is_fatal(self):
        session = ServerSession(fresh_engine())
        out, close = session.receive(b"get " + b"k" * 10000)
        assert close and session.broken
        assert out.startswith(b"CLIENT_ERROR command line too long")

    def test_oversized_line_fatal_even_when_crlf_arrives_together(self):
        """The line bound must not depend on recv chunk boundaries: the
        same oversized get is rejected whether or not its CRLF came in
        the same chunk."""
        session = ServerSession(fresh_engine())
        out, close = session.receive(
            b"get " + b"k " * 6000 + b"\r\n" + b"version\r\n")
        assert close and session.broken
        assert out.startswith(b"CLIENT_ERROR command line too long")
        assert b"VERSION" not in out

    def test_malformed_storage_header_is_fatal_not_desync(self):
        """A storage command whose header fails to parse still promised
        a data block; its payload bytes must never run as commands."""
        engine = fresh_engine()
        engine.set("victim", b"v")
        session = ServerSession(engine)
        # bad flags token; the 11-byte body spells a flush_all command
        out, close = session.receive(
            b"set k x 0 11 1\r\nflush_all\r\n" + b"get victim\r\n")
        assert close and session.broken
        assert out.startswith(b"CLIENT_ERROR")
        assert b"OK" not in out          # flush_all never executed
        assert "victim" in engine

    def test_async_engine_adapter_coalesces(self):
        async def main():
            adapter = fresh_engine().async_adapter()
            calls = []

            async def loader(key):
                calls.append(key)
                await asyncio.sleep(0.01)
                return b"payload"

            items = await asyncio.gather(*[
                adapter.get_or_compute("hot", loader) for _ in range(40)])
            assert len(calls) == 1
            assert all(item.value == b"payload" for item in items)
            assert adapter.loads == 1 and adapter.coalesced_loads == 39
            # once resident it is a plain hit, no flights
            again = await adapter.get_or_compute("hot", loader)
            assert again.value == b"payload" and len(calls) == 1
            assert adapter.inflight == 0

        run(main())

    def test_async_engine_adapter_counts_misses_once(self):
        """Regression: the adapter's resident probe used engine.get, so
        every logical miss was counted twice vs the sync surface."""
        async def main():
            engine = fresh_engine()
            adapter = engine.async_adapter()

            async def loader(key):
                return b"v"

            await adapter.get_or_compute("cold", loader)
            assert engine.misses == 1     # exactly like sync get_or_compute
            assert engine.hits == 0
            await adapter.get_or_compute("cold", loader)
            assert engine.misses == 1
            assert engine.hits == 1

        run(main())

    def test_async_engine_adapter_counts_expired_miss_once(self):
        """The TTL-lapsed edge must count one miss too, like sync."""
        from repro.twemcache import VirtualClock

        async def main():
            clock = VirtualClock()
            engine = fresh_engine(clock=clock)
            adapter = engine.async_adapter()

            async def loader(key):
                return b"fresh"

            await adapter.get_or_compute("k", loader, expire_after=5)
            assert engine.misses == 1
            clock.advance(10)
            item = await adapter.get_or_compute("k", loader)
            assert item.value == b"fresh"
            assert engine.misses == 2     # the expiry miss, once
            assert engine.hits == 0

        run(main())
