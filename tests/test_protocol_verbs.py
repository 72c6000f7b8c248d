"""The extended memcached verb set: add/replace/incr/decr/touch/flush_all."""

import socket

import pytest

from repro.errors import ProtocolError
from repro.twemcache import (
    AsyncTwemcacheServer,
    SocketClient,
    TwemcacheEngine,
    VirtualClock,
    parse_command_line,
)


def engine(**kw):
    return TwemcacheEngine(1 << 20, slab_size=1 << 16, **kw)


class TestParsing:
    def test_add_and_replace_share_set_layout(self):
        for verb in ("add", "replace"):
            request = parse_command_line(f"{verb} k 1 0 5 100".encode())
            assert request.command == verb
            assert request.nbytes == 5
            assert request.cost == 100

    def test_incr_decr(self):
        request = parse_command_line(b"incr counter 5")
        assert (request.command, request.key, request.delta) == \
            ("incr", "counter", 5)
        request = parse_command_line(b"decr counter 2")
        assert request.command == "decr"

    def test_touch(self):
        request = parse_command_line(b"touch k 30")
        assert request.command == "touch"
        assert request.exptime == 30.0

    def test_flush_all(self):
        assert parse_command_line(b"flush_all").command == "flush_all"

    @pytest.mark.parametrize("line", [
        b"incr k", b"incr k -1", b"incr k abc", b"touch k",
        b"flush_all now", b"add k 0 0", b"replace k 0 0 xx",
    ])
    def test_malformed(self, line):
        with pytest.raises(ProtocolError):
            parse_command_line(line)


class TestEngineVerbs:
    def test_add_only_when_absent(self):
        eng = engine()
        assert eng.add("k", b"first")
        assert not eng.add("k", b"second")
        assert eng.get("k").value == b"first"

    def test_add_succeeds_over_expired(self):
        clock = VirtualClock()
        eng = engine(clock=clock)
        eng.set("k", b"old", expire_after=5)
        clock.advance(10)
        assert eng.add("k", b"new")
        assert eng.get("k").value == b"new"

    def test_replace_only_when_present(self):
        eng = engine()
        assert not eng.replace("k", b"nope")
        eng.set("k", b"old")
        assert eng.replace("k", b"new")
        assert eng.get("k").value == b"new"

    def test_incr_decr_roundtrip(self):
        eng = engine()
        eng.set("counter", b"10")
        assert eng.incr("counter", 5) == 15
        assert eng.decr("counter", 3) == 12
        assert eng.get("counter").value == b"12"

    def test_decr_clamps_at_zero(self):
        eng = engine()
        eng.set("counter", b"3")
        assert eng.decr("counter", 100) == 0

    def test_incr_missing_returns_none(self):
        assert engine().incr("ghost", 1) is None

    def test_incr_non_numeric_raises(self):
        eng = engine()
        eng.set("k", b"hello")
        with pytest.raises(ProtocolError):
            eng.incr("k", 1)

    def test_incr_preserves_cost_and_flags(self):
        eng = engine()
        eng.set("counter", b"1", flags=9, cost=10_000)
        eng.incr("counter", 1)
        item = eng.get("counter")
        assert item.flags == 9
        assert item.cost == 10_000

    def test_touch_extends_expiry(self):
        clock = VirtualClock()
        eng = engine(clock=clock)
        eng.set("k", b"v", expire_after=5)
        clock.advance(4)
        assert eng.touch("k", 100)
        clock.advance(50)
        assert eng.get("k") is not None

    def test_touch_missing(self):
        assert not engine().touch("ghost", 10)

    def test_flush_all(self):
        eng = engine()
        for i in range(10):
            eng.set(f"k{i}", b"v")
        eng.flush_all()
        assert len(eng) == 0
        eng.check_consistency()
        # storage is reusable afterwards
        assert eng.set("fresh", b"v")


@pytest.fixture()
def server():
    srv = AsyncTwemcacheServer(engine(eviction="camp")).start()
    yield srv
    srv.stop()


@pytest.fixture()
def wire(server):
    """Send one raw request, return its one-line reply (no CRLF) — for
    the verbs the clients do not speak."""
    sock = socket.create_connection(server.address, timeout=10)

    def ask(request: bytes) -> bytes:
        sock.sendall(request)
        reply = b""
        while not reply.endswith(b"\r\n"):
            chunk = sock.recv(100)
            assert chunk, "server closed the connection"
            reply += chunk
        return reply[:-2]

    yield ask
    sock.close()


class TestServerVerbs:
    def test_add_replace_over_wire(self, server, wire):
        assert wire(b"add k 0 0 3\r\nabc\r\n") == b"STORED"
        assert wire(b"add k 0 0 3\r\nxyz\r\n") == b"NOT_STORED"
        assert wire(b"replace k 0 0 3\r\nxyz\r\n") == b"STORED"
        with SocketClient(server.address) as client:
            assert client.get("k").value == b"xyz"

    def test_incr_over_wire(self, server, wire):
        with SocketClient(server.address) as client:
            client.set("n", b"41")
            assert wire(b"incr n 1\r\n") == b"42"
            assert wire(b"incr ghost 1\r\n") == b"NOT_FOUND"
            client.set("text", b"abc")
            assert wire(b"incr text 1\r\n").startswith(b"CLIENT_ERROR")

    def test_touch_and_flush_over_wire(self, server, wire):
        with SocketClient(server.address) as client:
            client.set("k", b"v")
            assert wire(b"touch k 60\r\n") == b"TOUCHED"
            assert wire(b"touch ghost 60\r\n") == b"NOT_FOUND"
            assert wire(b"flush_all\r\n") == b"OK"
            assert client.get("k") is None
