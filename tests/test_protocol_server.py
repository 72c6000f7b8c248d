"""Protocol parsing, TCP server/client integration, IQ session tests."""

import socket
import threading

import pytest

from repro.errors import ProtocolError
from repro.twemcache import (
    AsyncTwemcacheServer,
    InProcessClient,
    IqSession,
    LoopbackClient,
    SocketClient,
    TwemcacheEngine,
    VirtualClock,
    parse_command_line,
    replay_trace,
)
from repro.workloads import three_cost_trace


class TestProtocolParsing:
    def test_get_single(self):
        req = parse_command_line(b"get foo")
        assert req.command == "get"
        assert req.keys == ["foo"]

    def test_get_multi(self):
        req = parse_command_line(b"get a b c")
        assert req.keys == ["a", "b", "c"]

    def test_set_with_cost(self):
        req = parse_command_line(b"set k 1 0 5 10000")
        assert (req.command, req.key, req.flags, req.nbytes, req.cost) == \
            ("set", "k", 1, 5, 10_000)

    def test_set_without_cost(self):
        req = parse_command_line(b"set k 0 0 5")
        assert req.cost == 0

    def test_set_float_cost(self):
        req = parse_command_line(b"set k 0 0 5 2.75")
        assert req.cost == 2.75

    def test_delete(self):
        req = parse_command_line(b"delete foo")
        assert req.command == "delete"

    def test_bare_commands(self):
        for command in (b"stats", b"version", b"quit"):
            assert parse_command_line(command).command == command.decode()

    @pytest.mark.parametrize("line", [
        b"", b"get", b"set k 0 0", b"set k 0 0 xx", b"set k 0 0 -3",
        b"set k 0 0 5 -1", b"delete", b"delete a b", b"unknown x",
        b"stats now", b"\xff\xfe",
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            parse_command_line(line)


@pytest.fixture()
def server():
    engine = TwemcacheEngine(2 << 20, eviction="camp", slab_size=1 << 16)
    srv = AsyncTwemcacheServer(engine).start()
    yield srv
    srv.stop()


@pytest.fixture(params=["loopback", "socket"])
def any_client(request, server):
    if request.param == "loopback":
        yield LoopbackClient(server.engine)
    else:
        with SocketClient(server.address) as client:
            yield client


class TestClientErrors:
    """Every client parses replies through one ``ClientSession``, so a
    rejected request and a closed session surface alike.  The loopback
    client used to return False for the rejected set, then raise
    ``ValueError`` on the next get and return ``{}`` from stats."""

    def test_rejected_set_raises_and_the_session_stays_closed(
            self, any_client):
        assert any_client.set("k", b"v", cost=3)
        with pytest.raises(ProtocolError, match="CLIENT_ERROR"):
            any_client.set("a b", b"v")
        with pytest.raises(ProtocolError, match="connection closed"):
            any_client.get("k")
        with pytest.raises(ProtocolError, match="connection closed"):
            any_client.stats()


class TestServerIntegration:
    def test_set_get_delete_round_trip(self, server):
        with SocketClient(server.address) as client:
            assert client.set("hello", b"world", flags=7, cost=42)
            value = client.get("hello")
            assert value.value == b"world"
            assert value.flags == 7
            assert client.get("missing") is None
            assert client.delete("hello")
            assert not client.delete("hello")

    def test_binary_safe_values(self, server):
        with SocketClient(server.address) as client:
            payload = bytes(range(256)) * 4
            client.set("bin", payload)
            assert client.get("bin").value == payload

    def test_value_with_crlf_inside(self, server):
        with SocketClient(server.address) as client:
            payload = b"line1\r\nline2\r\nEND\r\n"
            client.set("tricky", payload)
            assert client.get("tricky").value == payload

    def test_stats_and_version(self, server):
        with SocketClient(server.address) as client:
            client.set("a", b"1")
            stats = client.stats()
            assert stats["items"] == 1
            assert client.version().startswith("VERSION")

    def test_concurrent_clients(self, server):
        errors = []

        def worker(worker_id):
            try:
                with SocketClient(server.address) as client:
                    for i in range(50):
                        key = f"w{worker_id}-{i}"
                        assert client.set(key, f"v{i}".encode(), cost=i)
                        got = client.get(key)
                        assert got is None or got.value == f"v{i}".encode()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        server.engine.check_consistency()

    def test_protocol_error_reported_not_fatal(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"bogus command\r\nset still 0 0 5\r\nalive\r\n")
            received = b""
            while received.count(b"\r\n") < 2:
                chunk = sock.recv(100)
                assert chunk, "server closed after a well-framed error"
                received += chunk
        error, stored = received.split(b"\r\n")[:2]
        assert error.startswith(b"CLIENT_ERROR")
        # the connection still works afterwards
        assert stored == b"STORED"

    def test_multi_key_get_and_get_many(self, server):
        """Regression: the sync client used to send only one key even
        though the protocol and server loop over every requested key."""
        with SocketClient(server.address) as client:
            client.set("a", b"1", flags=2)
            client.set("b", b"22")
            found = client.get_many(["a", "missing", "b"])
            assert {k: v.value for k, v in found.items()} == \
                {"a": b"1", "b": b"22"}
            assert found["a"].flags == 2
            assert client.get_many([]) == {}
            assert client.get_many(["missing"]) == {}
            # multi-key get(): one command, last requested hit wins
            assert client.get("a", "b").value == b"22"
            assert client.get("b", "missing").value == b"22"
            # the single-key shape is unchanged
            assert client.get("a").value == b"1"
            assert client.get("missing") is None


class TestFramingRobustness:
    """The server must close, not desync, on broken frames: a short
    body or a bad trailer must never leave payload bytes reinterpreted
    as commands."""

    def test_bad_trailer_replies_error_then_closes(self, server):
        import socket as socket_module
        with socket_module.create_connection(server.address,
                                             timeout=10) as sock:
            # 5 declared bytes but 7 sent: the trailer check fails and
            # the embedded "version" line must never execute
            sock.sendall(b"set k 0 0 5 1\r\nabcdeXX" + b"version\r\n")
            received = bytearray()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        assert received.startswith(b"CLIENT_ERROR bad data chunk")
        assert b"VERSION" not in received
        assert "k" not in server.engine

    def test_client_death_mid_body_executes_nothing(self, server):
        import socket as socket_module
        with socket_module.create_connection(server.address,
                                             timeout=10) as sock:
            # promise 1000 body bytes, send a command-shaped fragment,
            # die: the fragment is body bytes, not a flush_all
            server.engine.set("survivor", b"v")
            sock.sendall(b"set k 0 0 1000 1\r\nflush_all\r\n")
        # the server saw EOF mid-frame; poll briefly for it to notice
        import time
        for _ in range(100):
            if "survivor" in server.engine:
                break
            time.sleep(0.01)
        assert "survivor" in server.engine
        assert "k" not in server.engine

    def test_split_frames_across_sends_still_parse(self, server):
        """The inverse guarantee: slow (non-broken) clients whose frames
        arrive in pieces are served normally."""
        import socket as socket_module
        import time as time_module
        with socket_module.create_connection(server.address,
                                             timeout=10) as sock:
            for piece in (b"set half 0", b" 0 6 3\r\nabc",
                          b"def", b"\r\n"):
                sock.sendall(piece)
                time_module.sleep(0.01)
            reply = sock.recv(100)
        assert reply == b"STORED\r\n"
        assert server.engine.get("half").value == b"abcdef"


class TestIqSession:
    def test_measured_cost_is_miss_to_set_interval(self):
        clock = VirtualClock()
        engine = TwemcacheEngine(1 << 20, eviction="camp",
                                 slab_size=1 << 16, clock=clock)
        session = IqSession(InProcessClient(engine), clock=clock)
        assert session.iqget("k") is None          # miss stamped at t=0
        clock.advance(2.5)                         # "computation time"
        assert session.iqset("k", b"value")
        assert engine.get("k").cost == pytest.approx(2.5)

    def test_override_bypasses_measurement(self):
        clock = VirtualClock()
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16, clock=clock)
        session = IqSession(InProcessClient(engine), clock=clock)
        session.iqget("k")
        clock.advance(100)
        session.iqset("k", b"v", cost_override=7)
        assert engine.get("k").cost == 7

    def test_set_without_pending_miss_costs_zero(self):
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16)
        session = IqSession(InProcessClient(engine))
        session.iqset("k", b"v")
        assert engine.get("k").cost == 0

    def test_hit_clears_pending(self):
        clock = VirtualClock()
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16, clock=clock)
        session = IqSession(InProcessClient(engine), clock=clock)
        session.iqget("k")
        session.iqset("k", b"v")
        assert session.iqget("k") is not None
        assert session.pending_misses == 0


class TestReplay:
    def test_replay_in_process(self):
        engine = TwemcacheEngine(1 << 20, eviction="camp",
                                 slab_size=1 << 16)
        trace = three_cost_trace(n_keys=200, n_requests=2000,
                                 size_range=(100, 2000), seed=3)
        result = replay_trace(InProcessClient(engine), trace)
        assert result.metrics.requests == 2000
        assert 0 <= result.miss_rate <= 1
        assert result.run_seconds > 0
        engine.check_consistency()

    def test_replay_over_sockets(self, server):
        trace = three_cost_trace(n_keys=100, n_requests=600,
                                 size_range=(100, 1000), seed=4)
        with SocketClient(server.address) as client:
            result = replay_trace(client, trace)
        assert result.metrics.requests == 600
        assert result.failed_sets == 0

    def test_camp_beats_lru_cost_in_engine(self):
        """Figure 9a's claim at miniature scale."""
        trace = three_cost_trace(n_keys=800, n_requests=12_000,
                                 size_range=(100, 1200), seed=5)
        outcomes = {}
        for kind in ("lru", "camp"):
            engine = TwemcacheEngine(1 << 19, eviction=kind,
                                     slab_size=1 << 14, seed=1)
            outcomes[kind] = replay_trace(InProcessClient(engine), trace)
        assert outcomes["camp"].cost_miss_ratio < \
            outcomes["lru"].cost_miss_ratio
