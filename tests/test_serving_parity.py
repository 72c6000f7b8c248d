"""Serving parity over the shared sans-IO protocol core.

The asyncio server is a thin transport over one
:class:`~repro.twemcache.protocol.ServerSession`, and every client over
one :class:`~repro.twemcache.protocol.ClientSession`, so for any command
script the served response stream must be byte-identical to the
in-process one, with identical engine state evolution (same eviction
decisions, same counters).  The property tests here generate scripts
with hypothesis and drive them through:

* two in-process server sessions under different chunk splits (the
  sans-IO machine must not care where ``recv`` boundaries fall);
* an in-process :class:`ServerSession` and the real
  :class:`AsyncTwemcacheServer` over TCP;
* two client sessions fed one reply stream under different chunk
  splits (the same replies must come out).
"""

import random
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.twemcache import (
    AsyncTwemcacheServer,
    ClientSession,
    ServerSession,
    TwemcacheEngine,
    Value,
)
from repro.twemcache.protocol import CRLF

KEYS = [f"k{i}" for i in range(40)]

#: engine small enough that generated scripts cause real evictions
ENGINE_KW = dict(memory_bytes=1 << 16, eviction="camp", slab_size=1 << 13,
                 seed=7)


def fresh_engine() -> TwemcacheEngine:
    return TwemcacheEngine(**ENGINE_KW)


# ----------------------------------------------------------------------
# script generation
# ----------------------------------------------------------------------
def _render(op) -> bytes:
    kind = op[0]
    if kind in ("set", "add", "replace"):
        _, key, value, flags, cost = op
        header = f"{kind} {key} {flags} 0 {len(value)} {cost}"
        return header.encode() + CRLF + value + CRLF
    if kind == "get":
        return ("get " + " ".join(op[1])).encode() + CRLF
    if kind == "delete":
        return f"delete {op[1]}".encode() + CRLF
    if kind in ("incr", "decr"):
        return f"{op[0]} {op[1]} {op[2]}".encode() + CRLF
    if kind == "touch":
        return f"touch {op[1]} 0".encode() + CRLF
    if kind == "flush_all":
        return b"flush_all" + CRLF
    if kind == "stats":
        return b"stats" + CRLF
    if kind == "bad":
        return op[1]
    raise AssertionError(kind)


keys = st.sampled_from(KEYS)
values = st.binary(min_size=0, max_size=200)

operations = st.one_of(
    st.tuples(st.sampled_from(["set", "add", "replace"]), keys, values,
              st.integers(0, 7), st.integers(0, 50)),
    st.tuples(st.just("get"), st.lists(keys, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.sampled_from(["incr", "decr"]), keys, st.integers(0, 9)),
    st.tuples(st.just("touch"), keys),
    st.tuples(st.just("bad"),
              st.sampled_from([b"bogus x" + CRLF, b"delete" + CRLF,
                               b"get" + CRLF, b"stats now" + CRLF])),
)

scripts = st.lists(operations, min_size=1, max_size=40).map(
    lambda ops: b"".join(_render(op) for op in ops))


def _split(data: bytes, rng: random.Random):
    pieces = []
    position = 0
    while position < len(data):
        step = rng.randint(1, 13)
        pieces.append(data[position:position + step])
        position += step
    return pieces


# ----------------------------------------------------------------------
# sans-IO chunking invariance
# ----------------------------------------------------------------------
@given(script=scripts, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_session_output_is_chunking_invariant(script, seed):
    """Arbitrary recv boundaries — mid-line, mid-payload — must not
    change a single response byte or any engine decision."""
    def run(chunks):
        engine = fresh_engine()
        session = ServerSession(engine)
        out = bytearray()
        for chunk in chunks:
            data, close = session.receive(chunk)
            out += data
            assert not close     # scripts contain no framing errors
        return bytes(out), engine

    whole, engine_a = run([script])
    split, engine_b = run(_split(script, random.Random(seed)))

    assert whole == split
    assert engine_a.stats() == engine_b.stats()
    assert sorted(engine_a._items) == sorted(engine_b._items)


# ----------------------------------------------------------------------
# in-process session vs the asyncio server over real sockets
# ----------------------------------------------------------------------
def _in_process(script: bytes):
    engine = fresh_engine()
    response, close = ServerSession(engine).receive(script + b"quit" + CRLF)
    assert close
    return response, engine.stats(), sorted(engine._items)


def _served(script: bytes):
    """Send the whole pipelined script plus quit over TCP; read the
    response stream to EOF."""
    engine = fresh_engine()
    with AsyncTwemcacheServer(engine) as server:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(script + b"quit" + CRLF)
            received = bytearray()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
    return bytes(received), engine.stats(), sorted(engine._items)


@given(script=scripts)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_session_and_async_server_are_byte_identical(script):
    local = _in_process(script)
    served = _served(script)
    assert local[0] == served[0]          # byte-identical responses
    assert local[1] == served[1]          # identical counters/evictions
    assert local[2] == served[2]          # identical residency


def test_parity_includes_stats_and_admin_verbs():
    """A directed script touching every verb family, including stats
    (deterministic counters) after identical histories."""
    script = b"".join([
        b"set a 1 0 3 5" + CRLF + b"abc" + CRLF,
        b"set b 0 0 2 9" + CRLF + b"xy" + CRLF,
        b"get a b" + CRLF,
        b"incr c 1" + CRLF,
        b"set c 0 0 1 1" + CRLF + b"7" + CRLF,
        b"incr c 3" + CRLF,
        b"decr c 100" + CRLF,
        b"touch a 0" + CRLF,
        b"delete b" + CRLF,
        b"get a b c" + CRLF,
        b"version" + CRLF,
        b"stats" + CRLF,
        b"flush_all" + CRLF,
        b"stats" + CRLF,
    ])
    local = _in_process(script)
    assert local == _served(script)
    assert b"VERSION repro-camp/1.0" in local[0]
    assert b"STAT items" in local[0]


# ----------------------------------------------------------------------
# the client session
# ----------------------------------------------------------------------
client_operations = st.one_of(
    st.tuples(st.just("get"), st.lists(keys, min_size=1, max_size=4),
              st.booleans()),
    st.tuples(st.just("set"), keys, values, st.integers(0, 7),
              st.integers(0, 50)),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.sampled_from(["stats", "digest", "version", "save"])),
)


def _request(session: ClientSession, op) -> bytes:
    kind = op[0]
    if kind == "get":
        return session.get(op[1], with_cost=op[2])
    if kind == "set":
        return session.set(op[1], op[2], flags=op[3], cost=op[4])
    if kind == "delete":
        return session.delete(op[1])
    return getattr(session, kind)()


def _plain(reply):
    """Replies with ``Value``s made comparable."""
    if isinstance(reply, dict):
        return {key: (item.value, item.flags, item.cost)
                if isinstance(item, Value) else item
                for key, item in reply.items()}
    return reply


@given(ops=st.lists(client_operations, min_size=1, max_size=30),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_client_session_replies_are_chunking_invariant(ops, seed):
    """A reply stream fed whole or in arbitrary pieces — mid-line,
    mid-value — must parse to the same replies, one per request."""
    script = b"".join(_request(ClientSession(), op) for op in ops)
    stream, _ = ServerSession(fresh_engine()).receive(script)

    def parse(chunks):
        session = ClientSession()
        for op in ops:
            _request(session, op)
        replies = []
        for chunk in chunks:
            session.receive(chunk)
            reply = session.next_reply()
            while reply is not None:
                replies.append(_plain(reply))
                reply = session.next_reply()
        assert session.pending == 0
        return replies

    whole = parse([stream])
    assert len(whole) == len(ops)
    assert parse(_split(stream, random.Random(seed))) == whole


class TestClientSessionErrors:
    def test_peer_closing_mid_reply_raises_then_refuses(self):
        session = ClientSession()
        session.get(["k"])
        session.receive(b"VALUE k 0 5" + CRLF + b"ab")
        assert session.next_reply() is None           # waits for the rest
        session.receive(b"")
        with pytest.raises(ProtocolError, match="closed"):
            session.next_reply()
        with pytest.raises(ProtocolError, match="connection closed"):
            session.get(["k"])

    @pytest.mark.parametrize("reply", [
        b"BANANAS", b"CLIENT_ERROR bad command line format",
        b"VALUE k 0" + CRLF + b"END", b"STAT items x"])
    def test_a_reply_the_request_cannot_produce_raises(self, reply):
        session = ClientSession()
        if reply.startswith(b"STAT"):
            session.stats()
        else:
            session.get(["k"])
        session.receive(reply + CRLF)
        with pytest.raises(ProtocolError):
            session.next_reply()
        with pytest.raises(ProtocolError, match="connection closed"):
            session.next_reply()

    def test_quit_lets_pending_replies_through(self):
        session = ClientSession()
        session.set("k", b"v")
        assert session.quit() == b"quit" + CRLF
        session.receive(b"STORED" + CRLF)
        assert session.next_reply() is True
        with pytest.raises(ProtocolError, match="quit"):
            session.delete("k")
