"""A memcached-style text protocol (the wire format of section 4's study).

Implemented subset (requests end with CRLF; values are raw bytes):

* ``get <key> [<key>...]``  → ``VALUE <key> <flags> <bytes>\\r\\n<data>\\r\\n``
  per hit, then ``END``
* ``gets <key> [<key>...]`` → like ``get`` but each VALUE line carries a
  fourth token, ``VALUE <key> <flags> <bytes> <cost>``.  Stock memcached
  puts the CAS id there; this reproduction returns the item's IQ
  *cost* instead, so a reader learns what a re-store elsewhere should
  piggyback — the cluster tier's replica reads and read-repair depend
  on it (re-replicating with cost 0 would corrupt CAMP priorities on
  the receiving node).
* ``set|add|replace <key> <flags> <exptime> <bytes> [<cost>]`` + data
  block → ``STORED`` | ``NOT_STORED``.  ``add`` stores only when absent,
  ``replace`` only when present.  The trailing *cost* token is this
  reproduction's IQ extension: the measured (or synthetic) recomputation
  cost piggybacked on the put, exactly as the paper describes ("the
  approach taken to provide recomputation time is ... piggybacked as a
  part of the KVS put").
* ``delete <key>`` → ``DELETED`` | ``NOT_FOUND``
* ``incr|decr <key> <delta>`` → new value | ``NOT_FOUND`` |
  ``CLIENT_ERROR`` for non-numeric values (decr clamps at 0, like
  memcached)
* ``touch <key> <exptime>`` → ``TOUCHED`` | ``NOT_FOUND``
* ``flush_all`` → ``OK``
* ``save`` → ``OK`` | ``SERVER_ERROR ...`` — this reproduction's admin
  verb (Redis's ``SAVE`` analogue): snapshot every live item to the
  engine's configured snapshot path.  The path is server-side
  configuration, never taken from the wire.
* ``digest [<prefix>]`` → ``DIGEST <key> <cost> <crc>`` lines then
  ``END`` — a key→(CAMP cost, crc32-of-value) summary of the live
  items (optionally only keys starting with *prefix*).  This is the
  anti-entropy verb: a cluster sweep fetches digests from every
  replica holder, diffs them pairwise, and re-replicates divergent
  pairs without transferring any values for the keys that agree.
* ``stats`` → ``STAT <name> <value>`` lines then ``END``
* ``version``, ``quit``

Beyond the wire grammar, this module holds the whole *serving contract*
as sans-IO pieces shared by every transport:

* :class:`ProtocolSession` — a byte-stream state machine: feed raw
  received bytes in, drain parsed :class:`Command` events out.  It owns
  the framing rules (data blocks of exactly ``nbytes`` + CRLF trailer,
  bounded command lines), so a short body simply waits for more bytes
  and a broken frame surfaces as a *fatal* event instead of the stream
  being re-interpreted mid-payload.
* :func:`execute_command` — one :class:`Command` against an engine duck
  type, returning the rendered :class:`Reply` bytes.
* :class:`ServerSession` — the two composed: ``receive(data)`` returns
  ``(response_bytes, close)``.  The asyncio server is a thin transport
  over this one object, and ``LoopbackClient`` drives it with no socket
  at all; ``tests/test_serving_parity.py`` property-tests that the two
  answer byte for byte alike.
* :class:`ClientSession` — the mirror image for clients: render requests
  to bytes, feed reply bytes in, pop parsed replies out.  Every client
  (blocking, loopback, pooled asyncio) is a transport over it, so none
  of them parses a reply line itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional, Tuple, Union

from repro.errors import ProtocolError, ReproError

__all__ = ["Request", "CRLF", "parse_command_line", "render_value",
           "render_stats", "render_digest", "parse_number",
           "chunk_get_keys", "Command", "Reply", "ProtocolSession",
           "ServerSession", "execute_command", "MAX_LINE_BYTES", "Value",
           "ClientSession"]

CRLF = b"\r\n"

#: longest accepted command line; longer without a CRLF is a framing
#: error (memcached similarly bounds its request lines)
MAX_LINE_BYTES = 8192

Number = Union[int, float]


@dataclass(slots=True)
class Request:
    """A parsed command line (the data block, if any, arrives separately)."""

    command: str
    keys: List[str] = field(default_factory=list)
    flags: int = 0
    exptime: float = 0.0
    nbytes: int = 0
    cost: Number = 0
    delta: int = 0

    @property
    def key(self) -> str:
        return self.keys[0]


#: commands that carry a data block and share set's argument layout
STORAGE_COMMANDS = ("set", "add", "replace")


def parse_number(token: str, what: str) -> Number:
    """Int if possible, else float; raises ProtocolError otherwise."""
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            raise ProtocolError(f"bad {what}: {token!r}") from None


def parse_command_line(line: bytes) -> Request:
    """Parse one CRLF-stripped command line into a :class:`Request`.

    The two commands that dominate every served workload — single-key
    ``get`` and well-formed ``set`` — take a short-circuit lane; any
    irregularity falls through to the general parser below, whose error
    reporting is the behavioural contract.
    """
    if line.startswith(b"get "):
        # decode-then-split exactly like the general parser, so keys
        # separated by non-space whitespace still parse as multi-gets
        try:
            tokens = line.decode("utf-8").split()
        except UnicodeDecodeError:
            tokens = []
        if len(tokens) == 2:
            return Request(command="get", keys=[tokens[1]])
    elif line.startswith(b"set "):
        try:
            parts_fast = line.decode("utf-8").split()
        except UnicodeDecodeError:
            parts_fast = []
        if len(parts_fast) in (5, 6):
            try:
                flags = int(parts_fast[2])
                exptime = float(parts_fast[3])
                nbytes = int(parts_fast[4])
                cost: Number = 0
                if len(parts_fast) == 6:
                    raw = parts_fast[5]
                    try:
                        cost = int(raw)
                    except ValueError:
                        cost = float(raw)
            except ValueError:
                pass
            else:
                if nbytes >= 0 and cost >= 0:
                    return Request(command="set", keys=[parts_fast[1]],
                                   flags=flags, exptime=exptime,
                                   nbytes=nbytes, cost=cost)
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("command line is not valid UTF-8") from None
    parts = text.split()
    if not parts:
        raise ProtocolError("empty command")
    command = parts[0].lower()
    if command in ("get", "gets"):
        if len(parts) < 2:
            raise ProtocolError("get requires at least one key")
        return Request(command=command, keys=parts[1:])
    if command in STORAGE_COMMANDS:
        if len(parts) not in (5, 6):
            raise ProtocolError(
                f"{command} requires: key flags exptime bytes [cost]")
        key = parts[1]
        flags = int(parse_number(parts[2], "flags"))
        exptime = float(parse_number(parts[3], "exptime"))
        nbytes = int(parse_number(parts[4], "bytes"))
        if nbytes < 0:
            raise ProtocolError("negative byte count")
        cost: Number = 0
        if len(parts) == 6:
            cost = parse_number(parts[5], "cost")
            if cost < 0:
                raise ProtocolError("negative cost")
        return Request(command=command, keys=[key], flags=flags,
                       exptime=exptime, nbytes=nbytes, cost=cost)
    if command == "delete":
        if len(parts) != 2:
            raise ProtocolError("delete requires exactly one key")
        return Request(command="delete", keys=[parts[1]])
    if command in ("incr", "decr"):
        if len(parts) != 3:
            raise ProtocolError(f"{command} requires: key delta")
        delta = parse_number(parts[2], "delta")
        if not isinstance(delta, int) or delta < 0:
            raise ProtocolError("delta must be a non-negative integer")
        return Request(command=command, keys=[parts[1]], delta=delta)
    if command == "touch":
        if len(parts) != 3:
            raise ProtocolError("touch requires: key exptime")
        exptime = float(parse_number(parts[2], "exptime"))
        return Request(command="touch", keys=[parts[1]], exptime=exptime)
    if command == "digest":
        if len(parts) > 2:
            raise ProtocolError("digest takes at most one prefix")
        return Request(command="digest", keys=parts[1:])
    if command in ("stats", "version", "quit", "flush_all", "save"):
        if len(parts) != 1:
            raise ProtocolError(f"{command} takes no arguments")
        return Request(command=command)
    raise ProtocolError(f"unknown command {parts[0]!r}")


def render_value(key: str, flags: int, value: bytes,
                 cost: Optional[Number] = None) -> bytes:
    """One VALUE block of a get response (``gets`` appends the cost)."""
    if cost is None:
        header = f"VALUE {key} {flags} {len(value)}".encode("utf-8")
    else:
        header = f"VALUE {key} {flags} {len(value)} {cost}".encode("utf-8")
    return header + CRLF + value + CRLF


def parse_value_header(line: bytes) -> Tuple[str, int, int, Number]:
    """Parse one ``VALUE <key> <flags> <bytes> [<cost>]`` reply line into
    ``(key, flags, nbytes, cost)`` — the client-side half of the grammar,
    used by :class:`ClientSession`.  Plain ``get`` replies carry no cost
    token; it reads as 0."""
    parts = line.decode().split()
    if len(parts) not in (4, 5) or parts[0] != "VALUE":
        raise ProtocolError(f"malformed VALUE line: {line!r}")
    try:
        cost: Number = parse_number(parts[4], "cost") if len(parts) == 5 \
            else 0
        return parts[1], int(parts[2]), int(parts[3]), cost
    except (ValueError, ProtocolError):
        raise ProtocolError(f"malformed VALUE line: {line!r}") from None


def chunk_get_keys(keys, max_keys: Optional[int] = None,
                   max_line: int = MAX_LINE_BYTES) -> List[List[str]]:
    """Split ``keys`` into chunks whose ``get k1 k2 ...`` command lines
    stay under the server's ``max_line`` bound (with headroom), each
    chunk also holding at most ``max_keys`` keys.  Clients must use
    this: a single unbounded multi-get line is a *fatal* framing error
    server-side."""
    budget = max_line - 64          # headroom under the fatal bound
    chunks: List[List[str]] = []
    current: List[str] = []
    line_bytes = 3                  # "get"
    for key in keys:
        needed = len(key.encode("utf-8")) + 1
        if current and (line_bytes + needed > budget
                        or (max_keys is not None
                            and len(current) >= max_keys)):
            chunks.append(current)
            current = []
            line_bytes = 3
        current.append(key)
        line_bytes += needed
    if current:
        chunks.append(current)
    return chunks


def render_stats(stats: dict) -> bytes:
    lines = b""
    for name in sorted(stats):
        lines += f"STAT {name} {stats[name]}".encode("utf-8") + CRLF
    return lines + b"END" + CRLF


def render_digest(digest: dict) -> bytes:
    """``DIGEST <key> <cost> <crc>`` lines (sorted) then ``END``."""
    lines = b""
    for key in sorted(digest):
        cost, crc = digest[key]
        lines += f"DIGEST {key} {cost} {crc}".encode("utf-8") + CRLF
    return lines + b"END" + CRLF


# ----------------------------------------------------------------------
# sans-IO serving core
# ----------------------------------------------------------------------

@dataclass(slots=True)
class Command:
    """One parsed protocol event.

    ``request`` is None when the command line failed to parse; ``error``
    then carries the CLIENT_ERROR text.  ``fatal`` marks framing damage
    (bad data-block trailer, unbounded line): the connection must be
    closed after the error reply, because the byte stream can no longer
    be trusted to be command-aligned.
    """

    request: Optional[Request]
    payload: Optional[bytes] = None
    error: Optional[str] = None
    fatal: bool = False


@dataclass(slots=True)
class Reply:
    """Rendered response bytes plus whether the connection must close."""

    data: bytes
    close: bool = False


class ProtocolSession:
    """Server-side byte-stream state machine (sans-IO).

    Transports call :meth:`feed` with whatever ``recv`` returned and
    drain :meth:`commands`; the session handles arbitrary chunk
    boundaries — a command line or data block split across reads simply
    waits for the rest.  After a fatal framing event the session stays
    broken: no further commands are produced.
    """

    __slots__ = ("_buffer", "_awaiting", "_broken", "_max_line")

    def __init__(self, max_line: int = MAX_LINE_BYTES) -> None:
        self._buffer = bytearray()
        self._awaiting: Optional[Request] = None
        self._broken = False
        self._max_line = max_line

    @property
    def broken(self) -> bool:
        """True once a fatal framing error was seen."""
        return self._broken

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed by a complete command."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        if data:
            self._buffer += data

    def commands(self) -> Iterator[Command]:
        """Drain every command completed by the bytes fed so far."""
        while True:
            command = self.next_command()
            if command is None:
                return
            yield command

    def next_command(self) -> Optional[Command]:
        if self._broken:
            return None
        if self._awaiting is not None:
            return self._next_payload()
        while True:
            end = self._buffer.find(CRLF)
            if end < 0:
                if len(self._buffer) > self._max_line:
                    self._broken = True
                    return Command(None, error="command line too long",
                                   fatal=True)
                return None
            line = bytes(self._buffer[:end])
            del self._buffer[:end + 2]
            if len(line) > self._max_line:
                # enforce the bound whether or not the CRLF happened to
                # arrive in the same chunk — the outcome must not depend
                # on where recv boundaries fell
                self._broken = True
                return Command(None, error="command line too long",
                               fatal=True)
            if not line:
                continue          # stray blank line, same as the old loop
            try:
                request = parse_command_line(line)
            except ProtocolError as exc:
                first = line.split(None, 1)[0].lower()
                if first in (b"set", b"add", b"replace"):
                    # a storage header that failed to parse still
                    # promised a data block of unknowable length; the
                    # following bytes cannot be trusted to be command
                    # lines, so reinterpreting them would desync (and
                    # let payload text run as commands) — close instead
                    self._broken = True
                    return Command(None, error=str(exc), fatal=True)
                # other malformed lines are well-framed: report, carry on
                return Command(None, error=str(exc))
            if request.command in STORAGE_COMMANDS:
                self._awaiting = request
                return self._next_payload()
            return Command(request)

    def _next_payload(self) -> Optional[Command]:
        request = self._awaiting
        assert request is not None
        needed = request.nbytes + 2
        if len(self._buffer) < needed:
            return None           # short body: wait for more bytes
        payload = bytes(self._buffer[:request.nbytes])
        trailer = bytes(self._buffer[request.nbytes:needed])
        del self._buffer[:needed]
        self._awaiting = None
        if trailer != CRLF:
            # the client's byte accounting is off; re-parsing payload
            # bytes as commands would desync the stream — close instead
            self._broken = True
            return Command(request, error="bad data chunk", fatal=True)
        return Command(request, payload=payload)


def execute_command(engine, command: Command) -> Reply:
    """Run one :class:`Command` against an engine duck type.

    ``engine`` needs the :class:`~repro.twemcache.engine.TwemcacheEngine`
    surface (``get``/``set``/``add``/``replace``/``delete``/``incr``/
    ``decr``/``touch``/``flush_all``/``stats``/``save``); the tenancy
    router satisfies it too.  Every response byte either server emits
    comes from here.
    """
    if command.error is not None:
        return Reply(f"CLIENT_ERROR {command.error}".encode() + CRLF,
                     close=command.fatal)
    request = command.request
    assert request is not None
    name = request.command
    if name == "quit":
        return Reply(b"", close=True)
    if name == "version":
        return Reply(b"VERSION repro-camp/1.0" + CRLF)
    if name == "stats":
        return Reply(render_stats(engine.stats()))
    if name in ("get", "gets"):
        out = b""
        with_cost = name == "gets"
        for key in request.keys:
            item = engine.get(key)
            if item is not None:
                cost = getattr(item, "cost", 0) if with_cost else None
                out += render_value(key, item.flags, item.value, cost)
        return Reply(out + b"END" + CRLF)
    if name in STORAGE_COMMANDS:
        operation = getattr(engine, name)
        stored = operation(request.key, command.payload,
                           flags=request.flags,
                           expire_after=request.exptime,
                           cost=request.cost)
        return Reply(b"STORED" + CRLF if stored else b"NOT_STORED" + CRLF)
    if name == "delete":
        removed = engine.delete(request.key)
        return Reply(b"DELETED" + CRLF if removed else b"NOT_FOUND" + CRLF)
    if name in ("incr", "decr"):
        try:
            operation = getattr(engine, name)
            updated = operation(request.key, request.delta)
        except ProtocolError as exc:
            return Reply(f"CLIENT_ERROR {exc}".encode() + CRLF)
        if updated is None:
            return Reply(b"NOT_FOUND" + CRLF)
        return Reply(str(updated).encode("ascii") + CRLF)
    if name == "touch":
        touched = engine.touch(request.key, request.exptime)
        return Reply(b"TOUCHED" + CRLF if touched else b"NOT_FOUND" + CRLF)
    if name == "flush_all":
        engine.flush_all()
        return Reply(b"OK" + CRLF)
    if name == "save":
        try:
            engine.save()
        except ReproError as exc:
            return Reply(f"SERVER_ERROR {exc}".encode() + CRLF)
        return Reply(b"OK" + CRLF)
    if name == "digest":
        summarize = getattr(engine, "digest", None)
        if summarize is None:
            return Reply(b"SERVER_ERROR digest unsupported" + CRLF)
        prefix = request.keys[0] if request.keys else ""
        return Reply(render_digest(summarize(prefix)))
    # parse_command_line only produces the commands handled above
    raise ProtocolError(f"unroutable command {name!r}")  # pragma: no cover


class ServerSession:
    """One connection's protocol state bound to an engine.

    ``receive(data)`` is the entire per-connection logic of both
    servers: feed the bytes, execute every completed command, hand back
    the concatenated response bytes and whether to close.  Responses for
    all commands completed by one chunk are batched into a single bytes
    object, which is what makes pipelined clients cheap — one
    ``send``/``drain`` per read, not per command.
    """

    __slots__ = ("_session", "_engine")

    def __init__(self, engine, max_line: int = MAX_LINE_BYTES) -> None:
        self._session = ProtocolSession(max_line=max_line)
        self._engine = engine

    @property
    def engine(self):
        return self._engine

    @property
    def broken(self) -> bool:
        return self._session.broken

    def receive(self, data: bytes) -> Tuple[bytes, bool]:
        """Feed one received chunk; return ``(response_bytes, close)``."""
        self._session.feed(data)
        out = bytearray()
        close = False
        for command in self._session.commands():
            reply = execute_command(self._engine, command)
            out += reply.data
            if reply.close:
                close = True
                break
        return bytes(out), close


# ----------------------------------------------------------------------
# sans-IO client core
# ----------------------------------------------------------------------

class Value:
    """One value a get returned.

    ``cost`` is only populated by cost-aware reads (the ``gets`` verb);
    plain ``get`` replies leave it 0.
    """

    __slots__ = ("value", "flags", "cost")

    def __init__(self, value: bytes, flags: int, cost: Number = 0) -> None:
        self.value = value
        self.flags = flags
        self.cost = cost


#: the reply shapes a :class:`ClientSession` can be waiting for
_VALUES, _STORED, _DELETED, _STATS, _DIGEST, _VERSION, _SAVED = range(7)


def _unexpected(line: bytes) -> ProtocolError:
    if line.startswith((b"CLIENT_ERROR", b"SERVER_ERROR")):
        return ProtocolError(line.decode("utf-8", "replace"))
    return ProtocolError(f"unexpected reply {line!r}")


class ClientSession:
    """Client-side byte-stream state machine (sans-IO), the mirror of
    :class:`ServerSession`.

    Each request method renders one request to bytes and queues the
    reply it expects.  The transport sends the bytes, feeds whatever it
    reads to :meth:`receive` (``b""`` once the peer has closed) and pops
    replies with :meth:`next_reply`, which returns None until the oldest
    reply is complete — wherever the chunk boundaries fell.  Replies:

    * ``get`` → ``{key: Value}`` of every hit, one reply even when the
      keys span several chunked command lines;
    * ``set`` → True (``STORED``) / False (``NOT_STORED``); ``delete`` →
      True (``DELETED``) / False (``NOT_FOUND``); ``save`` → True
      (``OK``) / False (``SERVER_ERROR``);
    * ``stats`` → ``{name: number}``; ``digest`` → ``{key: (cost, crc)}``;
      ``version`` → the ``VERSION ...`` line.

    A ``CLIENT_ERROR``, a line the pending request cannot produce, or the
    peer closing mid-reply raises :class:`ProtocolError`, and the session
    stays closed afterwards: the stream can no longer be trusted to be
    reply-aligned (the server closes on the same malformed frames), so
    every later request raises too.
    """

    __slots__ = ("_buffer", "_pending", "_eof", "_closed", "_broken")

    def __init__(self) -> None:
        self._buffer = bytearray()
        # [kind, replies still to come, accumulator] per request
        self._pending: Deque[list] = deque()
        self._eof = False
        self._closed: Optional[str] = None    # why requests are refused
        self._broken = False

    @property
    def pending(self) -> int:
        """Requests whose reply has not been popped yet."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _request(self, data: bytes, kind: int, parts: int = 1,
                 into=None) -> bytes:
        """Queue the reply ``data`` asks for; return ``data``."""
        if self._closed is not None:
            raise ProtocolError(f"connection closed: {self._closed}")
        self._pending.append([kind, parts, into])
        return data

    def get(self, keys, with_cost: bool = False,
            max_keys: Optional[int] = None) -> bytes:
        """``get`` (``gets`` with ``with_cost``) of every key, chunked to
        stay under the server's line bound (see :func:`chunk_get_keys`)."""
        chunks = chunk_get_keys(keys, max_keys)
        verb = "gets " if with_cost else "get "
        return self._request(
            b"".join((verb + " ".join(chunk)).encode() + CRLF
                     for chunk in chunks), _VALUES, len(chunks), {})

    def set(self, key: str, value: bytes, flags: int = 0,
            expire_after: float = 0, cost: Number = 0) -> bytes:
        header = f"set {key} {flags} {expire_after} {len(value)} {cost}"
        return self._request(header.encode() + CRLF + value + CRLF, _STORED)

    def delete(self, key: str) -> bytes:
        return self._request(f"delete {key}".encode() + CRLF, _DELETED)

    def stats(self) -> bytes:
        return self._request(b"stats" + CRLF, _STATS, into={})

    def digest(self, prefix: str = "") -> bytes:
        command = f"digest {prefix}" if prefix else "digest"
        return self._request(command.encode() + CRLF, _DIGEST, into={})

    def version(self) -> bytes:
        return self._request(b"version" + CRLF, _VERSION)

    def save(self) -> bytes:
        return self._request(b"save" + CRLF, _SAVED)

    def quit(self) -> bytes:
        """No reply, and no request after it; replies already pending
        can still be read."""
        if self._closed is None:
            self._closed = "quit was sent"
        return b"quit" + CRLF

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def receive(self, data: bytes) -> None:
        """Feed received bytes; ``b""`` means the peer has closed."""
        if data:
            self._buffer += data
        else:
            self._eof = True
            if self._closed is None:
                self._closed = "server closed the connection"

    def next_reply(self):
        """Pop the oldest pending reply, or None while it is incomplete."""
        if self._broken:
            raise ProtocolError(f"connection closed: {self._closed}")
        if not self._pending:
            return None
        entry = self._pending[0]
        try:
            reply = self._parse(entry)
            if reply is None and self._eof:
                raise ProtocolError("server closed the connection")
        except ProtocolError as exc:
            self._broken = True
            self._closed = str(exc)
            raise
        if reply is not None:
            self._pending.popleft()
        return reply

    def _line(self) -> Optional[bytes]:
        buffer = self._buffer
        end = buffer.find(CRLF)
        if end < 0:
            return None
        line = bytes(buffer[:end])
        del buffer[:end + 2]
        return line

    def _parse(self, entry: list):
        kind = entry[0]
        if kind == _VALUES:
            return self._values(entry)
        if kind == _STATS or kind == _DIGEST:
            return self._listing(entry)
        line = self._line()
        if line is None:
            return None
        if kind == _STORED:
            if line == b"STORED":
                return True
            if line == b"NOT_STORED":
                return False
        elif kind == _DELETED:
            if line == b"DELETED":
                return True
            if line == b"NOT_FOUND":
                return False
        elif kind == _SAVED:
            if line == b"OK":
                return True
            if line.startswith(b"SERVER_ERROR"):
                return False
        elif line.startswith(b"VERSION "):
            return line.decode()
        raise _unexpected(line)

    def _values(self, entry: list):
        """VALUE blocks until as many ``END`` lines as command lines; a
        block whose data has not fully arrived stays in the buffer."""
        buffer = self._buffer
        found = entry[2]
        while entry[1]:
            end = buffer.find(CRLF)
            if end < 0:
                return None
            if buffer.startswith(b"VALUE "):
                key, flags, nbytes, cost = parse_value_header(
                    bytes(buffer[:end]))
                start = end + 2
                stop = start + nbytes
                if len(buffer) < stop + 2:
                    return None
                if buffer[stop:stop + 2] != CRLF:
                    raise ProtocolError("missing CRLF after data block")
                found[key] = Value(bytes(buffer[start:stop]), flags, cost)
                del buffer[:stop + 2]
            elif end == 3 and buffer.startswith(b"END"):
                del buffer[:5]
                entry[1] -= 1
            else:
                raise _unexpected(bytes(buffer[:end]))
        return found

    def _listing(self, entry: list):
        """``STAT``/``DIGEST`` lines until ``END``."""
        found = entry[2]
        prefix = b"STAT " if entry[0] == _STATS else b"DIGEST "
        while True:
            line = self._line()
            if line is None:
                return None
            if line == b"END":
                return found
            if not line.startswith(prefix):
                raise _unexpected(line)
            try:
                if entry[0] == _STATS:
                    _, name, text = line.decode().split(" ", 2)
                    found[name] = parse_number(text, "stat")
                else:
                    _, key, cost, crc = line.decode().split(" ", 3)
                    found[key] = (parse_number(cost, "cost"), int(crc))
            except ValueError:
                raise ProtocolError(
                    f"malformed reply line: {line!r}") from None
