"""Atomic, generational snapshots of a :class:`~repro.cache.kvs.KVS`.

A ``CAMPSNP2`` snapshot file carries each resident pair **once**: the
pair's item fields (charged size, cost, expiry, optional payload) and
the eviction policy's per-key fields (CAMP's ``H``, touch sequence and
queue id, ...) are joined into one struct-packed record.  In order:

* the magic ``CAMPSNP2``;
* a JSON *header* record — format version, generation, capacity, item
  overhead, the store clock's reading at save time (the 16 hex digits of
  its big-endian f64, so the file's length does not depend on the
  reading; files that hold it as a JSON number still load), the item
  count, the policy's row arity, and the policy's exported scalars (its
  kind, CAMP's ``L``/``seq``/multiplier, ...);
* the *pair section*: pair records packed back to back into blocks; a
  block closes once it reaches :data:`BLOCK_BYTES` (so it holds at most
  that plus one pair) and is written as one framed, checksummed record;
* a JSON *footer* record echoing the item count.

One pair record, little-endian, in the policy's row order
(:meth:`~repro.core.policy.EvictionPolicy.export_state` rows
``[key, size, cost, *fields]``)::

    mask u8 | key length u16 | size i64 | cost, *fields (i64 | f64)
            | [expire_at f64] | [payload length u32] | key | [payload]

Bit ``i`` of the mask (``i`` < 6) marks slot ``i`` of ``cost, *fields``
as an f64 — so an int cost comes back as an int — and the two high bits
say whether an expiry and a payload follow (an absent payload differs
from ``b""``).  An int outside i64, or a key or payload longer than its
length field, raises :class:`PersistenceError` at save; nothing is
truncated.  Rows are packed as the policy yields them
(:meth:`~repro.core.policy.EvictionPolicy.export_stream`) and blocks are
written and read one at a time, so neither side holds a list of rows.

:class:`SnapshotReader` is the one decoder.  Recovery hands its lazy rows
and the expiries it collects to :meth:`KVS.restore
<repro.cache.kvs.KVS.restore>`, whose policy makes each pair's one record
as it takes the row, so each pair is unpacked once and nothing else is
built for it; :func:`load_snapshot` collects the same rows into a
:class:`SnapshotData` (with a :class:`CacheItem` per pair) for callers
that want the whole file in memory.

The file is written to a temp name then published with ``os.replace`` —
a crash mid-save leaves the previous generation untouched and at worst a
``*.tmp`` orphan, never a half-written snapshot under the real name.
A snapshot is all-or-nothing: any framing, checksum or count problem,
and any record a store would refuse (size < 1, cost < 0, a key listed
twice), raises :class:`SnapshotCorruptError`, and recovery falls back a
generation.  The bulk phases run with the cyclic GC paused
(:func:`~repro.persistence.format.gc_paused`).

Expiry headaches: ``expire_at`` is a reading of the *saving* store's
clock (``time.monotonic`` by default), which is meaningless to another
process.  The header therefore carries the clock's value at save time,
and :func:`load_snapshot` rebases each item's expiry onto the restoring
store's clock, preserving the remaining TTL.  Items whose TTL already
lapsed rebase to "expired now" rather than being dropped, so the policy
state (which still lists them) stays consistent; the store's lazy
reclaim retires them on first touch.

The :class:`Snapshotter` adds *generations* on top: ``snapshot-<n>.snap``
files in one directory, newest wins, the ``keep_generations`` most
recent retained as fallbacks for recovery from a corrupt newest file.
"""

from __future__ import annotations

import os
import pathlib
import re
import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import (IO, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Union)

from repro.cache.kvs import KVS
from repro.core.policy import CacheItem, Resident
from repro.persistence.format import (
    SNAPSHOT_MAGIC,
    PersistenceError,
    SnapshotCorruptError,
    atomic_write,
    gc_paused,
    read_frame,
    read_magic,
    read_record,
    write_frame,
    write_magic,
    write_record,
)

__all__ = ["SnapshotData", "SnapshotReader", "Snapshotter", "save_snapshot",
           "load_snapshot", "restore_snapshot", "snapshot_generations"]

FORMAT_VERSION = 2

#: a pair block closes once it holds this many bytes
BLOCK_BYTES = 1 << 16

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{6})\.snap$")

#: mask bits above the per-slot f64 flags
_EXPIRES = 0x40
_PAYLOAD = 0x80
#: numeric slots (cost plus the policy's fields) the mask can type
_MAX_SLOTS = 6

#: the header's clock reading, written as this f64's hex digits
_CLOCK = struct.Struct(">d")


class _PairLayouts(dict):
    """Pair-record head :class:`struct.Struct` per mask byte, built on
    first use for one row arity."""

    def __init__(self, arity: int) -> None:
        super().__init__()
        if not 0 <= arity < _MAX_SLOTS:
            raise PersistenceError(
                f"policy rows carry {arity} fields; a snapshot packs 0 to "
                f"{_MAX_SLOTS - 1}")
        self.arity = arity

    def __missing__(self, mask: int) -> struct.Struct:
        slots = self.arity + 1
        if (mask & ~(_EXPIRES | _PAYLOAD)) >> slots:
            raise SnapshotCorruptError(f"pair record mask {mask:#04x} types "
                                       f"more than {slots} slots")
        layout = struct.Struct(
            "<BHq"
            + "".join("d" if mask >> slot & 1 else "q"
                      for slot in range(slots))
            + ("d" if mask & _EXPIRES else "")
            + ("I" if mask & _PAYLOAD else ""))
        self[mask] = layout
        return layout


@dataclass
class SnapshotData:
    """A whole snapshot decoded into memory, expiry already rebased onto
    ``now`` (:func:`load_snapshot`).

    ``policy_state`` is the policy's export with its ``"entries"`` rows
    rebuilt from the pair records, ready for ``import_state``.
    """

    version: int
    generation: int
    capacity: int
    item_overhead: int
    saved_clock: float
    policy_state: Dict[str, object]
    items: List[CacheItem] = field(default_factory=list)
    payloads: Dict[str, bytes] = field(default_factory=dict)

    @property
    def item_count(self) -> int:
        return len(self.items)


def _encode_clock(reading: float) -> str:
    """A clock reading as the 16 hex digits of its big-endian f64, so the
    header's length does not depend on the reading."""
    return _CLOCK.pack(reading).hex()


def _decode_clock(value: object) -> float:
    """:func:`_encode_clock`'s text, or the JSON number older files hold."""
    if isinstance(value, str):
        if len(value) != 2 * _CLOCK.size:
            raise ValueError(f"clock {value!r} is not {2 * _CLOCK.size} "
                             f"hex digits")
        return _CLOCK.unpack(bytes.fromhex(value))[0]
    return float(value)


def save_snapshot(path: Union[str, os.PathLike],
                  kvs: KVS,
                  payloads: Optional[Mapping[str, bytes]] = None,
                  generation: int = 0) -> int:
    """Atomically serialize ``kvs`` (items + policy state) to ``path``.

    ``payloads`` optionally maps resident keys to their value bytes
    (stores that memoize values persist them here; metadata-only
    simulators pass nothing).  Returns the snapshot's size in bytes.
    Rows are packed as the policy's
    :meth:`~repro.core.policy.EvictionPolicy.export_stream` yields them.
    The publish is crash-ordered (:func:`~repro.persistence.format.
    atomic_write`): temp file, fsync, then ``os.replace``.
    """
    with gc_paused():
        state, rows = kvs.policy.export_stream()
        count = len(kvs)
        first = next(rows, None)
        arity = len(first) - 3 if first is not None else 0
        if first is not None:
            rows = chain((first,), rows)
        expiring = {key: record.expire_at
                    for key, record in kvs.records.items()
                    if record.expire_at}
        header = {
            "kind": "snapshot",
            "version": FORMAT_VERSION,
            "generation": generation,
            "capacity": kvs.capacity,
            "item_overhead": kvs.item_overhead,
            "clock": _encode_clock(kvs.clock()),
            "items": count,
            "arity": arity,
            "policy": state,
        }

        def write_body(handle):
            write_magic(handle, SNAPSHOT_MAGIC)
            write_record(handle, header)
            written = _write_pairs(handle, rows, arity, expiring,
                                   payloads or None)
            if written != count:
                raise PersistenceError(
                    f"policy exports {written} rows for {count} items")
            write_record(handle, {"kind": "footer", "items": count})

        return atomic_write(path, write_body)


def _write_pairs(handle: IO[bytes], rows: Iterable[Sequence[object]],
                 arity: int, expiring: Mapping[str, float],
                 payloads: Optional[Mapping[str, bytes]]) -> int:
    """Pack ``rows`` joined with their expiry and payload into blocks;
    returns the number of rows packed."""
    layouts = _PairLayouts(arity)
    block = bytearray()
    written = 0
    for row in rows:
        written += 1
        key = row[0]
        encoded = key.encode("utf-8")
        mask = 0
        tail: tuple = ()
        if expiring:
            expire_at = expiring.get(key)
            if expire_at:
                mask = _EXPIRES
                tail = (expire_at,)
        payload = payloads.get(key) if payloads else None
        if payload is not None:
            mask |= _PAYLOAD
            tail += (len(payload),)
        try:
            head = layouts[mask].pack(mask, len(encoded), *row[1:], *tail)
        except struct.error:
            # a float slot (or a value no layout can hold): type the row
            for slot, value in enumerate(row[2:]):
                if isinstance(value, float):
                    mask |= 1 << slot
            head = _pack_or_refuse(layouts, mask, key, encoded, row, tail)
        block += head
        block += encoded
        if payload is not None:
            block += payload
        if len(block) >= BLOCK_BYTES:
            write_frame(handle, block)
            block = bytearray()
    if block:
        write_frame(handle, block)
    return written


def _pack_or_refuse(layouts: _PairLayouts, mask: int, key: str,
                    encoded: bytes, row: Sequence[object],
                    tail: tuple) -> bytes:
    if len(row) != layouts.arity + 3:
        raise PersistenceError(
            f"policy row for {key!r} has {len(row)} columns, "
            f"expected {layouts.arity + 3}")
    if len(encoded) > 0xFFFF:
        raise PersistenceError(
            f"key {key[:32]!r}... is {len(encoded)} bytes; a snapshot "
            f"holds keys of at most 65535")
    if mask & _PAYLOAD and tail[-1] > 0xFFFFFFFF:
        raise PersistenceError(
            f"payload of {key!r} is {tail[-1]} bytes; a snapshot holds "
            f"payloads of at most 4 GiB - 1")
    try:
        return layouts[mask].pack(mask, len(encoded), *row[1:], *tail)
    except struct.error as exc:
        raise PersistenceError(
            f"cannot pack the row of {key!r} ({row[1:]!r}): {exc}; "
            f"ints must fit in i64") from None


class SnapshotReader:
    """The snapshot decoder: one pass over a file, each pair decoded once.

    Opening the reader reads the magic and the header (raising
    :class:`SnapshotCorruptError` on a malformed one, and
    :class:`~repro.persistence.format.UnsupportedFormatError` on a
    format-1 file).  :attr:`policy_state` is the header's policy scalars
    with a *lazy* ``"entries"`` iterator of rows ``(key, size, cost,
    *fields)``: the policy's import makes each pair's record as it takes
    the row, while the pair's expiry lands in :attr:`expiries` (only
    pairs that expire) and its payload in :attr:`payloads`, so
    :meth:`KVS.restore <repro.cache.kvs.KVS.restore>` installs the store
    in the one pass and nothing else is built per pair.  Every check
    runs before its row is yielded — block CRC, mask, size >= 1, cost >=
    0, expiry >= 0, no key twice — and the block overrun, item count and
    footer as the pass ends; each raises :class:`SnapshotCorruptError`.
    When ``now`` is given each expiry is rebased onto that clock
    (remaining TTL preserved; an already-lapsed TTL becomes "expired as
    of now").
    """

    def __init__(self, path: Union[str, os.PathLike],
                 now: Optional[float] = None) -> None:
        self.path = path
        self._now = now
        #: key -> rebased expiry of each pair that expires
        self.expiries: Dict[str, float] = {}
        self.payloads: Dict[str, bytes] = {}
        #: rows decoded so far
        self.rows_read = 0
        #: keys decoded so far, for the check that none is listed twice
        self._seen: Set[str] = set()
        try:
            self._handle = open(path, "rb")
        except OSError as exc:
            raise PersistenceError(
                f"cannot read snapshot {path}: {exc}") from exc
        try:
            self._read_header()
        except BaseException:
            self._handle.close()
            raise

    def _read_header(self) -> None:
        path = self.path
        read_magic(self._handle, SNAPSHOT_MAGIC)
        header = read_record(self._handle)
        if header is None or header.get("kind") != "snapshot":
            raise SnapshotCorruptError(f"{path}: missing snapshot header")
        if header.get("version") != FORMAT_VERSION:
            raise SnapshotCorruptError(
                f"{path}: unsupported format version {header.get('version')}")
        try:
            self.version = int(header["version"])
            self.generation = int(header.get("generation", 0))
            self.capacity = int(header["capacity"])
            self.item_overhead = int(header.get("item_overhead", 0))
            self.saved_clock = _decode_clock(header["clock"])
            self.item_count = int(header["items"])
            #: the policy's export, its ``"entries"`` decoded as taken
            self.policy_state = {**header["policy"], "entries": self._rows()}
            self._layouts = _PairLayouts(int(header["arity"]))
        except (KeyError, TypeError, ValueError, struct.error,
                PersistenceError) as exc:
            raise SnapshotCorruptError(
                f"{path}: malformed snapshot header: {exc}") from None

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._handle.close()

    def _rows(self) -> Iterator[tuple]:
        try:
            while self.rows_read < self.item_count:
                block = read_frame(self._handle)
                if block is None:
                    raise SnapshotCorruptError(
                        f"{self.path}: truncated pair section")
                yield from self._block_rows(block)
        except (struct.error, UnicodeDecodeError) as exc:
            raise SnapshotCorruptError(
                f"{self.path}: malformed pair record: {exc}") from None
        # every key is checked: the set goes before the reader does,
        # which its caller may keep for the payloads
        self._seen.clear()
        footer = read_record(self._handle)
        if self.rows_read != self.item_count or footer is None \
                or footer.get("kind") != "footer" \
                or footer.get("items") != self.item_count:
            raise SnapshotCorruptError(
                f"{self.path}: missing or wrong footer")

    def _block_rows(self, block: bytes) -> Iterator[tuple]:
        """Decode one pair block: check each pair, keep its expiry and
        payload, yield its row."""
        layouts = self._layouts
        expiries = self.expiries
        payloads = self.payloads
        seen = self._seen
        remember = seen.add
        row_end = layouts.arity + 4     # vals[2:row_end] = size, cost, *fields
        offset = 0
        end = len(block)
        last_mask = -1
        rows = 0
        while offset < end:
            mask = block[offset]
            if mask != last_mask:
                # pairs of one file mostly share a mask: look it up once
                layout = layouts[mask]
                unpack = layout.unpack_from
                width = layout.size
                last_mask = mask
            vals = unpack(block, offset)
            offset += width
            stop = offset + vals[1]
            key = block[offset:stop].decode("utf-8")
            offset = stop
            size = vals[2]
            cost = vals[3]
            if size < 1 or cost < 0:
                raise self._invalid(key, f"size {size}, cost {cost}")
            if key in seen:
                raise self._invalid(key, "listed twice")
            remember(key)
            if mask & _EXPIRES:
                expiries[key] = self._rebase(key, vals[row_end])
            if mask & _PAYLOAD:
                stop = offset + vals[-1]
                payloads[key] = block[offset:stop]
                offset = stop
            rows += 1
            yield (key,) + vals[2:row_end]
        self.rows_read += rows
        if offset != end:
            raise SnapshotCorruptError(
                f"{self.path}: pair record overruns its block")

    def _rebase(self, key: str, expire_at: float) -> float:
        """A saved expiry moved onto ``now``'s clock, when one is given."""
        if expire_at < 0:
            raise self._invalid(key, f"expiry {expire_at}")
        if self._now is None:
            return expire_at
        expire_at = self._now + max(expire_at - self.saved_clock, 0.0)
        # an exactly-zero reading would decode as "never expires"; nudge
        # it to "expired at epoch"
        return expire_at or 5e-324

    def _invalid(self, key: str, why: str) -> SnapshotCorruptError:
        return SnapshotCorruptError(
            f"{self.path}: invalid pair record for {key!r}: {why}")


def load_snapshot(path: Union[str, os.PathLike],
                  now: Optional[float] = None) -> SnapshotData:
    """Decode a whole snapshot file into memory (:class:`SnapshotReader`
    with its rows collected).

    Raises :class:`SnapshotCorruptError` on any framing, checksum,
    record or count problem — a snapshot is all-or-nothing, unlike the
    log — and :class:`~repro.persistence.format.UnsupportedFormatError`
    on a format-1 file.  ``now`` rebases expiry as the reader does.
    """
    with gc_paused(), SnapshotReader(path, now=now) as reader:
        policy_state = reader.policy_state
        rows = policy_state["entries"] = list(policy_state["entries"])
        expiries = reader.expiries
        items = [CacheItem(row[0], row[1], row[2], expiries.get(row[0], 0.0))
                 for row in rows]
    return SnapshotData(
        version=reader.version,
        generation=reader.generation,
        capacity=reader.capacity,
        item_overhead=reader.item_overhead,
        saved_clock=reader.saved_clock,
        policy_state=policy_state,
        items=items,
        payloads=reader.payloads,
    )


def restore_snapshot(kvs: KVS, data: SnapshotData) -> List[Resident]:
    """Install parsed snapshot state into an empty ``kvs``.

    Returns items the policy had to evict when the restoring store is
    smaller than the snapshot's origin.
    """
    return kvs.restore(data.items, data.policy_state)


def snapshot_generations(directory: Union[str, os.PathLike]) -> List[int]:
    """Generation numbers present in ``directory``, oldest first."""
    root = pathlib.Path(directory)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        match = _SNAPSHOT_RE.match(entry.name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


class Snapshotter:
    """Generation-managed snapshots in one directory."""

    def __init__(self, directory: Union[str, os.PathLike],
                 keep_generations: int = 2) -> None:
        if keep_generations < 1:
            raise PersistenceError(
                f"keep_generations must be >= 1, got {keep_generations}")
        self._dir = pathlib.Path(directory)
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot create snapshot directory {self._dir}: {exc}"
            ) from exc
        self._keep = keep_generations

    @property
    def directory(self) -> pathlib.Path:
        return self._dir

    def path_for(self, generation: int) -> pathlib.Path:
        return self._dir / f"snapshot-{generation:06d}.snap"

    def generations(self) -> List[int]:
        return snapshot_generations(self._dir)

    def latest_generation(self) -> int:
        """Newest generation on disk, 0 when none exist."""
        generations = self.generations()
        return generations[-1] if generations else 0

    def save(self, kvs: KVS,
             payloads: Optional[Mapping[str, bytes]] = None) -> int:
        """Write the next generation; prunes old ones.  Returns the new
        generation number."""
        generation = self.latest_generation() + 1
        save_snapshot(self.path_for(generation), kvs, payloads=payloads,
                      generation=generation)
        self.prune()
        return generation

    def load(self, generation: int, now: Optional[float] = None
             ) -> SnapshotData:
        return load_snapshot(self.path_for(generation), now=now)

    def prune(self) -> List[int]:
        """Drop all but the ``keep_generations`` newest; returns dropped."""
        generations = self.generations()
        stale = generations[:-self._keep] if len(generations) > self._keep \
            else []
        for generation in stale:
            self.path_for(generation).unlink(missing_ok=True)
        return stale
