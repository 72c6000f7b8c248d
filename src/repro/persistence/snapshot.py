"""Atomic, generational snapshots of a :class:`~repro.cache.kvs.KVS`.

A ``CAMPSNP2`` snapshot file carries each resident pair **once**: the
pair's item fields (charged size, cost, expiry, optional payload) and
the eviction policy's per-key fields (CAMP's ``H``, touch sequence and
queue id, ...) are joined into one struct-packed record.  In order:

* the magic ``CAMPSNP2``;
* a JSON *header* record — format version, generation, capacity, item
  overhead, the store clock's reading at save time, the item count, the
  policy's row arity, and the policy's exported scalars (its kind, CAMP's
  ``L``/``seq``/multiplier, ...);
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
truncated.  Blocks are written and read one at a time, so the IO never
holds more than one block beyond the rows themselves.

The file is written to a temp name then published with ``os.replace`` —
a crash mid-save leaves the previous generation untouched and at worst a
``*.tmp`` orphan, never a half-written snapshot under the real name.
A snapshot is all-or-nothing: any framing, checksum or count problem
raises :class:`SnapshotCorruptError`, and recovery falls back a
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
from typing import IO, Dict, List, Mapping, Optional, Sequence, Union

from repro.cache.kvs import KVS
from repro.core.policy import CacheItem
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

__all__ = ["SnapshotData", "Snapshotter", "save_snapshot", "load_snapshot",
           "restore_snapshot", "snapshot_generations"]

FORMAT_VERSION = 2

#: a pair block closes once it holds this many bytes
BLOCK_BYTES = 1 << 16

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{6})\.snap$")

#: mask bits above the per-slot f64 flags
_EXPIRES = 0x40
_PAYLOAD = 0x80
#: numeric slots (cost plus the policy's fields) the mask can type
_MAX_SLOTS = 6


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
    """A parsed snapshot, expiry already rebased onto ``clock_now``.

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


def save_snapshot(path: Union[str, os.PathLike],
                  kvs: KVS,
                  payloads: Optional[Mapping[str, bytes]] = None,
                  generation: int = 0) -> int:
    """Atomically serialize ``kvs`` (items + policy state) to ``path``.

    ``payloads`` optionally maps resident keys to their value bytes
    (stores that memoize values persist them here; metadata-only
    simulators pass nothing).  Returns the snapshot's size in bytes.
    The publish is crash-ordered (:func:`~repro.persistence.format.
    atomic_write`): temp file, fsync, then ``os.replace``.
    """
    with gc_paused():
        state = kvs.policy.export_state()
        rows = state.pop("entries")
        if len(rows) != len(kvs):
            raise PersistenceError(
                f"policy exports {len(rows)} rows for {len(kvs)} items")
        arity = len(rows[0]) - 3 if rows else 0
        expiring = {item.key: item.expire_at
                    for item in kvs.resident_items() if item.expire_at}
        header = {
            "kind": "snapshot",
            "version": FORMAT_VERSION,
            "generation": generation,
            "capacity": kvs.capacity,
            "item_overhead": kvs.item_overhead,
            "clock": kvs.clock(),
            "items": len(rows),
            "arity": arity,
            "policy": state,
        }

        def write_body(handle):
            write_magic(handle, SNAPSHOT_MAGIC)
            write_record(handle, header)
            _write_pairs(handle, rows, arity, expiring, payloads or None)
            write_record(handle, {"kind": "footer", "items": len(rows)})

        return atomic_write(path, write_body)


def _write_pairs(handle: IO[bytes], rows: Sequence[Sequence[object]],
                 arity: int, expiring: Mapping[str, float],
                 payloads: Optional[Mapping[str, bytes]]) -> None:
    """Pack ``rows`` joined with their expiry and payload into blocks."""
    layouts = _PairLayouts(arity)
    block = bytearray()
    for row in rows:
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


def load_snapshot(path: Union[str, os.PathLike],
                  now: Optional[float] = None) -> SnapshotData:
    """Parse and validate a snapshot file.

    Raises :class:`SnapshotCorruptError` on any framing/checksum/count
    problem — a snapshot is all-or-nothing, unlike the log — and
    :class:`~repro.persistence.format.UnsupportedFormatError` on a
    format-1 file.  When ``now`` is given, each item's ``expire_at`` is
    rebased onto that clock (remaining TTL preserved; already-lapsed
    TTLs become "expired as of now").
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot {path}: {exc}") from exc
    with handle, gc_paused():
        read_magic(handle, SNAPSHOT_MAGIC)
        header = read_record(handle)
        if header is None or header.get("kind") != "snapshot":
            raise SnapshotCorruptError(f"{path}: missing snapshot header")
        if header.get("version") != FORMAT_VERSION:
            raise SnapshotCorruptError(
                f"{path}: unsupported format version {header.get('version')}")
        try:
            expected = int(header["items"])
            data = SnapshotData(
                version=int(header["version"]),
                generation=int(header.get("generation", 0)),
                capacity=int(header["capacity"]),
                item_overhead=int(header.get("item_overhead", 0)),
                saved_clock=float(header["clock"]),
                policy_state=dict(header["policy"]),
            )
            layouts = _PairLayouts(int(header["arity"]))
        except (KeyError, TypeError, ValueError, PersistenceError) as exc:
            raise SnapshotCorruptError(
                f"{path}: malformed snapshot header: {exc}") from None
        rows: List[tuple] = []
        while len(rows) < expected:
            block = read_frame(handle)
            if block is None:
                raise SnapshotCorruptError(f"{path}: truncated pair section")
            try:
                _read_block(block, layouts, rows, data, now)
            except (struct.error, UnicodeDecodeError) as exc:
                raise SnapshotCorruptError(
                    f"{path}: malformed pair record: {exc}") from None
        footer = read_record(handle)
        if len(rows) != expected or footer is None \
                or footer.get("kind") != "footer" \
                or int(footer.get("items", -1)) != expected:
            raise SnapshotCorruptError(f"{path}: missing or wrong footer")
    data.policy_state["entries"] = rows
    return data


def _read_block(block: bytes, layouts: _PairLayouts, rows: List[tuple],
                data: SnapshotData, now: Optional[float]) -> None:
    """Decode one pair block into ``rows``, ``data.items`` and
    ``data.payloads``."""
    items = data.items
    payloads = data.payloads
    saved_clock = data.saved_clock
    row_end = layouts.arity + 4     # vals[2:row_end] = size, cost, *fields
    offset = 0
    end = len(block)
    while offset < end:
        mask = block[offset]
        layout = layouts[mask]
        vals = layout.unpack_from(block, offset)
        offset += layout.size
        stop = offset + vals[1]
        key = block[offset:stop].decode("utf-8")
        offset = stop
        expire_at = 0.0
        if mask & _EXPIRES:
            expire_at = vals[row_end]
            if now is not None:
                expire_at = now + max(expire_at - saved_clock, 0.0)
                if expire_at == 0.0:
                    # an exactly-zero clock reading would decode as
                    # "never expires"; nudge to "expired at epoch"
                    expire_at = 5e-324
        if mask & _PAYLOAD:
            stop = offset + vals[-1]
            payloads[key] = block[offset:stop]
            offset = stop
        rows.append((key,) + vals[2:row_end])
        items.append(CacheItem(key, vals[2], vals[3], expire_at))
    if offset != end:
        raise SnapshotCorruptError("pair record overruns its block")


def restore_snapshot(kvs: KVS, data: SnapshotData) -> List[CacheItem]:
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
