"""``DiskTier`` — an append-only victim store with a crash-recoverable index.

Layout (FlashMap's flash-friendly shape: sequential writes, an in-memory
index, coarse reclamation):

* The tier is a directory of *segment files* ``segment-000001.seg``,
  ``segment-000002.seg``, ... — each the 8-byte magic ``CAMPSEG2``
  followed by records in the ``(length, crc32)`` frame of
  :mod:`repro.persistence.format`.  All writes are appends to the newest
  ("active") segment; when it reaches ``segment_bytes`` it is sealed and
  a new one opened.
* Records are *value records* (a demoted pair, with or without its
  payload) or *tombstones* (key only) — a delete/promotion appends a
  tombstone so a later recovery cannot resurrect the removed copy.  A
  record body is packed with :mod:`struct`, little-endian::

      kind u8 | flags u32 | size i64 | cost i64 or f64 | expire_at f64
              | written_at f64 | key length u16 | key (UTF-8) | payload

  The kind byte's low bits name the record (1 value with payload, 2
  metadata-only, 3 tombstone) and bit ``0x10`` marks an f64 cost, so an
  int cost reads back as an int.  A tombstone is the kind byte and the
  key.  Every field has a fixed width, so where segment boundaries fall
  depends on the keys and payloads alone, never on the clock's digits.
* An in-memory index maps each live key to ``(segment, offset)`` plus its
  metadata; lookups seek straight to the record and re-verify its CRC,
  kind and key.  Each segment also keeps its own live keys, so neither
  reclaiming a segment nor the per-delete GC check scans the index.
* Space is reclaimed at **segment granularity**: capacity pressure drops
  whole oldest segments (their live keys are evicted); compaction
  (:meth:`gc`) copies the verified bodies of a mostly-dead segment's live
  records, unchanged, to the active segment and deletes the file.
* :meth:`recover` (run by the constructor) rebuilds the index by
  scanning every segment's healthy frame prefix — a torn tail, a flipped
  bit, or a crash mid-append surfaces as a per-record checksum failure,
  the scan stops there, and the torn active tail is truncated so future
  appends land on a clean boundary.  Only intact records are served.  A
  segment with any other magic — a ``CAMPSEG1`` file of the old JSON
  format included — is quarantined: none of its records is served, and
  it is never appended to or rewritten.

Sizes are *logical* (the L1 item's charged size), so capacity accounting
and the demotion-volume counters mean the same thing for real payloads
and for metadata-only simulation traffic (which writes no value bytes).

TTLs: records carry their absolute expiry *and* the clock reading at
write time; recovery rebases remaining-TTL-at-write onto the new
process clock, the same approximation the twemcache snapshot makes.
The tier is not internally synchronized — callers (Store lock, engine
lock) serialize access.
"""

from __future__ import annotations

import os
import pathlib
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.faults.files import fault_open
from repro.persistence.format import (
    PersistenceError,
    SnapshotCorruptError,
    frame_header,
    read_frame,
    read_magic,
    write_magic,
)

__all__ = ["DiskTier", "TierRecord", "SEGMENT_MAGIC"]

Number = Union[int, float]

#: segment files' first 8 bytes: format family + version (bump on change)
SEGMENT_MAGIC = b"CAMPSEG2"

_SEGMENT_GLOB = "segment-*.seg"

_VALUE, _META, _TOMBSTONE = 1, 2, 3
_FLOAT_COST = 0x10

#: kind | flags | size | cost | expire_at | written_at | key length
_HEAD_INT = struct.Struct("<BIqqddH")
_HEAD_FLOAT = struct.Struct("<BIqdddH")
_HEADS = {_VALUE: _HEAD_INT, _META: _HEAD_INT,
          _VALUE | _FLOAT_COST: _HEAD_FLOAT, _META | _FLOAT_COST: _HEAD_FLOAT}
_KEY_AT = _HEAD_INT.size
_TOMBSTONE_KIND = bytes([_TOMBSTONE])

#: one decoded record: (tombstone?, key, payload or None, size, cost,
#: expire_at, written_at, flags) — a tombstone carries only its key
Decoded = Tuple[bool, str, Optional[bytes], int, Number, float, float, int]


def _encode_value(key: str, value: Optional[bytes], size: int,
                  cost: Number, expire_at: float, written_at: float,
                  flags: int) -> bytes:
    """Pack one value record; PersistenceError when a field does not fit
    (an int outside i64, flags outside u32, a key that is not UTF-8 text
    or is longer than 65 535 bytes)."""
    kind = _META if value is None else _VALUE
    head = _HEAD_INT
    if isinstance(cost, float):
        kind |= _FLOAT_COST
        head = _HEAD_FLOAT
    try:
        encoded = key.encode("utf-8")
        packed = head.pack(kind, flags, size, cost, expire_at, written_at,
                           len(encoded))
    except (struct.error, UnicodeEncodeError) as exc:
        raise PersistenceError(
            f"cannot demote {key[:64]!r} (size {size!r}, cost {cost!r}, "
            f"flags {flags!r}): {exc}") from None
    if value is None:
        return packed + encoded
    return packed + encoded + value


def _decode(body: bytes) -> Decoded:
    """Unpack one verified frame body; SnapshotCorruptError when its
    kind or layout is not one a writer makes."""
    kind = body[0]
    try:
        if kind == _TOMBSTONE:
            return True, body[1:].decode("utf-8"), None, 0, 0, 0.0, 0.0, 0
        _, flags, size, cost, expire_at, written_at, key_length = \
            _HEADS[kind].unpack_from(body)
        end = _KEY_AT + key_length
        if end > len(body):
            raise SnapshotCorruptError("segment record key overruns body")
        key = body[_KEY_AT:end].decode("utf-8")
    except KeyError:
        raise SnapshotCorruptError(
            f"unknown segment record kind {kind:#04x}") from None
    except (struct.error, UnicodeDecodeError) as exc:
        raise SnapshotCorruptError(
            f"malformed segment record: {exc}") from None
    payload = body[end:] if kind & _VALUE else None
    return False, key, payload, size, cost, expire_at, written_at, flags


@dataclass(frozen=True, slots=True)
class TierRecord:
    """One live disk-tier entry as served to callers."""

    key: str
    value: Optional[bytes]   # None for metadata-only (simulation) entries
    size: int                # logical (L1-charged) bytes
    cost: Number
    expire_at: float         # absolute on the tier's clock, 0 = never
    flags: int = 0

    def remaining_ttl(self, now: float) -> Optional[float]:
        """Seconds of life left (None = no expiry) for re-insertion."""
        if not self.expire_at:
            return None
        return self.expire_at - now


@dataclass(slots=True)
class _IndexEntry:
    segment_id: int
    offset: int
    size: int
    cost: Number
    expire_at: float
    flags: int
    has_value: bool


@dataclass(slots=True)
class _Segment:
    """Accounting for one segment file."""

    segment_id: int
    path: pathlib.Path
    written: int = 0         # logical bytes ever appended (live + dead)
    live: int = 0            # logical bytes still referenced by the index
    records: int = 0
    #: the index's keys that point here, in file order (a dict as an
    #: ordered set)
    keys: Dict[str, None] = field(default_factory=dict)

    @property
    def dead(self) -> int:
        return self.written - self.live


class DiskTier:
    """A capacity-bounded on-disk victim tier (L2) under a DRAM cache."""

    def __init__(self,
                 directory: Union[str, os.PathLike],
                 capacity_bytes: int,
                 segment_bytes: int = 1 << 20,
                 clock: Optional[Callable[[], float]] = None,
                 auto_gc_dead_ratio: Optional[float] = 0.6,
                 recover: bool = True) -> None:
        """``capacity_bytes`` bounds the *logical* bytes resident on disk;
        ``segment_bytes`` is the file-size threshold that seals the active
        segment.  ``auto_gc_dead_ratio`` triggers :meth:`gc` once that
        fraction of written bytes is dead (None disables auto-GC).
        ``recover=False`` starts empty over whatever files exist."""
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"tier capacity must be >= 1, got {capacity_bytes}")
        if segment_bytes < 1:
            raise ConfigurationError(
                f"segment_bytes must be >= 1, got {segment_bytes}")
        self._directory = pathlib.Path(directory)
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot create tier directory {self._directory}: {exc}"
            ) from exc
        self._capacity = capacity_bytes
        self._segment_bytes = segment_bytes
        self._clock = clock if clock is not None else time.monotonic
        self._auto_gc_dead_ratio = auto_gc_dead_ratio
        self._index: Dict[str, _IndexEntry] = {}
        self._segments: Dict[int, _Segment] = {}
        self._used = 0
        self._written = 0            # sum of every segment's ``written``
        self._active: Optional[_Segment] = None
        self._active_handle = None
        self._active_bytes = 0       # the active segment file's length
        self._read_handles: Dict[int, object] = {}
        # counters
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.evictions = 0
        self.rejected_too_large = 0
        self.bytes_written = 0       # logical demotion volume
        self.bytes_read = 0
        self.bytes_rewritten = 0     # GC write amplification
        self.tombstones_written = 0
        self.segments_created = 0
        self.segments_collected = 0
        self.corrupt_reads = 0
        self.recovered_records = 0
        self.torn_segments = 0
        if recover:
            self.recover()
        else:
            self._start_fresh()

    # ------------------------------------------------------------------
    # the request surface
    # ------------------------------------------------------------------
    def put(self, key: str, value: Optional[bytes], size: int, cost: Number,
            expire_at: float = 0.0, flags: int = 0) -> bool:
        """Append one demoted pair; True when it became disk-resident.

        ``size`` is the logical byte charge (the L1 item's size);
        ``expire_at`` is absolute on this tier's clock (0 = never).  An
        existing copy of the key is superseded in place (the old record
        becomes dead bytes for GC).  Items larger than the whole tier
        are rejected, mirroring the DRAM store's TOO_LARGE outcome.
        """
        if size > self._capacity:
            self.rejected_too_large += 1
            return False
        if expire_at and self._clock() >= expire_at:
            self.expired += 1
            return False
        body = _encode_value(key, value, size, cost, expire_at,
                             self._clock(), flags)
        # append before superseding: a failed append (disk full) must
        # leave any existing copy of the key live, not half-forgotten
        segment, offset = self._append(body, logical=size)
        existing = self._index.pop(key, None)
        if existing is not None:
            self._account_dead(key, existing)
        self._index[key] = _IndexEntry(segment.segment_id, offset, size,
                                       cost, expire_at, flags,
                                       value is not None)
        self._account_live(key, segment, size)
        self.bytes_written += size
        self._evict_to_capacity()
        return key in self._index

    def get(self, key: str) -> Optional[TierRecord]:
        """Read a live entry back (CRC re-verified); None on miss/expiry.

        A record that fails its checksum — bit rot since demotion — is
        dropped from the index and reported as a miss, never served.
        """
        entry = self._index.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.expire_at and self._clock() >= entry.expire_at:
            self._drop(key, entry)
            self.expired += 1
            self.misses += 1
            return None
        record = self._read_verified(key, entry)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_read += entry.size
        return TierRecord(key=key, value=record[1], size=entry.size,
                          cost=entry.cost, expire_at=entry.expire_at,
                          flags=entry.flags)

    def read_value(self, key: str) -> Optional[bytes]:
        """The payload alone, without hit/miss accounting — the Store's
        ``value_of`` fallback re-reading a record its lookup already
        counted.  None for misses and metadata-only records."""
        entry = self.peek(key)
        if entry is None or not entry.has_value:
            return None
        record = self._read_verified(key, entry)
        return None if record is None else record[1]

    def contains(self, key: str) -> bool:
        """Index membership (expiry-checked, no disk read)."""
        entry = self._index.get(key)
        if entry is None:
            return False
        if entry.expire_at and self._clock() >= entry.expire_at:
            self._drop(key, entry)
            self.expired += 1
            return False
        return True

    __contains__ = contains

    def delete(self, key: str, tombstone: bool = True) -> bool:
        """Remove a key; True when it was disk-resident.

        ``tombstone`` (the default) appends a durable marker so recovery
        cannot resurrect the removed copy — promotions and overwrites
        need this; a whole-segment eviction does not (its file is
        deleted).
        """
        entry = self._index.pop(key, None)
        if entry is None:
            return False
        self._account_dead(key, entry)
        if tombstone:
            self._write_tombstone(key)
        self._maybe_auto_gc()
        return True

    def _write_tombstone(self, key: str) -> None:
        self._append(_TOMBSTONE_KIND + key.encode("utf-8"), logical=0)
        self.tombstones_written += 1

    def peek(self, key: str) -> Optional[_IndexEntry]:
        """The live index entry (metadata only, no disk read, no
        counters); expired entries read as absent."""
        entry = self._index.get(key)
        if entry is None:
            return None
        if entry.expire_at and self._clock() >= entry.expire_at:
            return None
        return entry

    def touch(self, key: str, expire_at: float) -> bool:
        """Reset a live key's expiry (in-memory only — a crash reverts
        to the expiry recorded at demotion time); True when live."""
        entry = self._index.get(key)
        if entry is None:
            return False
        if entry.expire_at and self._clock() >= entry.expire_at:
            self._drop(key, entry)
            self.expired += 1
            return False
        entry.expire_at = expire_at
        return True

    # ------------------------------------------------------------------
    # space management
    # ------------------------------------------------------------------
    def _evict_to_capacity(self) -> None:
        """Reclaim at segment granularity until the tier fits its budget.

        Oldest segments die first (their live keys are evicted outright —
        victim-tier entries are cache copies, losing one is a future
        miss, not data loss).  When only the active segment exists its
        oldest keys are evicted individually instead, so a tier smaller
        than one segment still honours its budget; each gets a tombstone,
        since its record stays in a file that recovery scans.
        """
        while self._used > self._capacity:
            # segments enter the dict in id order: the first that is not
            # the active one is the oldest
            victim = next((segment for segment in self._segments.values()
                           if segment is not self._active), None)
            if victim is not None:
                self._evict_segment(victim)
                continue
            # only the active segment is left: evict its oldest keys
            # (file order) until the budget holds
            excess = self._used - self._capacity
            victims = []
            for key in self._active.keys:
                victims.append(key)
                excess -= self._index[key].size
                if excess <= 0:
                    break
            for key in victims:
                self._account_dead(key, self._index.pop(key))
                self.evictions += 1
                self._write_tombstone(key)
            return

    def _evict_segment(self, segment: _Segment) -> None:
        for key in segment.keys:
            self._used -= self._index.pop(key).size
            self.evictions += 1
        self._remove_segment_file(segment)

    def gc(self, min_dead_ratio: float = 0.5) -> int:
        """Compact sealed segments whose dead fraction exceeds
        ``min_dead_ratio``: live records are copied to the active
        segment (write amplification counted in ``bytes_rewritten``),
        then the file is deleted.  Returns segments collected."""
        collected = 0
        for segment in list(self._segments.values()):
            if segment is self._active or segment.written == 0:
                continue
            if segment.dead / segment.written < min_dead_ratio:
                continue
            self._compact_segment(segment)
            collected += 1
        return collected

    def _compact_segment(self, segment: _Segment) -> None:
        """Copy each live record's verified frame body, as read, to the
        active segment; nothing is decoded and encoded again."""
        # a copy: a record that fails its check leaves segment.keys
        for key in list(segment.keys):
            entry = self._index[key]
            record = self._read_verified(key, entry)
            if record is None:
                continue   # rotted since demotion: dropped, not rewritten
            new_segment, offset = self._append(record[0], logical=entry.size)
            del segment.keys[key]
            segment.live -= entry.size
            entry.segment_id = new_segment.segment_id
            entry.offset = offset
            new_segment.keys[key] = None
            new_segment.live += entry.size
            self.bytes_rewritten += entry.size
        self._remove_segment_file(segment)

    def _maybe_auto_gc(self) -> None:
        ratio = self._auto_gc_dead_ratio
        if ratio is None:
            return
        written = self._written
        if written and (written - self._used) / written >= ratio:
            self.gc(min_dead_ratio=min(ratio, 0.5))

    # ------------------------------------------------------------------
    # segment plumbing
    # ------------------------------------------------------------------
    def _path_for(self, segment_id: int) -> pathlib.Path:
        return self._directory / f"segment-{segment_id:06d}.seg"

    def _open_segment(self, segment_id: int) -> _Segment:
        path = self._path_for(segment_id)
        try:
            handle = fault_open(path, "ab")
            if handle.tell() == 0:
                write_magic(handle, SEGMENT_MAGIC)
                handle.flush()
        except OSError as exc:
            raise PersistenceError(
                f"cannot open segment {path}: {exc}") from exc
        segment = self._segments.get(segment_id)
        if segment is None:
            segment = _Segment(segment_id, path)
            self._segments[segment_id] = segment
            self.segments_created += 1
        self._active = segment
        self._active_handle = handle
        self._active_bytes = handle.tell()
        return segment

    def _start_fresh(self) -> None:
        existing = sorted(self._directory.glob(_SEGMENT_GLOB))
        next_id = 1
        if existing:
            next_id = 1 + max(int(path.stem.split("-")[1])
                              for path in existing)
        self._open_segment(next_id)

    def _append(self, body: bytes, logical: int):
        """Write one framed record to the active segment; returns
        ``(segment, offset)``.  Flushed immediately so a reader handle
        sees it (no fsync — the tier is a cache, not a system of
        record; a lost tail is a future miss)."""
        if self._active_handle is None:
            self._start_fresh()
        handle = self._active_handle
        segment = self._active
        offset = self._active_bytes
        data = frame_header(body) + body
        try:
            handle.write(data)
            handle.flush()
        except OSError as exc:
            # scrub any torn frame so the segment stays scannable and
            # the next append lands on a clean boundary; if even the
            # truncate fails, recovery's torn-tail rule takes over
            try:
                handle.truncate(offset)
                handle.seek(offset)   # realign tell() with the new EOF
                handle.flush()
            except OSError:
                pass
            raise PersistenceError(
                f"cannot append to {segment.path}: {exc}") from exc
        segment.written += logical
        segment.records += 1
        self._written += logical
        self._active_bytes = offset + len(data)
        if self._active_bytes >= self._segment_bytes:
            self._seal_active()
        return segment, offset

    def _seal_active(self) -> None:
        if self._active_handle is not None:
            try:
                self._active_handle.close()
            except OSError:
                pass
        next_id = (self._active.segment_id + 1
                   if self._active is not None else 1)
        self._active = None
        self._active_handle = None
        self._open_segment(next_id)

    def _remove_segment_file(self, segment: _Segment) -> None:
        handle = self._read_handles.pop(segment.segment_id, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        try:
            segment.path.unlink(missing_ok=True)
        except OSError:
            pass
        self._segments.pop(segment.segment_id, None)
        self._written -= segment.written
        self.segments_collected += 1

    def _read_handle(self, segment_id: int):
        handle = self._read_handles.get(segment_id)
        if handle is None:
            handle = open(self._path_for(segment_id), "rb")
            self._read_handles[segment_id] = handle
        return handle

    def _read_verified(self, key: str, entry: _IndexEntry
                       ) -> Optional[Tuple[bytes, Optional[bytes]]]:
        """Seek-and-verify one record: ``(frame body, payload)``.  A
        record whose CRC fails, which names another key, or which is a
        tombstone drops the index entry and reads as None (served data
        is only ever CRC-intact)."""
        try:
            handle = self._read_handle(entry.segment_id)
            handle.seek(entry.offset)
            body = read_frame(handle)
            record = _decode(body) if body is not None else None
        except (OSError, SnapshotCorruptError):
            record = None
        if record is None or record[0] or record[1] != key:
            self.corrupt_reads += 1
            self._drop(key, self._index.get(key))
            return None
        return body, record[2]

    def _drop(self, key: str, entry: Optional[_IndexEntry]) -> None:
        if self._index.pop(key, None) is not None and entry is not None:
            self._account_dead(key, entry)

    def _account_live(self, key: str, segment: _Segment, size: int) -> None:
        segment.keys[key] = None
        segment.live += size
        self._used += size

    def _account_dead(self, key: str, entry: _IndexEntry) -> None:
        self._used -= entry.size
        segment = self._segments.get(entry.segment_id)
        if segment is not None:
            segment.live -= entry.size
            segment.keys.pop(key, None)

    def clear(self) -> None:
        """Drop everything (``flush_all``): every segment file is deleted
        — including the active one, so a crash after a clear cannot
        resurrect flushed records — and a fresh segment is opened."""
        self._index.clear()
        self._used = 0
        next_id = (self._active.segment_id + 1
                   if self._active is not None else 1)
        if self._active_handle is not None:
            try:
                self._active_handle.close()
            except OSError:
                pass
            self._active_handle = None
        self._active = None
        for segment in list(self._segments.values()):
            segment.live = 0
            self._remove_segment_file(segment)
        self._open_segment(next_id)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Rebuild the index from healthy frames; returns records adopted.

        Segments are scanned oldest-first so later records supersede
        earlier ones and tombstones erase what they name.  Each scan
        stops at the first torn/corrupt frame (everything after it is
        unreachable, exactly like the AOL's torn-tail rule); the newest
        segment is truncated at its last healthy frame so appends
        continue on a clean boundary.  TTLs are rebased: the remaining
        life a record had *when written* is granted anew on this clock.
        """
        self._close_handles()
        self._index.clear()
        self._segments.clear()
        self._used = 0
        self._written = 0
        self._active = None
        now = self._clock()
        paths = sorted(self._directory.glob(_SEGMENT_GLOB))
        segment_ids: List[int] = []
        for path in paths:
            try:
                segment_ids.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        adopted = 0
        for position, segment_id in enumerate(sorted(segment_ids)):
            is_last = position == len(segment_ids) - 1
            adopted += self._recover_segment(segment_id, now,
                                             truncate=is_last)
        self.recovered_records += adopted
        max_file_id = max(segment_ids, default=0)
        if self._segments and max(self._segments) == max_file_id:
            # the newest file scanned clean (possibly truncated): append on
            self._open_segment(max_file_id)
            if self._active_bytes >= self._segment_bytes:
                self._seal_active()
        else:
            # newest file unreadable (wrong magic / unopenable) or no
            # files at all: never append into it — start a fresh segment
            self._open_segment(max_file_id + 1)
        self._evict_to_capacity()
        return adopted

    def _recover_segment(self, segment_id: int, now: float,
                         truncate: bool) -> int:
        path = self._path_for(segment_id)
        segment = _Segment(segment_id, path)
        # registered before the scan so same-segment supersedes and
        # tombstones hit this segment's live-byte accounting too
        self._segments[segment_id] = segment
        adopted = 0
        clean = True
        try:
            with open(path, "rb") as handle:
                read_magic(handle, SEGMENT_MAGIC)
                valid = handle.tell()
                while True:
                    offset = handle.tell()
                    try:
                        body = read_frame(handle)
                        if body is None:
                            break
                        (tombstone, key, payload, size, cost, expire_at,
                         written_at, flags) = _decode(body)
                    except SnapshotCorruptError:
                        clean = False
                        break
                    valid = handle.tell()
                    previous = self._index.pop(key, None)
                    if previous is not None:
                        self._account_dead(key, previous)
                    if tombstone:
                        continue
                    segment.written += size
                    segment.records += 1
                    self._written += size
                    if expire_at:
                        remaining = expire_at - written_at
                        if remaining <= 0:
                            continue
                        expire_at = now + remaining
                    self._index[key] = _IndexEntry(
                        segment_id, offset, size, cost, expire_at, flags,
                        payload is not None)
                    self._account_live(key, segment, size)
                    adopted += 1
        except (OSError, SnapshotCorruptError):
            # unreadable / wrong magic: nothing served from this file
            # (including records adopted before a mid-scan read error)
            self.torn_segments += 1
            for key in segment.keys:
                self._used -= self._index.pop(key).size
            self._written -= segment.written
            self._segments.pop(segment_id, None)
            return 0
        if not clean:
            self.torn_segments += 1
            if truncate:
                try:
                    with open(path, "rb+") as handle:
                        handle.truncate(valid)
                except OSError:
                    pass
        return adopted

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._close_handles()

    def _close_handles(self) -> None:
        if self._active_handle is not None:
            try:
                self._active_handle.close()
            except OSError:
                pass
            self._active_handle = None
        for handle in self._read_handles.values():
            try:
                handle.close()
            except OSError:
                pass
        self._read_handles.clear()

    def __enter__(self) -> "DiskTier":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    @property
    def directory(self) -> pathlib.Path:
        return self._directory

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    def keys(self):
        return self._index.keys()

    def segment_count(self) -> int:
        return len(self._segments)

    def stats(self) -> Dict[str, Number]:
        return {
            "tier_items": len(self._index),
            "tier_capacity": self._capacity,
            "tier_used_bytes": self._used,
            "tier_segments": len(self._segments),
            "tier_hits": self.hits,
            "tier_misses": self.misses,
            "tier_expired": self.expired,
            "tier_evictions": self.evictions,
            "tier_bytes_written": self.bytes_written,
            "tier_bytes_read": self.bytes_read,
            "tier_bytes_rewritten": self.bytes_rewritten,
            "tier_tombstones": self.tombstones_written,
            "tier_segments_created": self.segments_created,
            "tier_segments_collected": self.segments_collected,
            "tier_corrupt_reads": self.corrupt_reads,
            "tier_torn_segments": self.torn_segments,
        }

    def check_invariants(self) -> None:
        """Index, segment accounting, and byte totals agree (test hook):
        every running total is recomputed from scratch and compared."""
        if sum(entry.size for entry in self._index.values()) != self._used:
            raise ConfigurationError("tier byte accounting out of sync")
        if self._used > self._capacity:
            raise ConfigurationError("tier capacity exceeded")
        if sum(s.written for s in self._segments.values()) != self._written:
            raise ConfigurationError("tier written-byte total out of sync")
        if list(self._segments) != sorted(self._segments):
            raise ConfigurationError("tier segments out of id order")
        live_by_segment: Dict[int, int] = {}
        keys_by_segment: Dict[int, set] = {}
        for key, entry in self._index.items():
            live_by_segment[entry.segment_id] = \
                live_by_segment.get(entry.segment_id, 0) + entry.size
            keys_by_segment.setdefault(entry.segment_id, set()).add(key)
            if entry.segment_id not in self._segments:
                raise ConfigurationError(
                    "index references a collected segment")
        for segment_id, segment in self._segments.items():
            if live_by_segment.get(segment_id, 0) != segment.live:
                raise ConfigurationError(
                    f"segment {segment_id} live-byte accounting out of sync")
            if keys_by_segment.get(segment_id, set()) != set(segment.keys):
                raise ConfigurationError(
                    f"segment {segment_id} live-key set out of sync")
