"""The append-only operation log: post-snapshot mutations, framed.

Each record is one mutation — ``insert`` (which doubles as update: the
KVS replaces in place), ``delete``, or ``touch`` — packed in binary
behind the shared ``(length, crc32)`` frame of
:mod:`repro.persistence.format`.  A ``CAMPAOL2`` file is the magic and
then one framed record per mutation; a record body, little-endian, is::

    op u8 | [size i64 | cost i64 or f64] | [ttl f64] | key (UTF-8, the rest)

The op byte's low bits name the mutation (1 insert, 2 delete, 3 touch);
bit ``0x10`` marks an f64 cost (so an int cost replays as an int) and
bit ``0x20`` a ttl.  An insert of a 7-byte key with no ttl is 32 bytes
on disk, frame included.

Lookups/hits are deliberately *not* logged: logging the read path would
make the log grow with traffic instead of with churn, and replayed
inserts rebuild policy state well enough for a warm start (the snapshot,
not the log, carries the exact priority state; see DESIGN.md's
recovery-semantics table).

Expiry travels as *remaining TTL at append time* (``ttl`` seconds), so
replay on a different process's clock needs no rebasing.

``fsync`` policy trades durability for append latency:

* ``"always"`` — flush + fsync after every record (lose nothing),
* ``"batch"``  — fsync every ``fsync_every`` records (bounded loss),
* ``"never"``  — let the OS page cache decide (crash loses the tail).

A torn tail — the half-written record a crash under any policy can
leave — is normal, not fatal: :func:`read_log` stops at the first bad
frame, and :meth:`AppendOnlyLog.repair` truncates the file back to its
last valid record so appends can resume on a clean boundary.  A
format-1 (``CAMPAOL1``) log is refused by name and never truncated or
deleted.
"""

from __future__ import annotations

import os
import pathlib
import struct
from typing import List, Optional, Tuple, Union

from repro.faults.files import fault_open
from repro.persistence.format import (
    LOG_MAGIC,
    PersistenceError,
    SnapshotCorruptError,
    frame_header,
    read_magic,
    refuse_retired,
    scan_frames,
    write_magic,
)

__all__ = ["AppendOnlyLog", "read_log", "scan_log", "FSYNC_POLICIES"]

Number = Union[int, float]

FSYNC_POLICIES = ("always", "batch", "never")

_INSERT, _DELETE, _TOUCH = 1, 2, 3
_FLOAT_COST = 0x10
_HAS_TTL = 0x20

_INSERT_INT = struct.Struct("<Bqq")
_INSERT_FLOAT = struct.Struct("<Bqd")
_INSERT_INT_TTL = struct.Struct("<Bqqd")
_INSERT_FLOAT_TTL = struct.Struct("<Bqdd")
_OP_ONLY = struct.Struct("<B")
_OP_TTL = struct.Struct("<Bd")

#: op byte -> (operation name, body head layout)
_LAYOUTS = {
    _INSERT: ("insert", _INSERT_INT),
    _INSERT | _FLOAT_COST: ("insert", _INSERT_FLOAT),
    _INSERT | _HAS_TTL: ("insert", _INSERT_INT_TTL),
    _INSERT | _FLOAT_COST | _HAS_TTL: ("insert", _INSERT_FLOAT_TTL),
    _DELETE: ("delete", _OP_ONLY),
    _TOUCH: ("touch", _OP_ONLY),
    _TOUCH | _HAS_TTL: ("touch", _OP_TTL),
}

#: one decoded mutation: (operation, key, size, cost, ttl); the fields
#: an operation does not carry are None
Operation = Tuple[str, str, Optional[int], Optional[Number], Optional[float]]


def _decode(body: bytes) -> Operation:
    try:
        name, layout = _LAYOUTS[body[0]]
        fields = layout.unpack_from(body)
        key = body[layout.size:].decode("utf-8")
    except KeyError:
        raise SnapshotCorruptError(
            f"unknown log operation {body[0]:#04x}") from None
    except (struct.error, UnicodeDecodeError) as exc:
        raise SnapshotCorruptError(f"malformed log record: {exc}") from None
    if name == "insert":
        return name, key, fields[1], fields[2], \
            fields[3] if len(fields) > 3 else None
    return name, key, None, None, fields[1] if len(fields) > 1 else None


def scan_log(path: Union[str, os.PathLike]
             ) -> Tuple[List[Operation], bool, int]:
    """Best-effort read of a log file as decoded tuples.

    Returns ``(operations, clean, valid_bytes)``: every record up to the
    first torn/corrupt one, whether the tail was clean, and the file
    offset of the last valid record (the truncation point).  A missing
    file reads as an empty, clean log.  A record whose frame is intact
    but whose operation is unknown raises :class:`SnapshotCorruptError`;
    a format-1 log raises
    :class:`~repro.persistence.format.UnsupportedFormatError`.
    """
    file = pathlib.Path(path)
    if not file.exists():
        return [], True, 0
    with open(file, "rb") as handle:
        try:
            read_magic(handle, LOG_MAGIC)
        except SnapshotCorruptError:
            # not even a valid magic: nothing salvageable
            return [], False, 0
        bodies, clean, valid = scan_frames(handle)
    return [_decode(body) for body in bodies], clean, len(LOG_MAGIC) + valid


def read_log(path: Union[str, os.PathLike]
             ) -> Tuple[List[dict], bool, int]:
    """:func:`scan_log` with each operation as a dict —
    ``{"op", "k"}`` plus ``"s"``/``"c"`` for inserts and ``"ttl"`` when
    one was logged."""
    operations, clean, valid = scan_log(path)
    return [_as_dict(operation) for operation in operations], clean, valid


def _as_dict(operation: Operation) -> dict:
    name, key, size, cost, ttl = operation
    record: dict = {"op": name, "k": key}
    if name == "insert":
        record["s"] = size
        record["c"] = cost
    if ttl:
        record["ttl"] = ttl
    return record


class AppendOnlyLog:
    """Appendable mutation log with a configurable fsync policy."""

    def __init__(self, path: Union[str, os.PathLike],
                 fsync: str = "never", fsync_every: int = 64) -> None:
        if fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if fsync_every < 1:
            raise PersistenceError(
                f"fsync_every must be >= 1, got {fsync_every}")
        self._path = pathlib.Path(path)
        self._fsync = fsync
        self._fsync_every = fsync_every
        self._since_sync = 0
        self._records = 0
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            existing = self._path.stat().st_size if self._path.exists() else 0
            if existing:
                # never append format-2 records behind a format-1 magic
                refuse_retired(self._path)
            self._handle = fault_open(self._path, "ab")
        except OSError as exc:
            raise PersistenceError(
                f"cannot open operation log {self._path}: {exc}") from exc
        self._bytes = existing
        if existing == 0:
            write_magic(self._handle, LOG_MAGIC)
            self._handle.flush()
            self._bytes = len(LOG_MAGIC)

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append(self, body: bytes) -> None:
        """Frame ``body`` (one encoded record) and append it in a single
        write.  The append offset is the in-memory byte tally."""
        handle = self._handle
        if handle.closed:
            raise PersistenceError(f"log {self._path} is closed")
        data = frame_header(body) + body
        offset = self._bytes
        try:
            handle.write(data)
        except OSError as exc:
            # a failed write (disk full, IO error) may have landed a
            # torn frame; truncate back to the last clean boundary so
            # the *next* append is readable — recovery's torn-tail
            # repair covers the case where even the truncate fails
            try:
                handle.truncate(offset)
                handle.seek(offset)
                handle.flush()
            except OSError:
                pass
            raise PersistenceError(
                f"cannot append to {self._path}: {exc}") from exc
        self._bytes = offset + len(data)
        self._records += 1
        if self._fsync == "always":
            handle.flush()
            os.fsync(handle.fileno())
        elif self._fsync == "batch":
            self._since_sync += 1
            if self._since_sync >= self._fsync_every:
                handle.flush()
                os.fsync(handle.fileno())
                self._since_sync = 0

    def log_insert(self, key: str, size: int, cost: Number,
                   ttl: Optional[float] = None) -> None:
        """Record an insert/update; ``ttl`` is seconds-to-expiry *now*."""
        try:
            if isinstance(cost, float):
                head = (_INSERT_FLOAT_TTL.pack(
                    _INSERT | _FLOAT_COST | _HAS_TTL, size, cost, ttl)
                    if ttl else _INSERT_FLOAT.pack(
                        _INSERT | _FLOAT_COST, size, cost))
            else:
                head = (_INSERT_INT_TTL.pack(_INSERT | _HAS_TTL, size, cost,
                                             ttl)
                        if ttl else _INSERT_INT.pack(_INSERT, size, cost))
        except struct.error as exc:
            raise PersistenceError(
                f"cannot log insert of {key!r} (size {size!r}, cost "
                f"{cost!r}): {exc}; ints must fit in i64") from None
        self.append(head + key.encode("utf-8"))

    def log_delete(self, key: str) -> None:
        self.append(_OP_ONLY.pack(_DELETE) + key.encode("utf-8"))

    def log_touch(self, key: str, ttl: Optional[float] = None) -> None:
        head = (_OP_TTL.pack(_TOUCH | _HAS_TTL, ttl) if ttl
                else _OP_ONLY.pack(_TOUCH))
        self.append(head + key.encode("utf-8"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._since_sync = 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "AppendOnlyLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection / repair
    # ------------------------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        return self._path

    @property
    def records_appended(self) -> int:
        """Records appended through *this* handle (not the whole file)."""
        return self._records

    def size_bytes(self) -> int:
        """Bytes written through this handle plus what the file already
        held — an in-memory tally, no stat/flush on the hot path."""
        return self._bytes

    @staticmethod
    def repair(path: Union[str, os.PathLike]) -> Tuple[int, bool]:
        """Truncate a torn tail in place.

        Returns ``(valid_records, truncated)``.  Must be called on a
        log no open handle is appending to.  A format-1 log raises
        :class:`~repro.persistence.format.UnsupportedFormatError` and is
        left as it is.
        """
        operations, clean, valid_bytes = scan_log(path)
        if clean:
            return len(operations), False
        file = pathlib.Path(path)
        if valid_bytes == 0 and file.exists():
            # unreadable magic: start the file over
            file.unlink()
            return 0, True
        with open(file, "rb+") as handle:
            handle.truncate(valid_bytes)
        return len(operations), True
