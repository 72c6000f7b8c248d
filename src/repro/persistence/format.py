"""The framed-record layer under every durable file in the repo.

Every file is a fixed 8-byte magic followed by *framed records*:

    +----------------+----------------+------------------+
    | length  (u32)  | crc32   (u32)  | body (length B)  |
    +----------------+----------------+------------------+

little-endian, with the CRC taken over the body alone.  Framing makes
corruption *detectable* per record — a torn tail, a flipped bit, or a
short write all surface as a :class:`SnapshotCorruptError` at the exact
byte offset, which is what lets recovery truncate-at-first-bad-record
instead of giving up.

Two kinds of body ride in frames:

* **binary** (:func:`write_frame` / :func:`read_frame`) — the durable
  store's snapshot (``CAMPSNP2``, :mod:`repro.persistence.snapshot`)
  and operation log (``CAMPAOL2``, :mod:`repro.persistence.aol`) and
  the disk tier's segments (``CAMPSEG2``, :mod:`repro.tiering.disk_tier`)
  pack their records with :mod:`struct`; ``repro.cli persist inspect``
  reads the durable store's files back;
* **JSON** (:func:`write_record` / :func:`read_record`) — compact,
  sorted-key JSON with base64 payloads, kept byte for byte by the
  cluster's hint logs and the twemcache engine's snapshot file.

The durable store's format-1 files (``CAMPSNP1``/``CAMPAOL1``, JSON
bodies) are recognised by name and refused with
:class:`UnsupportedFormatError`: no reader for them is kept, and nothing
here ever deletes or overwrites one.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import pathlib
import struct
import zlib
from contextlib import contextmanager
from typing import IO, Callable, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.faults.files import fault_open

__all__ = ["PersistenceError", "SnapshotCorruptError",
           "UnsupportedFormatError", "SNAPSHOT_MAGIC", "LOG_MAGIC",
           "RETIRED_MAGICS", "write_magic", "read_magic", "refuse_retired",
           "frame_header", "write_frame", "read_frame", "scan_frames",
           "write_record", "read_record", "iter_records", "scan_records",
           "encode_payload", "decode_payload", "atomic_write", "gc_paused"]

#: the durable store's files' first 8 bytes: format family + version
SNAPSHOT_MAGIC = b"CAMPSNP2"
LOG_MAGIC = b"CAMPAOL2"

#: magics of formats no reader is kept for, and what they name.
#: ``CAMPSNP1`` is also the twemcache engine's own snapshot magic, so a
#: state directory holding one is refused the same way.
RETIRED_MAGICS = {
    b"CAMPSNP1": "a format-1 snapshot (CAMPSNP1)",
    b"CAMPAOL1": "a format-1 operation log (CAMPAOL1)",
}

_FRAME = struct.Struct("<II")

#: refuse absurd frames instead of attempting a multi-GB read when the
#: length word itself is corrupt
MAX_RECORD_BYTES = 1 << 28


class PersistenceError(ReproError):
    """A durable-state operation failed."""


class SnapshotCorruptError(PersistenceError):
    """A snapshot or log record failed its checksum / framing checks."""


class UnsupportedFormatError(PersistenceError):
    """A durable file is intact but in a format this version does not
    read (a retired magic).  Recovery refuses it instead of treating it
    as corruption, so the file is never pruned or overwritten."""


def write_magic(handle: IO[bytes], magic: bytes) -> None:
    handle.write(magic)


def read_magic(handle: IO[bytes], expected: bytes) -> None:
    magic = handle.read(len(expected))
    if magic != expected:
        retired = RETIRED_MAGICS.get(magic)
        if retired is not None:
            raise UnsupportedFormatError(
                f"{getattr(handle, 'name', 'file')} is {retired}; this "
                f"version reads {expected.decode('ascii')} only")
        raise SnapshotCorruptError(
            f"bad magic: expected {expected!r}, found {magic!r}")


def refuse_retired(path: Union[str, os.PathLike]) -> None:
    """Raise :class:`UnsupportedFormatError` when ``path`` starts with a
    retired magic; any other content (or no file) passes."""
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(SNAPSHOT_MAGIC))
    except FileNotFoundError:
        return
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    retired = RETIRED_MAGICS.get(magic)
    if retired is not None:
        raise UnsupportedFormatError(
            f"{path} is {retired}; this version reads "
            f"{SNAPSHOT_MAGIC.decode('ascii')}/{LOG_MAGIC.decode('ascii')} "
            f"only, and leaves the file as it is")


def frame_header(body: Union[bytes, bytearray]) -> bytes:
    """The ``(length, crc32)`` frame that goes in front of ``body``."""
    if not body or len(body) > MAX_RECORD_BYTES:
        raise PersistenceError(
            f"cannot frame a record of {len(body)} bytes "
            f"(1 to {MAX_RECORD_BYTES})")
    return _FRAME.pack(len(body), zlib.crc32(body))


def write_frame(handle: IO[bytes], body: Union[bytes, bytearray]) -> int:
    """Frame and write one binary body; returns the bytes written."""
    handle.write(frame_header(body))
    handle.write(body)
    return _FRAME.size + len(body)


def write_record(handle: IO[bytes], body: dict) -> int:
    """Frame and write one JSON body; returns the bytes written."""
    return write_frame(handle, json.dumps(
        body, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def read_record(handle: IO[bytes]) -> Optional[dict]:
    """Read one framed JSON record; None at clean EOF.

    Raises :class:`SnapshotCorruptError` on a torn or corrupt frame.
    """
    data = read_frame(handle)
    if data is None:
        return None
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotCorruptError(f"record body is not JSON: {exc}") from None


def read_frame(handle: IO[bytes]) -> Optional[bytes]:
    """Read one framed body, checksum verified; None at clean EOF.

    Raises :class:`SnapshotCorruptError` on a torn or corrupt frame.
    """
    header = handle.read(_FRAME.size)
    if not header:
        return None
    if len(header) < _FRAME.size:
        raise SnapshotCorruptError("torn record header at end of file")
    length, crc = _FRAME.unpack(header)
    if length > MAX_RECORD_BYTES:
        raise SnapshotCorruptError(f"implausible record length {length}")
    if not length:
        # no writer frames an empty body: this is a zero-filled tail
        raise SnapshotCorruptError("empty record frame")
    data = handle.read(length)
    if len(data) < length:
        raise SnapshotCorruptError("torn record body at end of file")
    if zlib.crc32(data) != crc:
        raise SnapshotCorruptError("record checksum mismatch")
    return data


def iter_records(handle: IO[bytes]) -> Iterator[dict]:
    """Yield records until clean EOF; corruption raises."""
    while True:
        record = read_record(handle)
        if record is None:
            return
        yield record


def scan_frames(handle: IO[bytes]) -> Tuple[List[bytes], bool, int]:
    """Read as many valid frames as possible.

    Returns ``(bodies, clean, valid_bytes)`` where ``clean`` is False
    when the scan stopped at a torn/corrupt frame and ``valid_bytes``
    is the offset (from the handle's starting position) just past the
    last valid frame — the truncation point for torn-tail repair.
    """
    bodies: List[bytes] = []
    valid = 0
    while True:
        try:
            body = read_frame(handle)
        except SnapshotCorruptError:
            return bodies, False, valid
        if body is None:
            return bodies, True, valid
        bodies.append(body)
        valid += _FRAME.size + len(body)


def scan_records(handle: IO[bytes]) -> Tuple[List[dict], bool, int]:
    """Read as many valid records as possible.

    Returns ``(records, clean, valid_bytes)`` where ``clean`` is False
    when the scan stopped at a torn/corrupt record and ``valid_bytes``
    is the offset (from the handle's starting position) of the last
    fully-valid record — the truncation point for torn-tail repair.
    """
    records: List[dict] = []
    start = handle.tell()
    valid = start
    while True:
        try:
            record = read_record(handle)
        except SnapshotCorruptError:
            return records, False, valid - start
        if record is None:
            return records, True, valid - start
        records.append(record)
        valid = handle.tell()


def atomic_write(path: Union[str, os.PathLike],
                 writer: Callable[[IO[bytes]], None]) -> int:
    """Crash-ordered publish: write via ``writer`` to a temp name, fsync,
    then ``os.replace`` onto ``path``.

    A crash at any point leaves the previous file untouched and at worst
    a ``*.tmp`` orphan, never a half-written file under the real name.
    Returns the published file's size in bytes.
    """
    final = pathlib.Path(path)
    temp = final.with_name(final.name + ".tmp")
    try:
        with fault_open(temp, "wb") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
    except OSError as exc:
        temp.unlink(missing_ok=True)
        raise PersistenceError(f"cannot write {final}: {exc}") from exc
    except BaseException:
        # the writer refused its input: leave no orphan behind
        temp.unlink(missing_ok=True)
        raise
    return final.stat().st_size


@contextmanager
def gc_paused(promote: bool = False) -> Iterator[None]:
    """Run the block with the cyclic garbage collector paused.

    Bulk snapshot and recovery passes allocate one small object per
    resident pair; each allocation burst would otherwise trigger
    collections that traverse every tracked object in the process.  The
    caller's GC state is restored on exit, error or not — a caller that
    had the collector disabled keeps it disabled.

    ``promote`` (for a pass that builds long-lived state, like recovery)
    moves every object alive at exit into the oldest generation
    (``gc.freeze()`` then ``gc.unfreeze()``), where objects that survive
    two young collections end up anyway: the restored table is not
    traversed by those two collections first.  It is skipped when the
    process keeps objects frozen itself, so its frozen set stays as it
    is.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if promote and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def encode_payload(value: bytes) -> str:
    """Binary payload -> JSON-safe base64 text."""
    return base64.b64encode(value).decode("ascii")


def decode_payload(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise SnapshotCorruptError(f"bad payload encoding: {exc}") from None
