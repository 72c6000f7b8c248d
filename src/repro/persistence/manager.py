"""Wiring durable state to a live store: log every mutation, snapshot on
demand, compact when the log outgrows the snapshot.

:class:`PersistenceManager` subscribes to the KVS listener stream —
inserts and explicit removals (deletes, TTL reclaims, overwrites) append
to the current generation's operation log; *capacity* evictions are not
logged because replaying the inserts re-derives them through the
restored policy.  ``snapshot()`` writes the next generation atomically,
rotates the log to a fresh file, and prunes stale generations with their
logs.  With ``compact_ratio`` set, a snapshot is triggered automatically
once ``log bytes > ratio × last snapshot bytes`` — the classic
Redis-style AOF rewrite condition, with the snapshot itself acting as
the compacted log.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Union

from repro.cache.kvs import KVS
from repro.core.policy import CacheItem
from repro.persistence.aol import FSYNC_POLICIES, AppendOnlyLog
from repro.persistence.format import PersistenceError, refuse_retired
from repro.persistence.recovery import RecoveryManager, log_path_for
from repro.persistence.snapshot import Snapshotter

__all__ = ["PersistenceConfig", "PersistenceManager"]

Number = Union[int, float]


@dataclass(frozen=True)
class PersistenceConfig:
    """Durability knobs, bundled so every layer shares one vocabulary.

    ``compact_ratio`` of ``None`` disables automatic compaction;
    ``snapshot_payloads`` controls whether value bytes (when the owner
    has them) ride along in snapshots.
    """

    directory: Union[str, os.PathLike]
    fsync: str = "never"
    fsync_every: int = 64
    compact_ratio: Optional[float] = 4.0
    keep_generations: int = 2
    snapshot_payloads: bool = True

    def validate(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}")
        if self.compact_ratio is not None and self.compact_ratio <= 0:
            raise PersistenceError(
                f"compact_ratio must be > 0 or None, got {self.compact_ratio}")
        if self.keep_generations < 1:
            raise PersistenceError(
                f"keep_generations must be >= 1, got {self.keep_generations}")


class _OpLogger:
    """KVS listener translating residency changes into log records."""

    def __init__(self, manager: "PersistenceManager") -> None:
        self._manager = manager

    def on_insert(self, item: CacheItem) -> None:
        self._manager._record_insert(item)

    def on_evict(self, item: CacheItem, explicit: bool) -> None:
        # capacity evictions (explicit=False) are replay-derived, not
        # logged; explicit removals (delete / expiry / overwrite) are
        if explicit:
            self._manager._record_delete(item.key)

    def on_touch(self, item: CacheItem) -> None:
        self._manager._record_touch(item)


class PersistenceManager:
    """Owns a state directory on behalf of one KVS."""

    def __init__(self, kvs: KVS, config: PersistenceConfig,
                 payload_source: Optional[
                     Callable[[], Mapping[str, bytes]]] = None,
                 synced_generation: Optional[int] = None) -> None:
        """``payload_source`` (optional) returns key -> value bytes at
        snapshot time — the Store facade passes its memoized values so
        snapshots carry payloads, not just metadata.

        ``synced_generation`` names the on-disk generation the live
        ``kvs`` state corresponds to (the RecoveryReport's generation
        after a warm start; 0 for a deliberately cold store).  When it
        differs from the newest generation on disk — recovery fell back
        past a corrupt snapshot, or recovery was skipped — appending to
        the newest generation's log would record mutations no future
        recovery pairs with the right base state, so a fresh snapshot of
        the live state is written immediately instead.  ``None`` (the
        default) trusts the caller to be in sync with the newest
        generation.

        A directory holding format-1 state raises
        :class:`~repro.persistence.format.UnsupportedFormatError` before
        any file is opened, so no snapshot or prune replaces it.
        """
        config.validate()
        directory = pathlib.Path(config.directory)
        for entry in (*directory.glob("snapshot-*.snap"),
                      *directory.glob("aol-*.log")):
            refuse_retired(entry)
        self._kvs = kvs
        self._config = config
        self._payload_source = payload_source
        self._snapshotter = Snapshotter(config.directory,
                                        keep_generations=config.keep_generations)
        self._generation = self._snapshotter.latest_generation()
        self._log = self._open_log(self._generation)
        self._last_snapshot_bytes = self._snapshot_size(self._generation)
        self._logging_enabled = True
        self._snapshots_taken = 0
        self._auto_compactions = 0
        if synced_generation is not None \
                and synced_generation != self._generation:
            self.snapshot()
        kvs.add_listener(_OpLogger(self))

    def _open_log(self, generation: int) -> AppendOnlyLog:
        return AppendOnlyLog(
            log_path_for(self._config.directory, generation),
            fsync=self._config.fsync,
            fsync_every=self._config.fsync_every)

    def _snapshot_size(self, generation: int) -> int:
        if generation == 0:
            return 0
        path = self._snapshotter.path_for(generation)
        return path.stat().st_size if path.exists() else 0

    # ------------------------------------------------------------------
    # the listener-facing append path
    # ------------------------------------------------------------------
    def _record_insert(self, item: CacheItem) -> None:
        if not self._logging_enabled:
            return
        ttl: Optional[float] = None
        if item.expire_at:
            ttl = max(item.expire_at - self._kvs.clock(), 0.0) or None
        self._log.log_insert(item.key, item.size, item.cost, ttl=ttl)
        self._maybe_compact()

    def _record_delete(self, key: str) -> None:
        if not self._logging_enabled:
            return
        self._log.log_delete(key)
        self._maybe_compact()

    def _record_touch(self, item: CacheItem) -> None:
        if not self._logging_enabled:
            return
        ttl: Optional[float] = None
        if item.expire_at:
            ttl = max(item.expire_at - self._kvs.clock(), 0.0) or None
        self._log.log_touch(item.key, ttl=ttl)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        ratio = self._config.compact_ratio
        if ratio is None:
            return
        floor = max(self._last_snapshot_bytes, 1 << 12)
        if self._log.size_bytes() > ratio * floor:
            self._auto_compactions += 1
            self.snapshot()

    # ------------------------------------------------------------------
    # snapshots / compaction
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Write the next generation and rotate the log; returns the new
        generation number.  The old generation's log is superseded (and
        pruned with its snapshot), so this *is* log compaction."""
        payloads = None
        if self._config.snapshot_payloads and self._payload_source is not None:
            payloads = self._payload_source()
        self._logging_enabled = False
        try:
            generation = self._snapshotter.save(self._kvs, payloads=payloads)
            self._log.close()
            self._prune_logs(keep_from=generation)
            self._generation = generation
            self._log = self._open_log(generation)
            self._last_snapshot_bytes = self._snapshot_size(generation)
            self._snapshots_taken += 1
        finally:
            self._logging_enabled = True
        return generation

    def _prune_logs(self, keep_from: int) -> None:
        """Drop logs whose snapshot generation was pruned.

        The newest snapshot's predecessor logs are dead weight: recovery
        always pairs snapshot N with log N."""
        kept = set(self._snapshotter.generations())
        directory = self._snapshotter.directory
        for entry in directory.glob("aol-*.log"):
            try:
                generation = int(entry.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            if generation != keep_from and generation not in kept:
                entry.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._log.close()

    def flush(self) -> None:
        self._log.flush()

    @property
    def directory(self):
        return self._snapshotter.directory

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def log(self) -> AppendOnlyLog:
        return self._log

    def recovery_manager(self) -> RecoveryManager:
        return RecoveryManager(self._config.directory)

    def stats(self) -> Dict[str, Number]:
        return {
            "generation": self._generation,
            "snapshots_taken": self._snapshots_taken,
            "auto_compactions": self._auto_compactions,
            "log_bytes": self._log.size_bytes(),
            "log_records": self._log.records_appended,
            "snapshot_bytes": self._last_snapshot_bytes,
        }
