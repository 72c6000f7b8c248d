"""Durable cache state: snapshots, an append-only operation log, and
CAMP-priority-preserving recovery.

The paper closes on hierarchical caches that "may persist costly data
items"; this package makes the reproduction's stores restartable without
re-paying the working set's ``cost(p)``:

* :mod:`~repro.persistence.format` — framed, CRC-checksummed records,
  the retired format-1 magics, and the GC pause of the bulk passes,
* :mod:`~repro.persistence.snapshot` — atomic generational ``CAMPSNP2``
  snapshots carrying each resident pair once, as one binary record
  joining its item fields with the eviction policy's per-key state
  (CAMP queues, rounded priorities) beside the policy's scalars (the
  global L clock),
* :mod:`~repro.persistence.aol` — the post-snapshot ``CAMPAOL2``
  mutation log, one binary record per mutation, with configurable fsync
  policy and torn-tail repair,
* :mod:`~repro.persistence.recovery` — newest-healthy-generation
  restore plus log replay,
* :mod:`~repro.persistence.manager` — live-store wiring: listener-driven
  logging and ratio-triggered compaction.

Most callers reach this through ``StoreConfig.persistence(...)``, the
engine's ``save``/``load``, ``TenantManager.save_all``, or the
``repro.cli persist`` subcommand.
"""

from repro.persistence.aol import FSYNC_POLICIES, AppendOnlyLog, read_log
from repro.persistence.format import (
    LOG_MAGIC,
    SNAPSHOT_MAGIC,
    PersistenceError,
    SnapshotCorruptError,
    UnsupportedFormatError,
    gc_paused,
)
from repro.persistence.manager import PersistenceConfig, PersistenceManager
from repro.persistence.recovery import (
    RecoveryManager,
    RecoveryReport,
    log_path_for,
)
from repro.persistence.snapshot import (
    SnapshotData,
    SnapshotReader,
    Snapshotter,
    load_snapshot,
    restore_snapshot,
    save_snapshot,
    snapshot_generations,
)

__all__ = [
    "PersistenceError",
    "SnapshotCorruptError",
    "UnsupportedFormatError",
    "gc_paused",
    "SNAPSHOT_MAGIC",
    "LOG_MAGIC",
    "AppendOnlyLog",
    "read_log",
    "FSYNC_POLICIES",
    "SnapshotData",
    "SnapshotReader",
    "Snapshotter",
    "save_snapshot",
    "load_snapshot",
    "restore_snapshot",
    "snapshot_generations",
    "RecoveryManager",
    "RecoveryReport",
    "log_path_for",
    "PersistenceConfig",
    "PersistenceManager",
]
