"""Recovery: newest healthy snapshot + operation-log replay.

The directory layout (written by :class:`~repro.persistence.manager.
PersistenceManager`) pairs each snapshot generation with the log of
mutations that followed it::

    state/
      snapshot-000007.snap     # older fallback
      snapshot-000008.snap     # newest generation
      aol-000007.log           # mutations after gen 7 (pre-gen-8 history)
      aol-000008.log           # mutations after gen 8  <- replayed

Recovery walks generations newest-first until one snapshot loads
cleanly (checksums, counts, footer), restores it into the store, then
replays that generation's log, truncating a torn tail first.  Replayed
inserts go through the normal :meth:`KVS.insert` path, so capacity
evictions re-run under the restored policy state; the result is a
*warm* cache — exact at the snapshot point, best-effort for the logged
suffix (hits between snapshot and crash were not logged, so post-
snapshot recency is approximated by the mutation order).

A format-1 file (``CAMPSNP1``/``CAMPAOL1``) is refused with
:class:`~repro.persistence.format.UnsupportedFormatError` naming the
file and its format; it is never treated as corrupt, so no fallback,
truncation or re-snapshot touches it.  The bulk restore runs with the
cyclic GC paused (:func:`~repro.persistence.format.gc_paused`).
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.cache.kvs import KVS
from repro.core import make_policy
from repro.persistence.aol import AppendOnlyLog, scan_log
from repro.persistence.format import (
    PersistenceError,
    SnapshotCorruptError,
    UnsupportedFormatError,
    gc_paused,
)
from repro.persistence.snapshot import (
    SnapshotData,
    SnapshotReader,
    Snapshotter,
    load_snapshot,
    snapshot_generations,
)

__all__ = ["RecoveryReport", "RecoveryManager", "log_path_for"]

T = TypeVar("T")


def log_path_for(directory: Union[str, os.PathLike],
                 generation: int) -> pathlib.Path:
    """The operation log holding mutations after ``generation``."""
    return pathlib.Path(directory) / f"aol-{generation:06d}.log"


@dataclass
class RecoveryReport:
    """What a recovery pass found and did."""

    generation: int = 0
    snapshot_path: Optional[str] = None
    items_restored: int = 0
    evicted_on_restore: int = 0
    log_records_replayed: int = 0
    torn_tail_truncated: bool = False
    corrupt_generations: List[int] = field(default_factory=list)
    payloads: Dict[str, bytes] = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        """True when any snapshot generation was restored."""
        return self.snapshot_path is not None

    def summary(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "items_restored": self.items_restored,
            "evicted_on_restore": self.evicted_on_restore,
            "log_records_replayed": self.log_records_replayed,
            "torn_tail_truncated": self.torn_tail_truncated,
            "corrupt_generations": list(self.corrupt_generations),
        }


class RecoveryManager:
    """Restores a state directory into a store."""

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self._dir = pathlib.Path(directory)

    @property
    def directory(self) -> pathlib.Path:
        return self._dir

    # ------------------------------------------------------------------
    # snapshot selection
    # ------------------------------------------------------------------
    def _newest(self, attempt: Callable[[pathlib.Path], T]
                ) -> Tuple[Optional[T], Optional[pathlib.Path], List[int]]:
        """``attempt`` on each snapshot, newest first, until one does not
        raise :class:`PersistenceError`: its result, its path, and the
        corrupt generations skipped on the way down.  A format-1 file
        stops the walk."""
        corrupt: List[int] = []
        snapshotter = Snapshotter(self._dir)
        for generation in reversed(snapshot_generations(self._dir)):
            path = snapshotter.path_for(generation)
            try:
                return attempt(path), path, corrupt
            except UnsupportedFormatError:
                raise
            except PersistenceError:
                corrupt.append(generation)
        return None, None, corrupt

    def load_latest_snapshot(self, now: Optional[float] = None
                             ) -> Tuple[Optional[SnapshotData],
                                        Optional[pathlib.Path], List[int]]:
        """Newest loadable snapshot decoded into memory, its path, and the
        corrupt generations skipped on the way down."""
        return self._newest(lambda path: load_snapshot(path, now=now))

    # ------------------------------------------------------------------
    # full recovery
    # ------------------------------------------------------------------
    def recover_into(self, kvs: KVS, repair_log: bool = True,
                     preloaded: Optional[Tuple[Optional[SnapshotData],
                                               Optional[pathlib.Path],
                                               List[int]]] = None
                     ) -> RecoveryReport:
        """Restore the newest healthy generation into an empty ``kvs``
        and replay its operation log.

        Each snapshot is decoded in one pass straight into ``kvs`` and
        its policy (:class:`~repro.persistence.snapshot.SnapshotReader`
        feeding :meth:`KVS.restore`); a corrupt one is rolled back out of
        the store and the next older generation is tried.
        ``repair_log`` truncates a torn log tail in place (required
        before a :class:`~repro.persistence.manager.PersistenceManager`
        resumes appending to the same file).  Item payload bytes found
        in the snapshot are returned on the report for the caller (the
        Store facade re-memoizes them).  ``preloaded`` restores an
        earlier :meth:`load_latest_snapshot` result instead of reading
        the directory (callers that inspect the header first — the
        tenancy manager adopting saved allocations — avoid decoding the
        file twice).  A format-1 snapshot or log on the recovery path
        raises :class:`~repro.persistence.format.UnsupportedFormatError`
        and is left byte for byte as it was.
        """
        report = RecoveryReport()
        with gc_paused(promote=True):
            if preloaded is not None:
                data, path, corrupt = preloaded
                restored = None if data is None else (
                    data, kvs.restore(data.items, data.policy_state))
            else:
                now = kvs.clock()

                def install(path: pathlib.Path):
                    with SnapshotReader(path, now=now) as reader:
                        return reader, kvs.restore(reader.expiries,
                                                   reader.policy_state)

                restored, path, corrupt = self._newest(install)
            report.corrupt_generations = corrupt
            if restored is not None:
                snapshot, evicted = restored
                report.generation = snapshot.generation
                report.snapshot_path = str(path)
                report.items_restored = snapshot.item_count - len(evicted)
                report.evicted_on_restore = len(evicted)
                report.payloads = {
                    key: value for key, value in snapshot.payloads.items()
                    if key in kvs}
            self._replay_log(kvs, report, repair_log=repair_log)
        return report

    def _replay_log(self, kvs: KVS, report: RecoveryReport,
                    repair_log: bool) -> None:
        path = log_path_for(self._dir, report.generation)
        try:
            operations, clean, _valid = scan_log(path)
        except SnapshotCorruptError as exc:
            raise SnapshotCorruptError(f"{path}: {exc}") from None
        if not clean and repair_log:
            AppendOnlyLog.repair(path)
            report.torn_tail_truncated = True
        overhead = kvs.item_overhead
        for op, key, size, cost, ttl in operations:
            if op == "insert":
                # the log records charged sizes; KVS.insert re-charges
                kvs.insert(key, size - overhead, cost, ttl=ttl)
            elif op == "delete":
                kvs.delete(key)
            else:
                kvs.touch(key, ttl)
            report.log_records_replayed += 1

    # ------------------------------------------------------------------
    # standalone recovery (CLI: no pre-built store)
    # ------------------------------------------------------------------
    def recover(self, repair_log: bool = True) -> Tuple[KVS, RecoveryReport]:
        """Rebuild a store purely from the directory.

        The snapshot header carries capacity, item overhead and the
        policy state (whose ``"policy"`` entry is a registry name), so
        no caller-side configuration is needed.  Raises when no healthy
        snapshot exists.  A torn log tail is truncated in place unless
        ``repair_log`` is False (pass False for a strictly read-only
        inspection of the directory).
        """
        # one parse only: rebase expiry onto the monotonic clock the new
        # KVS will run on, then feed the loaded data to recover_into
        preloaded = self.load_latest_snapshot(now=time.monotonic())
        data, _path, corrupt = preloaded
        if data is None:
            raise PersistenceError(
                f"no loadable snapshot in {self._dir} "
                f"(corrupt generations: {corrupt or 'none'})")
        policy_name = str(data.policy_state.get("policy"))
        policy = make_policy(policy_name, data.capacity)
        kvs = KVS(data.capacity, policy, item_overhead=data.item_overhead)
        report = self.recover_into(kvs, repair_log=repair_log,
                                   preloaded=preloaded)
        return kvs, report
