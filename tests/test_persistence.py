"""The durable-state subsystem: format, log, snapshots, recovery, wiring.

The property at the heart of the subsystem — a restored cache evicts
*identically* to one that never restarted — is exercised here per layer
(policy export/import round trips) and end-to-end
(``TestRestartEquivalence``: snapshot → restore → continue the trace,
compared decision-for-decision against an uninterrupted control on
seeded ≥10k-request workloads).
"""

import gc
import io
import random
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import KVS
from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.core import CampPolicy, make_policy
from repro.core.concurrent import ThreadSafePolicy
from repro.core.lru import LruPolicy
from repro.errors import ConfigurationError
from repro.faults import Fault, FaultPlan, inject
from repro.persistence import (
    AppendOnlyLog,
    PersistenceConfig,
    PersistenceError,
    PersistenceManager,
    RecoveryManager,
    SnapshotCorruptError,
    Snapshotter,
    SnapshotThread,
    UnsupportedFormatError,
    gc_paused,
    load_snapshot,
    log_path_for,
    read_log,
    save_snapshot,
    snapshot_generations,
)
from repro.persistence.format import (
    LOG_MAGIC,
    MAX_RECORD_BYTES,
    SNAPSHOT_MAGIC,
    iter_records,
    read_magic,
    read_record,
    scan_records,
    write_magic,
    write_record,
)
from repro.workloads import three_cost_trace, variable_size_constant_cost_trace


def build_kvs(policy="camp", capacity=10_000, clock=None, overhead=0):
    return KVS(capacity, make_policy(policy, capacity),
               item_overhead=overhead, clock=clock)


class ManualClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class EvictionRecorder:
    """KVS listener capturing the eviction sequence once armed."""

    def __init__(self):
        self.events = []
        self.armed = False

    def on_insert(self, item):
        pass

    def on_evict(self, item, explicit):
        if self.armed:
            self.events.append((item.key, explicit))


# ---------------------------------------------------------------------------
# framed record format
# ---------------------------------------------------------------------------
class TestRecordFormat:
    def test_round_trip(self):
        buffer = io.BytesIO()
        write_magic(buffer, LOG_MAGIC)
        write_record(buffer, {"op": "insert", "k": "a"})
        write_record(buffer, {"op": "delete", "k": "b"})
        buffer.seek(0)
        read_magic(buffer, LOG_MAGIC)
        assert list(iter_records(buffer)) == [
            {"op": "insert", "k": "a"}, {"op": "delete", "k": "b"}]

    def test_bad_magic(self):
        buffer = io.BytesIO(b"NOTMAGIC")
        with pytest.raises(SnapshotCorruptError):
            read_magic(buffer, LOG_MAGIC)

    def test_flipped_bit_fails_checksum(self):
        buffer = io.BytesIO()
        write_record(buffer, {"k": "victim"})
        raw = bytearray(buffer.getvalue())
        raw[-1] ^= 0x40
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            read_record(io.BytesIO(bytes(raw)))

    def test_torn_header_and_body(self):
        buffer = io.BytesIO()
        write_record(buffer, {"k": "a"})
        raw = buffer.getvalue()
        with pytest.raises(SnapshotCorruptError, match="header"):
            read_record(io.BytesIO(raw[:4]))
        with pytest.raises(SnapshotCorruptError, match="body"):
            read_record(io.BytesIO(raw[:-3]))

    def test_implausible_length_refused(self):
        import struct
        frame = struct.pack("<II", 1 << 30, 0)
        with pytest.raises(SnapshotCorruptError, match="implausible"):
            read_record(io.BytesIO(frame + b"x" * 64))

    def test_scan_reports_truncation_point(self):
        buffer = io.BytesIO()
        first = write_record(buffer, {"k": "a"})
        second = write_record(buffer, {"k": "b"})
        buffer.write(b"\x99\x01")   # torn third record
        buffer.seek(0)
        records, clean, valid = scan_records(buffer)
        assert [r["k"] for r in records] == ["a", "b"]
        assert not clean
        assert valid == first + second


# ---------------------------------------------------------------------------
# the append-only log
# ---------------------------------------------------------------------------
class TestAppendOnlyLog:
    def test_append_and_read_back(self, tmp_path):
        path = tmp_path / "ops.log"
        with AppendOnlyLog(path) as log:
            log.log_insert("a", 10, 5, ttl=3.0)
            log.log_delete("a")
            log.log_touch("b", ttl=1.0)
            assert log.records_appended == 3
        operations, clean, _ = read_log(path)
        assert clean
        assert [op["op"] for op in operations] == ["insert", "delete", "touch"]
        assert operations[0] == {"op": "insert", "k": "a", "s": 10,
                                 "c": 5, "ttl": 3.0}

    def test_append_resumes_across_handles(self, tmp_path):
        path = tmp_path / "ops.log"
        with AppendOnlyLog(path) as log:
            log.log_insert("a", 1, 1)
        with AppendOnlyLog(path) as log:
            log.log_insert("b", 2, 2)
            log.flush()
            assert log.size_bytes() == path.stat().st_size
        operations, clean, _ = read_log(path)
        assert clean and [op["k"] for op in operations] == ["a", "b"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.log") == ([], True, 0)

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(PersistenceError):
            AppendOnlyLog(tmp_path / "x.log", fsync="sometimes")
        with pytest.raises(PersistenceError):
            AppendOnlyLog(tmp_path / "x.log", fsync="batch", fsync_every=0)

    def test_batch_fsync_counts(self, tmp_path):
        with AppendOnlyLog(tmp_path / "b.log", fsync="batch",
                           fsync_every=2) as log:
            for i in range(5):
                log.log_insert(f"k{i}", 1, 1)
        operations, clean, _ = read_log(tmp_path / "b.log")
        assert clean and len(operations) == 5

    def test_closed_log_refuses_appends(self, tmp_path):
        log = AppendOnlyLog(tmp_path / "c.log")
        log.close()
        with pytest.raises(PersistenceError):
            log.log_insert("a", 1, 1)

    def test_repair_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.log"
        with AppendOnlyLog(path) as log:
            log.log_insert("a", 1, 1)
            log.log_insert("b", 1, 1)
        whole = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe")   # a crash mid-append
        valid, truncated = AppendOnlyLog.repair(path)
        assert (valid, truncated) == (2, True)
        assert path.stat().st_size == whole
        # a clean log is left alone
        assert AppendOnlyLog.repair(path) == (2, False)

    def test_repair_unreadable_magic_starts_over(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_bytes(b"not a log at all")
        valid, truncated = AppendOnlyLog.repair(path)
        assert (valid, truncated) == (0, True)
        assert not path.exists()


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------
class TestSnapshot:
    def test_round_trip_items_and_policy(self, tmp_path):
        kvs = build_kvs("camp", overhead=8)
        for i in range(40):
            kvs.insert(f"k{i}", 50 + i, (i % 3 + 1) * 10)
        path = tmp_path / "s.snap"
        size = save_snapshot(path, kvs)
        assert size == path.stat().st_size
        data = load_snapshot(path)
        assert data.capacity == kvs.capacity
        assert data.item_overhead == 8
        assert data.item_count == len(kvs)
        assert data.policy_state["policy"] == "camp"
        assert {item.key for item in data.items} == \
            {item.key for item in kvs.resident_items()}

    def test_payloads_ride_along(self, tmp_path):
        kvs = build_kvs("lru")
        kvs.insert("a", 3, 1)
        kvs.insert("b", 4, 1)
        path = tmp_path / "p.snap"
        save_snapshot(path, kvs, payloads={"a": b"abc"})
        data = load_snapshot(path)
        assert data.payloads == {"a": b"abc"}

    def test_ttl_rebased_onto_restoring_clock(self, tmp_path):
        saver_clock = ManualClock(1000.0)
        kvs = build_kvs("lru", clock=saver_clock)
        kvs.insert("fresh", 10, 1, ttl=50.0)
        kvs.insert("stale", 10, 1, ttl=5.0)
        kvs.insert("forever", 10, 1)
        path = tmp_path / "ttl.snap"
        save_snapshot(path, kvs)
        # the restoring process's clock reads an unrelated epoch, and the
        # save happened 10 "seconds" of TTL ago
        data = load_snapshot(path, now=7.0)
        by_key = {item.key: item for item in data.items}
        assert by_key["fresh"].expire_at == pytest.approx(7.0 + 50.0)
        assert by_key["forever"].expire_at == 0.0
        restorer_clock = ManualClock(7.0)
        target = build_kvs("lru", clock=restorer_clock)
        target.restore(data.items, data.policy_state)
        restorer_clock.now = 20.0   # past "stale"'s remaining 5s TTL
        assert target.lookup("stale") is Outcome.EXPIRED
        assert target.lookup("fresh") is Outcome.HIT

    def test_lapsed_ttl_restores_as_expired_not_dropped(self, tmp_path):
        saver_clock = ManualClock(1000.0)
        kvs = build_kvs("lru", clock=saver_clock)
        kvs.insert("gone", 10, 1, ttl=5.0)
        path = tmp_path / "lapsed.snap"
        saver_clock.now = 1100.0   # TTL lapsed before the save... but the
        # resident map still lists it (lazy reclaim never ran)
        save_snapshot(path, kvs)
        data = load_snapshot(path, now=50.0)
        # still listed (policy state must agree with the item set) yet
        # expired as of "now" on the restoring clock
        assert data.item_count == 1
        target = build_kvs("lru", clock=ManualClock(50.0))
        target.restore(data.items, data.policy_state)
        assert target.lookup("gone") is Outcome.EXPIRED
        assert len(target) == 0

    def test_wrong_version_refused(self, tmp_path):
        import repro.persistence.snapshot as snapshot_module
        kvs = build_kvs("lru")
        kvs.insert("a", 1, 1)
        path = tmp_path / "v.snap"
        save_snapshot(path, kvs)
        original = snapshot_module.FORMAT_VERSION
        snapshot_module.FORMAT_VERSION = original + 1
        try:
            with pytest.raises(SnapshotCorruptError, match="version"):
                load_snapshot(path)
        finally:
            snapshot_module.FORMAT_VERSION = original

    def test_missing_footer_refused(self, tmp_path):
        kvs = build_kvs("lru")
        kvs.insert("a", 1, 1)
        path = tmp_path / "f.snap"
        save_snapshot(path, kvs)
        # chop the footer record off
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 30])
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)

    def test_generations_and_pruning(self, tmp_path):
        snapshotter = Snapshotter(tmp_path, keep_generations=2)
        kvs = build_kvs("lru")
        kvs.insert("a", 1, 1)
        for expected in (1, 2, 3):
            assert snapshotter.save(kvs) == expected
        assert snapshot_generations(tmp_path) == [2, 3]
        assert snapshotter.latest_generation() == 3

    def test_keep_generations_validated(self, tmp_path):
        with pytest.raises(PersistenceError):
            Snapshotter(tmp_path, keep_generations=0)


# ---------------------------------------------------------------------------
# KVS.restore and the policy state hooks
# ---------------------------------------------------------------------------
class TestPolicyStateRoundTrip:
    @pytest.mark.parametrize("policy", ["camp", "lru", "gds", "gdsf"])
    def test_export_import_preserves_eviction_order(self, policy):
        source = build_kvs(policy, capacity=2_000)
        rng = random.Random(9)
        for i in range(120):
            source.insert(f"k{i}", rng.randrange(20, 80),
                          rng.choice([1, 8, 64]))
            if rng.random() < 0.4:
                source.lookup(f"k{rng.randrange(i + 1)}")
        state = source.policy.export_state()
        clone = make_policy(policy, 2_000)
        clone.import_state(state)
        assert len(clone) == len(source.policy)
        # drain both policies: identical victim sequences
        drained = []
        while len(clone):
            drained.append(clone.pop_victim())
        control = []
        while len(source.policy):
            control.append(source.policy.pop_victim())
        assert drained == control

    def test_import_refuses_wrong_kind(self):
        source = build_kvs("lru")
        source.insert("a", 1, 1)
        state = source.policy.export_state()
        with pytest.raises(ConfigurationError, match="cannot import"):
            make_policy("camp", 1000).import_state(state)

    def test_import_refuses_non_empty_policy(self):
        source = build_kvs("camp")
        source.insert("a", 1, 1)
        state = source.policy.export_state()
        target = make_policy("camp", 10_000)
        target.on_insert("occupied", 5, 1)
        with pytest.raises(ConfigurationError, match="empty"):
            target.import_state(state)

    def test_unsupported_policy_refuses_export(self):
        with pytest.raises(ConfigurationError, match="export"):
            make_policy("gd-wheel", 1000).export_state()

    def test_thread_safe_wrapper_delegates(self):
        inner = make_policy("camp", 1000)
        wrapped = ThreadSafePolicy(inner)
        wrapped.on_insert("a", 10, 5)
        state = wrapped.export_state()
        assert state["policy"] == "camp"   # the inner kind, not the wrapper
        clone = ThreadSafePolicy(make_policy("camp", 1000))
        clone.import_state(state)
        assert "a" in clone

    def test_restore_refuses_non_empty_store(self):
        kvs = build_kvs("lru")
        kvs.insert("resident", 10, 1)
        with pytest.raises(ConfigurationError, match="empty"):
            kvs.restore([], {"policy": "lru", "entries": []})

    def test_restore_evicts_down_into_smaller_capacity(self):
        big = build_kvs("camp", capacity=4_000)
        for i in range(50):
            big.insert(f"k{i}", 60, (i % 3 + 1) * 10)
        state = big.policy.export_state()
        items = list(big.resident_items())
        small = build_kvs("camp", capacity=1_000)
        evicted = small.restore(items, state)
        assert evicted
        assert small.used_bytes <= 1_000
        assert len(small) + len(evicted) == len(items)
        small.check_consistency()


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------
class TestRecovery:
    def _populated_dir(self, tmp_path, n=30):
        kvs = build_kvs("camp")
        manager = PersistenceManager(
            kvs, PersistenceConfig(directory=tmp_path, compact_ratio=None))
        for i in range(n):
            kvs.insert(f"k{i}", 40, 10)
        manager.snapshot()
        # post-snapshot suffix: mutations land in the new generation's log
        kvs.insert("late1", 40, 10)
        kvs.insert("late2", 40, 10)
        kvs.delete("k0")
        manager.close()
        return kvs

    def test_snapshot_plus_log_replay(self, tmp_path):
        original = self._populated_dir(tmp_path)
        target = build_kvs("camp")
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.recovered
        assert report.log_records_replayed == 3
        assert not report.torn_tail_truncated
        assert {i.key for i in target.resident_items()} == \
            {i.key for i in original.resident_items()}
        target.check_consistency()

    def test_recover_standalone_rebuilds_store(self, tmp_path):
        original = self._populated_dir(tmp_path)
        kvs, report = RecoveryManager(tmp_path).recover()
        assert kvs.capacity == original.capacity
        assert kvs.policy.name == "camp"
        assert len(kvs) == len(original)

    def test_empty_directory_recovers_nothing(self, tmp_path):
        target = build_kvs("camp")
        report = RecoveryManager(tmp_path).recover_into(target)
        assert not report.recovered
        assert len(target) == 0
        with pytest.raises(PersistenceError, match="no loadable snapshot"):
            RecoveryManager(tmp_path).recover()

    def test_unknown_log_operation_refused(self, tmp_path):
        kvs = build_kvs("lru")
        kvs.insert("a", 1, 1)
        Snapshotter(tmp_path).save(kvs)
        with AppendOnlyLog(log_path_for(tmp_path, 1)) as log:
            log.append(b"\x7fa")   # a framed record, op byte 0x7f
        with pytest.raises(SnapshotCorruptError,
                           match="unknown log operation 0x7f"):
            RecoveryManager(tmp_path).recover_into(build_kvs("lru"))


# ---------------------------------------------------------------------------
# the live-store manager
# ---------------------------------------------------------------------------
class TestPersistenceManager:
    def test_logs_inserts_and_explicit_removals_only(self, tmp_path):
        kvs = build_kvs("lru", capacity=200)
        manager = PersistenceManager(
            kvs, PersistenceConfig(directory=tmp_path, compact_ratio=None))
        for i in range(10):
            kvs.insert(f"k{i}", 50, 1)   # forces capacity evictions
        kvs.delete(f"k{9}")
        manager.flush()
        operations, clean, _ = read_log(manager.log.path)
        assert clean
        # capacity evictions are absent: replay re-derives them
        assert [op["op"] for op in operations].count("insert") == 10
        assert [op["op"] for op in operations].count("delete") == 1
        manager.close()

    def test_ratio_triggered_compaction(self, tmp_path):
        kvs = build_kvs("lru", capacity=100_000)
        manager = PersistenceManager(
            kvs, PersistenceConfig(directory=tmp_path, compact_ratio=0.001))
        for i in range(300):
            kvs.insert(f"key-{i:06d}", 30, 1)
        assert manager.stats()["auto_compactions"] >= 1
        assert manager.generation >= 1
        manager.close()

    def test_snapshot_rotates_and_prunes_logs(self, tmp_path):
        kvs = build_kvs("lru")
        manager = PersistenceManager(
            kvs, PersistenceConfig(directory=tmp_path, compact_ratio=None,
                                   keep_generations=1))
        kvs.insert("a", 10, 1)
        first = manager.snapshot()
        kvs.insert("b", 10, 1)
        second = manager.snapshot()
        assert second == first + 1
        assert snapshot_generations(tmp_path) == [second]
        assert not log_path_for(tmp_path, 0).exists()
        assert not log_path_for(tmp_path, first).exists()
        manager.close()

    def test_config_validation(self, tmp_path):
        with pytest.raises(PersistenceError):
            PersistenceConfig(directory=tmp_path, fsync="maybe").validate()
        with pytest.raises(PersistenceError):
            PersistenceConfig(directory=tmp_path, compact_ratio=0).validate()
        with pytest.raises(PersistenceError):
            PersistenceConfig(directory=tmp_path,
                              keep_generations=0).validate()

    def test_snapshot_thread_saves_and_survives_errors(self):
        saves = []
        failures = iter([True, False])

        def flaky_save():
            if next(failures, False):
                raise OSError("disk full")
            saves.append(1)

        errors = []
        thread = SnapshotThread(flaky_save, interval=0.01,
                                on_error=errors.append).start()
        deadline = threading.Event()
        for _ in range(200):
            if saves and errors:
                break
            deadline.wait(0.01)
        thread.stop()
        assert errors and saves
        assert not thread.running
        with pytest.raises(PersistenceError):
            SnapshotThread(lambda: None, interval=0)


# ---------------------------------------------------------------------------
# Store / StoreConfig wiring
# ---------------------------------------------------------------------------
class TestStorePersistence:
    def test_save_requires_configuration(self):
        store = StoreConfig(1000).policy("lru").build()
        with pytest.raises(ConfigurationError, match="no persistence"):
            store.save()

    def test_warm_rebuild_with_payloads(self, tmp_path):
        store = StoreConfig(1000).policy("camp").persistence(tmp_path).build()
        store.get_or_compute("a", lambda key: b"alpha", cost=5)
        store.get_or_compute("b", lambda key: b"beta", cost=5)
        store.save()
        store.persistence.close()
        warm = StoreConfig(1000).policy("camp").persistence(tmp_path).build()
        assert warm.last_recovery.items_restored == 2
        result = warm.get("a")
        assert result.hit and result.value == b"alpha"
        warm.persistence.close()

    def test_log_replayed_key_recomputes_lost_value_once(self, tmp_path):
        store = StoreConfig(1000).policy("camp").persistence(tmp_path).build()
        store.save()
        store.get_or_compute("k", lambda key: b"payload", cost=5)
        store.persistence.close()
        warm = StoreConfig(1000).policy("camp").persistence(tmp_path).build()
        # "k" came back from the log: metadata-resident, payload lost
        assert "k" in warm
        calls = []

        def loader(key):
            calls.append(key)
            return b"recomputed"

        first = warm.get_or_compute("k", loader)
        assert first.outcome is Outcome.HIT
        assert first.value == b"recomputed"
        second = warm.get_or_compute("k", loader)
        assert second.value == b"recomputed"
        assert calls == ["k"]   # re-memoized after the first reload
        warm.persistence.close()

    def test_none_returning_loader_is_not_reinvoked_on_hits(self, tmp_path):
        # negative caching: a loader may legitimately return None; hits
        # on such keys must stay cheap (only warm-restart-lost payloads
        # trigger the recompute-once path)
        store = StoreConfig(1000).policy("camp").persistence(tmp_path).build()
        calls = []

        def negative_loader(key):
            calls.append(key)
            return None

        first = store.get_or_compute("absent", negative_loader, size=10,
                                     cost=1)
        assert first.outcome is Outcome.MISS_INSERTED
        for _ in range(3):
            result = store.get_or_compute("absent", negative_loader)
            assert result.outcome is Outcome.HIT and result.value is None
        assert calls == ["absent"]
        store.persistence.close()

    def test_unsupported_policy_fails_at_build_not_first_save(self, tmp_path):
        with pytest.raises(ConfigurationError, match="export"):
            (StoreConfig(1000).policy("gd-wheel")
             .persistence(tmp_path).build())

    def test_unwritable_directory_raises_persistence_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        with pytest.raises(PersistenceError, match="cannot"):
            Snapshotter(blocker / "state")
        with pytest.raises(PersistenceError, match="cannot"):
            AppendOnlyLog(blocker / "state" / "x.log")

    def test_cold_build_when_recover_disabled(self, tmp_path):
        store = StoreConfig(1000).policy("lru").persistence(tmp_path).build()
        store.put("a", 10, 1)
        store.save()
        store.persistence.close()
        cold = (StoreConfig(1000).policy("lru")
                .persistence(tmp_path, recover=False).build())
        assert cold.last_recovery is None
        assert "a" not in cold
        cold.persistence.close()

    def test_touch_is_durable(self, tmp_path):
        clock = ManualClock(0.0)
        store = (StoreConfig(1000).policy("lru").clock(clock)
                 .persistence(tmp_path, compact_ratio=None).build())
        store.save()
        store.put("k", 10, 1, ttl=5.0)
        store.touch("k", ttl=500.0)   # the durable TTL extension
        store.persistence.close()
        clock.now = 60.0   # past the original 5s, inside the extended TTL
        warm = (StoreConfig(1000).policy("lru").clock(clock)
                .persistence(tmp_path).build())
        assert warm.last_recovery.log_records_replayed == 2
        assert warm.get("k").hit, "touched TTL was lost across the restart"
        warm.persistence.close()

    def test_mutations_after_generation_fallback_are_not_lost(self, tmp_path):
        store = (StoreConfig(10_000).policy("camp")
                 .persistence(tmp_path, keep_generations=2).build())
        store.put("a", 40, 10)
        store.save()
        store.put("b", 40, 10)
        newest = store.save()
        store.persistence.close()
        # bit-rot the newest snapshot: the next build falls back to gen 1
        path = Snapshotter(tmp_path).path_for(newest)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x10
        path.write_bytes(bytes(raw))
        warm = (StoreConfig(10_000).policy("camp")
                .persistence(tmp_path, keep_generations=2).build())
        assert warm.last_recovery.generation == newest - 1
        # the manager must not append to the corrupt generation's log:
        # it opens a fresh generation reflecting the live (fallen-back)
        # state, so this session's mutations survive the next restart
        assert warm.persistence.generation > newest
        warm.put("c", 40, 10)
        warm.persistence.close()
        again = (StoreConfig(10_000).policy("camp")
                 .persistence(tmp_path, keep_generations=2).build())
        assert "a" in again and "c" in again
        again.persistence.close()

    def test_save_and_compaction_safe_under_plain_lock(self, tmp_path):
        # a non-reentrant Lock: save() and ratio-triggered compaction run
        # the payload source while the store lock is held — any re-acquire
        # deadlocks, so this test just has to terminate
        store = (StoreConfig(100_000).policy("lru")
                 .lock(threading.Lock())
                 .persistence(tmp_path, compact_ratio=0.001).build())
        for i in range(200):   # plenty to trip auto-compaction
            store.put(f"key-{i:04d}", 30, 1, value=b"v" * 8)
        store.save()
        assert store.persistence.stats()["auto_compactions"] >= 1
        store.persistence.close()

    def test_restored_items_not_relogged(self, tmp_path):
        store = StoreConfig(1000).policy("lru").persistence(tmp_path).build()
        store.put("a", 10, 1)
        generation = store.save()
        store.persistence.close()
        warm = StoreConfig(1000).policy("lru").persistence(tmp_path).build()
        warm.persistence.flush()
        operations, _, _ = read_log(log_path_for(tmp_path, generation))
        assert operations == []   # recovery happened before logging began
        warm.persistence.close()


# ---------------------------------------------------------------------------
# the twemcache engine / server / tenancy integrations
# ---------------------------------------------------------------------------
class TestEnginePersistence:
    def _engine(self, tmp_path, **kwargs):
        from repro.twemcache import TwemcacheEngine
        return TwemcacheEngine(1 << 20, slab_size=1 << 16,
                               snapshot_path=str(tmp_path / "engine.snap"),
                               **kwargs)

    def test_save_load_round_trip(self, tmp_path):
        from repro.twemcache import TwemcacheEngine
        engine = self._engine(tmp_path)
        engine.set("a", b"alpha", flags=7, cost=10)
        engine.set("b", b"beta" * 100, cost=20)
        assert engine.save() == 2
        warm = TwemcacheEngine(1 << 20, slab_size=1 << 16)
        assert warm.load(str(tmp_path / "engine.snap")) == 2
        item = warm.get("a")
        assert item.value == b"alpha" and item.flags == 7
        assert warm.get("b").value == b"beta" * 100
        warm.check_consistency()

    def test_save_without_path_refuses(self):
        from repro.twemcache import TwemcacheEngine
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16)
        with pytest.raises(PersistenceError, match="no snapshot path"):
            engine.save()

    def test_expired_items_skipped_on_both_ends(self, tmp_path):
        from repro.twemcache import TwemcacheEngine
        clock = ManualClock(10.0)
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16, clock=clock,
                                 snapshot_path=str(tmp_path / "e.snap"))
        engine.set("keeper", b"x", expire_after=100.0)
        engine.set("lapsing", b"y", expire_after=5.0)
        clock.now = 16.0   # "lapsing" is dead at save time
        assert engine.save() == 1
        warm_clock = ManualClock(500.0)
        warm = TwemcacheEngine(1 << 20, slab_size=1 << 16, clock=warm_clock)
        assert warm.load(str(tmp_path / "e.snap")) == 1
        assert warm.get("keeper") is not None   # remaining TTL rebased
        warm_clock.now = 500.0 + 95.0
        assert warm.get("keeper") is None

    def test_snapshot_daemon_lifecycle(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.set("a", b"v")
        daemon = engine.start_snapshot_daemon(interval=30.0)
        with pytest.raises(PersistenceError, match="already running"):
            engine.start_snapshot_daemon(interval=30.0)
        engine.stop_snapshot_daemon(final_save=True)
        assert not daemon.running
        assert (tmp_path / "engine.snap").exists()
        assert engine.stats()["snapshots_taken"] >= 1

    def test_server_save_verb(self, tmp_path):
        from repro.twemcache import AsyncTwemcacheServer, SocketClient
        engine = self._engine(tmp_path)
        with AsyncTwemcacheServer(engine) as server:
            with SocketClient(server.address) as client:
                assert client.set("k", b"value")
                assert client.save() is True
        assert (tmp_path / "engine.snap").exists()

    def test_server_save_without_path_reports_error(self):
        from repro.twemcache import (AsyncTwemcacheServer, SocketClient,
                                     TwemcacheEngine)
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16)
        with AsyncTwemcacheServer(engine) as server:
            with SocketClient(server.address) as client:
                assert client.save() is False


class TestTenancyPersistence:
    def _specs(self):
        from repro.tenancy import TenantSpec
        return [TenantSpec("ads", floor=0.1, ceiling=0.9),
                TenantSpec("scan", floor=0.1, ceiling=0.9)]

    def _manager(self, rebalance_every=None):
        from repro.tenancy import TenantManager
        return TenantManager(50_000, self._specs(),
                             rebalance_every=rebalance_every)

    def _drive(self, manager, requests=4_000, seed=3):
        rng = random.Random(seed)
        for _ in range(requests):
            tenant = "ads" if rng.random() < 0.7 else "scan"
            manager.access(f"{tenant}:k{rng.randrange(150)}",
                           rng.randrange(30, 120), rng.choice([1, 50]))

    def test_save_all_restore_all_round_trip(self, tmp_path):
        manager = self._manager(rebalance_every=500)
        self._drive(manager)
        # force a non-default split so allocation adoption is observable
        manager.tenant("scan").kvs.resize(
            manager.tenant("scan").kvs.capacity - 5_000)
        manager.tenant("ads").kvs.resize(
            manager.tenant("ads").kvs.capacity + 5_000)
        manager.check_consistency()
        generations = manager.save_all(tmp_path)
        assert generations == {"ads": 1, "scan": 1}
        assert (tmp_path / "ads" / "snapshot-000001.snap").exists()
        warm = self._manager(rebalance_every=500)
        reports = warm.restore_all(tmp_path)
        assert set(reports) == {"ads", "scan"}
        warm.check_consistency()
        # the arbiter's learned allocation came back too
        assert warm.allocations() == manager.allocations()
        for name in ("ads", "scan"):
            assert sorted(i.key for i in
                          warm.tenant(name).kvs.resident_items()) == \
                sorted(i.key for i in
                       manager.tenant(name).kvs.resident_items())

    def test_missing_tenant_directory_stays_cold(self, tmp_path):
        manager = self._manager()
        self._drive(manager)
        manager.save_all(tmp_path)
        import shutil
        shutil.rmtree(tmp_path / "scan")
        warm = self._manager()
        reports = warm.restore_all(tmp_path)
        assert set(reports) == {"ads"}
        assert len(warm.tenant("scan").kvs) == 0
        assert len(warm.tenant("ads").kvs) > 0

    def test_changed_bounds_fall_back_to_current_split(self, tmp_path):
        from repro.tenancy import TenantManager, TenantSpec
        manager = self._manager(rebalance_every=200)
        self._drive(manager)
        manager.save_all(tmp_path)
        # the new config pins "ads" into a band the saved split violates
        squeezed = TenantManager(50_000, [
            TenantSpec("ads", share=0.2, floor=0.15, ceiling=0.25),
            TenantSpec("scan", share=0.8, floor=0.1, ceiling=0.9)])
        reports = squeezed.restore_all(tmp_path)
        assert set(reports) == {"ads", "scan"}
        squeezed.check_consistency()   # bounds still hold after restore


# ---------------------------------------------------------------------------
# restart equivalence: the subsystem's headline property
# ---------------------------------------------------------------------------
class TestRestartEquivalence:
    """snapshot → restore → continue ≡ never restarting, exactly."""

    def _trace(self, policy_seed):
        rng = random.Random(policy_seed)
        if rng.random() < 0.5:
            return three_cost_trace(n_keys=400, n_requests=12_000,
                                    seed=policy_seed)
        return variable_size_constant_cost_trace(
            n_keys=400, n_requests=12_000, seed=policy_seed)

    @pytest.mark.parametrize("policy,seed", [
        ("camp", 11), ("camp", 23), ("lru", 11), ("gdsf", 11),
    ])
    def test_decision_sequences_identical(self, tmp_path, policy, seed):
        trace = self._trace(seed)
        assert len(trace) >= 10_000
        capacity = trace.capacity_for_ratio(0.25)
        split = len(trace) // 2
        control_recorder, restored_recorder = (EvictionRecorder(),
                                               EvictionRecorder())

        control = (StoreConfig(capacity).policy(policy)
                   .listener(control_recorder).build())
        durable = (StoreConfig(capacity).policy(policy)
                   .persistence(tmp_path, recover=False).build())
        for record in trace.records[:split]:
            control.access(record.key, record.size, record.cost)
            durable.access(record.key, record.size, record.cost)
        durable.save()
        durable.persistence.close()

        restored = (StoreConfig(capacity).policy(policy)
                    .listener(restored_recorder).persistence(tmp_path)
                    .build())
        assert len(restored) == len(control)
        control_recorder.armed = restored_recorder.armed = True
        control_outcomes, restored_outcomes = [], []
        for record in trace.records[split:]:
            control_outcomes.append(control.access(
                record.key, record.size, record.cost).outcome)
            restored_outcomes.append(restored.access(
                record.key, record.size, record.cost).outcome)
        restored.persistence.close()

        assert restored_outcomes == control_outcomes
        assert restored_recorder.events == control_recorder.events
        assert sorted(i.key for i in restored.kvs.resident_items()) == \
            sorted(i.key for i in control.kvs.resident_items())
        restored.check_consistency()

    @settings(max_examples=12, deadline=None)
    @given(policy=st.sampled_from(["camp", "lru", "gdsf"]),
           seed=st.integers(0, 10_000),
           restart_at=st.floats(0.2, 0.8))
    def test_equivalence_holds_for_arbitrary_restart_points(
            self, tmp_path_factory, policy, seed, restart_at):
        """Hypothesis sweep of the same property on smaller traces:
        any policy, any seed, any restart point."""
        tmp_path = tmp_path_factory.mktemp("equiv")
        trace = three_cost_trace(n_keys=120, n_requests=2_500, seed=seed)
        capacity = trace.capacity_for_ratio(0.25)
        split = int(len(trace) * restart_at)

        control = StoreConfig(capacity).policy(policy).build()
        durable = (StoreConfig(capacity).policy(policy)
                   .persistence(tmp_path, recover=False).build())
        for record in trace.records[:split]:
            control.access(record.key, record.size, record.cost)
            durable.access(record.key, record.size, record.cost)
        durable.save()
        durable.persistence.close()
        restored = (StoreConfig(capacity).policy(policy)
                    .persistence(tmp_path).build())
        for record in trace.records[split:]:
            expected = control.access(record.key, record.size,
                                      record.cost).outcome
            actual = restored.access(record.key, record.size,
                                     record.cost).outcome
            assert actual is expected
        restored.persistence.close()
        assert sorted(i.key for i in restored.kvs.resident_items()) == \
            sorted(i.key for i in control.kvs.resident_items())

    def test_camp_internal_clocks_round_trip(self, tmp_path):
        """The global L clock and per-item priorities, not just membership."""
        trace = three_cost_trace(n_keys=200, n_requests=6_000, seed=5)
        capacity = trace.capacity_for_ratio(0.25)
        store = (StoreConfig(capacity).policy("camp")
                 .persistence(tmp_path, recover=False).build())
        for record in trace:
            store.access(record.key, record.size, record.cost)
        state = store.kvs.policy.export_state()
        store.save()
        store.persistence.close()
        warm = (StoreConfig(capacity).policy("camp")
                .persistence(tmp_path).build())
        restored_state = warm.kvs.policy.export_state()
        assert restored_state["L"] == state["L"]
        assert restored_state["seq"] == state["seq"]
        assert restored_state["multiplier"] == state["multiplier"]
        # each queue's members, head-to-tail, with their fixed H/seq
        assert restored_state["entries"] == state["entries"]
        assert restored_state == state
        warm.persistence.close()


# ---------------------------------------------------------------------------
# the binary formats: CAMPSNP2 round trips, out-of-range values
# ---------------------------------------------------------------------------
I64_MAX = (1 << 63) - 1

#: every durable policy, built fresh for a capacity
DURABLE_POLICIES = {
    "lru": lambda capacity: make_policy("lru", capacity),
    "gds": lambda capacity: make_policy("gds", capacity),
    "gdsf": lambda capacity: make_policy("gdsf", capacity),
    "camp-stats": lambda capacity: CampPolicy(stats=True),
    "camp-nostats": lambda capacity: CampPolicy(stats=False),
    "thread-safe-camp": lambda capacity: ThreadSafePolicy(
        make_policy("camp", capacity)),
}

_KEYS = st.text(st.characters(blacklist_categories=("Cs",)),
                min_size=1, max_size=6)
_COSTS = st.one_of(st.integers(0, 500), st.just(I64_MAX),
                   st.floats(0, 500, allow_nan=False, allow_infinity=False))
_MUTATIONS = st.lists(st.tuples(
    _KEYS,
    st.integers(1, 300),                            # size
    _COSTS,
    st.one_of(st.none(), st.integers(1, 40)),       # ttl
    st.one_of(st.none(), st.binary(max_size=8)),    # payload
), min_size=1, max_size=50)


def _fits_i64(state):
    return all(not isinstance(value, int) or -(1 << 63) <= value <= I64_MAX
               for row in state["entries"] for value in row[1:])


def _continue(kvs, clock, tape, origin):
    """Replay ``tape`` (key, size, cost) with the clock stepping 1.5 s per
    request from ``origin``; returns the outcomes."""
    outcomes = []
    for step, (key, size, cost) in enumerate(tape):
        clock.now = origin + 1.5 * (step + 1)
        outcomes.append(kvs.access(key, size, cost))
    return outcomes


class TestBinaryRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(policy=st.sampled_from(sorted(DURABLE_POLICIES)),
           mutations=_MUTATIONS,
           tape=st.lists(st.tuples(_KEYS, st.integers(1, 300),
                                   st.integers(0, 500)), max_size=40))
    def test_save_load_restore_is_exact(self, tmp_path_factory, policy,
                                        mutations, tape):
        capacity = 2_000
        saver_clock = ManualClock(1000.0)
        source = KVS(capacity, DURABLE_POLICIES[policy](capacity),
                     clock=saver_clock)
        payloads = {}
        for key, size, cost, ttl, payload in mutations:
            outcome = source.insert(key, size, cost, ttl=ttl)
            if outcome is Outcome.MISS_INSERTED:
                payloads.pop(key, None)
                if payload is not None:
                    payloads[key] = payload
            source.lookup(mutations[0][0])
        payloads = {key: value for key, value in payloads.items()
                    if key in source}
        state = source.policy.export_state()
        path = tmp_path_factory.mktemp("rt") / "s.snap"
        if not _fits_i64(state):
            with pytest.raises(PersistenceError, match="i64"):
                save_snapshot(path, source, payloads=payloads)
            assert not path.exists()
            return
        save_snapshot(path, source, payloads=payloads)

        data = load_snapshot(path, now=50.0)
        restorer_clock = ManualClock(50.0)
        target = KVS(capacity, DURABLE_POLICIES[policy](capacity),
                     clock=restorer_clock)
        assert target.restore(data.items, data.policy_state) == []
        # repr tells 5 from 5.0: cost and field types survive
        assert repr(target.policy.export_state()) == repr(state)
        assert data.payloads == payloads   # b"" and absent stay apart
        for item in data.items:
            original = next(i for i in source.resident_items()
                            if i.key == item.key)
            assert repr(item.cost) == repr(original.cost)
            if original.expire_at:
                assert item.expire_at == pytest.approx(
                    50.0 + original.expire_at - 1000.0)
            else:
                assert item.expire_at == 0.0
        assert _continue(target, restorer_clock, tape, 50.0) == \
            _continue(source, saver_clock, tape, 1000.0)
        assert sorted(i.key for i in target.resident_items()) == \
            sorted(i.key for i in source.resident_items())
        target.check_consistency()

    @pytest.mark.parametrize("policy", sorted(DURABLE_POLICIES))
    def test_i64_bounds_round_trip_and_beyond_refused(self, tmp_path, policy):
        kvs = KVS(10_000, DURABLE_POLICIES[policy](10_000))
        kvs.insert("max", 100, I64_MAX)
        kvs.insert("zero", 100, 0)
        save_snapshot(tmp_path / "ok.snap", kvs)
        data = load_snapshot(tmp_path / "ok.snap")
        assert {row[0]: row[2] for row in data.policy_state["entries"]} == \
            {"max": I64_MAX, "zero": 0}
        kvs.insert("beyond", 100, I64_MAX + 1)
        with pytest.raises(PersistenceError, match="i64"):
            save_snapshot(tmp_path / "bad.snap", kvs)
        assert not (tmp_path / "bad.snap").exists()
        with AppendOnlyLog(tmp_path / "x.log") as log:
            with pytest.raises(PersistenceError, match="i64"):
                log.log_insert("beyond", 100, I64_MAX + 1)
            assert log.records_appended == 0

    def test_key_longer_than_its_length_field_refused(self, tmp_path):
        kvs = build_kvs("lru", capacity=1 << 20)
        kvs.insert("k" * 65_535, 10, 1)
        save_snapshot(tmp_path / "ok.snap", kvs)
        assert load_snapshot(tmp_path / "ok.snap").items[0].key == \
            "k" * 65_535
        kvs.insert("é" * 40_000, 10, 1)   # 80 000 bytes of UTF-8
        with pytest.raises(PersistenceError, match="65535"):
            save_snapshot(tmp_path / "long.snap", kvs)

    def test_each_pair_written_once(self, tmp_path):
        kvs = build_kvs("camp", capacity=1 << 20)
        for i in range(2_000):
            kvs.insert(f"key-{i:05d}", 100, i % 7)
        path = tmp_path / "once.snap"
        save_snapshot(path, kvs)
        raw = path.read_bytes()
        assert raw.startswith(SNAPSHOT_MAGIC)
        # one pair record per key: the JSON header and footer list none
        for i in (0, 1, 999, 1_999):
            assert raw.count(f"key-{i:05d}".encode()) == 1
        # 43 B of packed fields + a 9 B key per pair, plus framing
        assert len(raw) < 2_000 * 56

    def test_log_round_trips_cost_types_and_ttl(self, tmp_path):
        path = tmp_path / "ops.log"
        with AppendOnlyLog(path) as log:
            log.log_insert("ü-int", 10, I64_MAX)
            log.log_insert("float", 10, 2.5, ttl=7.25)
            log.log_touch("float", ttl=3.0)
            log.log_touch("plain")
            log.log_delete("ü-int")
        raw = path.read_bytes()
        assert raw.startswith(LOG_MAGIC)
        operations, clean, valid = read_log(path)
        assert clean and valid == len(raw)
        assert operations == [
            {"op": "insert", "k": "ü-int", "s": 10, "c": I64_MAX},
            {"op": "insert", "k": "float", "s": 10, "c": 2.5, "ttl": 7.25},
            {"op": "touch", "k": "float", "ttl": 3.0},
            {"op": "touch", "k": "plain"},
            {"op": "delete", "k": "ü-int"},
        ]
        assert type(operations[1]["c"]) is float
        # one frame per mutation: 8-byte frame + op + size + cost + key
        assert len(raw) == len(LOG_MAGIC) + 5 * 8 + (17 + len("ü-int".encode())) \
            + (25 + 5) + (9 + 5) + (1 + 5) + (1 + len("ü-int".encode()))


# ---------------------------------------------------------------------------
# corruption and torn tails in the binary layouts
# ---------------------------------------------------------------------------
def _first_block_offset(raw):
    """Byte offset of the first pair block's frame in a snapshot."""
    header_length, _crc = struct.unpack_from("<II", raw, len(SNAPSHOT_MAGIC))
    return len(SNAPSHOT_MAGIC) + 8 + header_length


class TestBinaryCorruption:
    def _two_generations(self, tmp_path):
        kvs = build_kvs("camp", capacity=100_000)
        snapshotter = Snapshotter(tmp_path, keep_generations=2)
        for i in range(300):
            kvs.insert(f"old{i}", 40, i % 5 + 1)
        snapshotter.save(kvs)
        for i in range(300):
            kvs.insert(f"new{i}", 40, i % 5 + 1)
        newest = snapshotter.save(kvs)
        return snapshotter.path_for(newest)

    def test_flipped_bit_in_pair_block_falls_back_a_generation(self,
                                                               tmp_path):
        path = self._two_generations(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[_first_block_offset(raw) + 8 + 20] ^= 0x08
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            load_snapshot(path)
        target = build_kvs("camp", capacity=100_000)
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.generation == 1
        assert report.corrupt_generations == [2]
        assert "old0" in target and "new0" not in target
        target.check_consistency()

    def test_implausible_block_length_refused(self, tmp_path):
        path = self._two_generations(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, _first_block_offset(raw),
                         MAX_RECORD_BYTES + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="implausible"):
            load_snapshot(path)

    def test_missing_pair_block_refused(self, tmp_path):
        path = self._two_generations(tmp_path)
        raw = path.read_bytes()
        start = _first_block_offset(raw)
        length, _crc = struct.unpack_from("<II", raw, start)
        path.write_bytes(raw[:start] + raw[start + 8 + length:])
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)

    def test_log_torn_at_every_offset_of_its_last_record(self, tmp_path):
        kvs = build_kvs("lru")
        kvs.insert("base", 10, 1)
        Snapshotter(tmp_path).save(kvs)
        path = log_path_for(tmp_path, 1)
        with AppendOnlyLog(path) as log:
            log.log_insert("a", 10, 1)
            log.log_insert("b", 10, 2.5, ttl=60.0)
            boundary = log.size_bytes()
            log.log_insert("torn-ü", 10, 3, ttl=60.0)
            whole = log.size_bytes()
        intact = path.read_bytes()
        for cut in range(boundary + 1, whole):
            path.write_bytes(intact[:cut])
            operations, clean, valid = read_log(path)
            assert [op["k"] for op in operations] == ["a", "b"], cut
            assert not clean and valid == boundary, cut
            target = build_kvs("lru")
            report = RecoveryManager(tmp_path).recover_into(target)
            assert report.torn_tail_truncated and \
                report.log_records_replayed == 2, cut
            assert "b" in target and "torn-ü" not in target
            assert path.stat().st_size == boundary, cut

    def test_log_length_word_above_max_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "ops.log"
        with AppendOnlyLog(path) as log:
            log.log_insert("a", 10, 1)
            boundary = log.size_bytes()
            log.log_insert("b", 10, 1)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, boundary, MAX_RECORD_BYTES + 1)
        path.write_bytes(bytes(raw))
        operations, clean, valid = read_log(path)
        assert [op["k"] for op in operations] == ["a"]
        assert not clean and valid == boundary
        assert AppendOnlyLog.repair(path) == (1, True)
        assert path.stat().st_size == boundary

    def test_zero_filled_log_tail_is_torn_not_fatal(self, tmp_path):
        path = tmp_path / "ops.log"
        with AppendOnlyLog(path) as log:
            log.log_insert("a", 10, 1)
            boundary = log.size_bytes()
        with open(path, "ab") as handle:
            handle.write(bytes(4096))
        operations, clean, valid = read_log(path)
        assert len(operations) == 1 and not clean and valid == boundary


# ---------------------------------------------------------------------------
# the GC pause around the bulk passes
# ---------------------------------------------------------------------------
class _GcWatchingLru(LruPolicy):
    """LRU recording whether the cyclic GC ran during state export and
    import."""

    name = "lru"
    seen = []

    def export_state(self):
        self.seen.append(("export", gc.isenabled()))
        return super().export_state()

    def import_state(self, state):
        self.seen.append(("import", gc.isenabled()))
        super().import_state(state)


class TestGcPause:
    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        was_enabled = gc.isenabled()
        _GcWatchingLru.seen = []
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def _kvs(self):
        kvs = KVS(10_000, _GcWatchingLru())
        for i in range(20):
            kvs.insert(f"k{i}", 40, 10)
        return kvs

    def test_context_restores_enabled_state_even_on_error(self):
        gc.enable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                assert not gc.isenabled()
                raise RuntimeError("boom")
        assert gc.isenabled()
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_save_and_recover_pause_then_reenable(self, tmp_path):
        gc.enable()
        Snapshotter(tmp_path).save(self._kvs())
        assert gc.isenabled()
        target = KVS(10_000, _GcWatchingLru())
        RecoveryManager(tmp_path).recover_into(target)
        assert gc.isenabled()
        assert len(target) == 20
        assert _GcWatchingLru.seen == [("export", False), ("import", False)]

    def test_failed_save_reenables(self, tmp_path):
        kvs = self._kvs()
        gc.enable()
        with inject(FaultPlan([Fault(kind="enospc", seam="file",
                                     target="snap")])):
            with pytest.raises(PersistenceError):
                save_snapshot(tmp_path / "s.snap", kvs)
        assert gc.isenabled()

    def test_failed_recover_reenables(self, tmp_path):
        Snapshotter(tmp_path).save(self._kvs())
        gc.enable()
        occupied = KVS(10_000, _GcWatchingLru())
        occupied.insert("resident", 10, 1)
        with pytest.raises(ConfigurationError, match="empty"):
            RecoveryManager(tmp_path).recover_into(occupied)
        assert gc.isenabled()

    def test_caller_with_gc_disabled_keeps_it_disabled(self, tmp_path):
        gc.disable()
        Snapshotter(tmp_path).save(self._kvs())
        assert not gc.isenabled()
        with inject(FaultPlan([Fault(kind="enospc", seam="file",
                                     target="snap")])):
            with pytest.raises(PersistenceError):
                Snapshotter(tmp_path).save(self._kvs())
        assert not gc.isenabled()
        RecoveryManager(tmp_path).recover_into(KVS(10_000, _GcWatchingLru()))
        assert not gc.isenabled()


# ---------------------------------------------------------------------------
# format-1 state is refused by name and never touched
# ---------------------------------------------------------------------------
def _write_format_one_directory(directory):
    """A state directory as the format-1 writer left it: JSON records
    under the ``CAMPSNP1``/``CAMPAOL1`` magics."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "snapshot-000001.snap", "wb") as handle:
        handle.write(b"CAMPSNP1")
        write_record(handle, {
            "kind": "snapshot", "version": 1, "generation": 1,
            "capacity": 10_000, "item_overhead": 0, "clock": 5.0,
            "items": 1, "policy": {"policy": "lru",
                                   "entries": [["a", 10, 1]]}})
        write_record(handle, {"k": "a", "s": 10, "c": 1, "e": 0.0})
        write_record(handle, {"kind": "footer", "items": 1})
    with open(directory / "aol-000001.log", "wb") as handle:
        handle.write(b"CAMPAOL1")
        write_record(handle, {"op": "insert", "k": "b", "s": 10, "c": 1})
    return {entry.name: entry.read_bytes()
            for entry in sorted(directory.iterdir())}


class TestFormatOneRefused:
    def _unchanged(self, directory, before):
        assert {entry.name: entry.read_bytes()
                for entry in sorted(directory.iterdir())} == before

    def test_recovery_refuses_and_leaves_files(self, tmp_path):
        before = _write_format_one_directory(tmp_path)
        with pytest.raises(UnsupportedFormatError, match="format-1"):
            RecoveryManager(tmp_path).recover_into(build_kvs("lru"))
        with pytest.raises(UnsupportedFormatError, match="CAMPSNP1"):
            RecoveryManager(tmp_path).recover()
        with pytest.raises(UnsupportedFormatError, match="CAMPSNP1"):
            load_snapshot(tmp_path / "snapshot-000001.snap")
        self._unchanged(tmp_path, before)

    def test_store_build_refuses_with_or_without_recovery(self, tmp_path):
        before = _write_format_one_directory(tmp_path)
        for recover in (True, False):
            with pytest.raises(UnsupportedFormatError, match="format-1"):
                (StoreConfig(10_000).policy("lru")
                 .persistence(tmp_path, recover=recover).build())
        self._unchanged(tmp_path, before)

    def test_log_repair_and_append_refuse(self, tmp_path):
        before = _write_format_one_directory(tmp_path)
        log = tmp_path / "aol-000001.log"
        with pytest.raises(UnsupportedFormatError, match="CAMPAOL1"):
            AppendOnlyLog.repair(log)
        with pytest.raises(UnsupportedFormatError, match="CAMPAOL1"):
            read_log(log)
        with pytest.raises(UnsupportedFormatError, match="CAMPAOL1"):
            AppendOnlyLog(log)
        self._unchanged(tmp_path, before)

    def test_inspect_names_the_format(self, tmp_path, capsys):
        from repro.cli import main
        before = _write_format_one_directory(tmp_path)
        assert main(["persist", "inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "generation 1: UNSUPPORTED" in out and "CAMPSNP1" in out
        assert "log for generation 1: UNSUPPORTED" in out
        self._unchanged(tmp_path, before)

    def test_format_one_log_alone_is_refused(self, tmp_path):
        before = _write_format_one_directory(tmp_path)
        (tmp_path / "snapshot-000001.snap").unlink()
        (tmp_path / "aol-000001.log").rename(tmp_path / "aol-000000.log")
        before = {"aol-000000.log": before["aol-000001.log"]}
        with pytest.raises(UnsupportedFormatError, match="CAMPAOL1"):
            RecoveryManager(tmp_path).recover_into(build_kvs("lru"))
        self._unchanged(tmp_path, before)
