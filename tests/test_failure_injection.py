"""Failure injection: misbehaving peers, crashing policies, node loss.

A production-quality cache layer must stay consistent when its
collaborators misbehave; these tests break things on purpose.
"""

import socket
import threading
import time

import pytest

from repro.cache import KVS
from repro.cache.store import StoreConfig
from repro.cluster import CooperativeCluster
from repro.core import LruPolicy, make_policy
from repro.core.policy import EvictionPolicy
from repro.errors import ProtocolError, ReproError
from repro.faults import Fault, FaultPlan, inject
from repro.persistence import (
    AppendOnlyLog,
    PersistenceError,
    RecoveryManager,
    Snapshotter,
    log_path_for,
    snapshot_generations,
)
from repro.tiering import DiskTier
from repro.twemcache import AsyncTwemcacheServer, SocketClient, TwemcacheEngine


class TestMisbehavingServer:
    """The socket client against endpoints that lie or die."""

    def _one_shot_server(self, payload: bytes):
        """A TCP server that sends ``payload`` then closes."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            conn.recv(65536)
            if payload:
                conn.sendall(payload)
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener.getsockname(), listener

    def test_connection_closed_mid_response(self):
        address, listener = self._one_shot_server(b"VALUE k 0 100\r\nshort")
        try:
            client = SocketClient(address)
            with pytest.raises(ProtocolError):
                client.get("k")
        finally:
            listener.close()

    def test_garbage_reply(self):
        address, listener = self._one_shot_server(b"BANANAS\r\n")
        try:
            client = SocketClient(address)
            with pytest.raises(ProtocolError):
                client.get("k")
        finally:
            listener.close()

    def test_malformed_value_header(self):
        address, listener = self._one_shot_server(b"VALUE k 0\r\nEND\r\n")
        try:
            client = SocketClient(address)
            with pytest.raises(ProtocolError):
                client.get("k")
        finally:
            listener.close()

    def test_timed_out_reply_is_never_read_as_the_next_one(self):
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16)
        engine.set("stale", b"old")
        engine.set("fresh", b"new")
        plan = FaultPlan([Fault(kind="latency", seam="write", at=0,
                                delay=0.5)])
        with AsyncTwemcacheServer(engine, fault_plan=plan) as server:
            client = SocketClient(server.address, timeout=0.2)
            try:
                with pytest.raises(TimeoutError):
                    client.get("stale")
                time.sleep(0.5)                 # the late reply lands now
                with pytest.raises(ProtocolError, match="connection closed"):
                    client.get("fresh")
            finally:
                client.close()

    def test_server_survives_client_disconnect_mid_set(self):
        engine = TwemcacheEngine(1 << 20, slab_size=1 << 16)
        with AsyncTwemcacheServer(engine) as server:
            raw = socket.create_connection(server.address)
            raw.sendall(b"set k 0 0 100\r\npartial")   # missing bytes
            raw.close()
            # the server must keep serving others
            with SocketClient(server.address) as client:
                assert client.set("ok", b"fine")
                assert client.get("ok").value == b"fine"
            engine.check_consistency()


class _FaultyPolicy(EvictionPolicy):
    """LRU that raises on the Nth victim selection."""

    name = "faulty"

    def __init__(self, fail_on_eviction: int) -> None:
        self._inner = LruPolicy()
        self._fail_on = fail_on_eviction
        self._evictions = 0

    def on_hit(self, key):
        self._inner.on_hit(key)

    def on_insert(self, key, size, cost):
        self._inner.on_insert(key, size, cost)

    def pop_victim(self, incoming=None):
        self._evictions += 1
        if self._evictions == self._fail_on:
            raise RuntimeError("injected policy crash")
        return self._inner.pop_victim(incoming)

    def on_remove(self, key):
        self._inner.on_remove(key)

    def __contains__(self, key):
        return key in self._inner

    def __len__(self):
        return len(self._inner)


class TestCrashingPolicy:
    def test_kvs_accounting_survives_policy_crash(self):
        """A policy exception propagates, but the store's byte accounting
        and residency map stay consistent (no phantom items)."""
        kvs = KVS(30, _FaultyPolicy(fail_on_eviction=2))
        kvs.insert("a", 10, 1)
        kvs.insert("b", 10, 1)
        kvs.insert("c", 10, 1)
        kvs.insert("d", 10, 1)   # first eviction: fine
        with pytest.raises(RuntimeError):
            kvs.insert("e", 10, 1)   # second eviction: injected crash
        # the failed insert must not have been half-applied
        assert "e" not in kvs
        assert kvs.used_bytes == sum(
            item.size for item in kvs.resident_items())
        assert kvs.used_bytes <= kvs.capacity


class TestPersistenceFailures:
    """Durable state under crashes: kills mid-save, torn logs, bit rot."""

    def _snapshot_once(self, tmp_path, keys=20):
        kvs = KVS(10_000, make_policy("camp", 10_000))
        for i in range(keys):
            kvs.insert(f"k{i}", 40, 10)
        Snapshotter(tmp_path).save(kvs)
        return kvs

    def test_kill_mid_snapshot_leaves_old_generation_intact(self, tmp_path,
                                                            monkeypatch):
        import repro.persistence.snapshot as snapshot_module
        original = self._snapshot_once(tmp_path)
        # the kill lands between writing the temp file and publishing it:
        # os.replace never runs, so generation 1 must stay authoritative
        killed = {}

        def die_before_publish(src, dst):
            killed["temp"] = src
            raise OSError("killed -9 (injected)")

        monkeypatch.setattr(snapshot_module.os, "replace",
                            die_before_publish)
        with pytest.raises(PersistenceError):
            Snapshotter(tmp_path).save(original)
        monkeypatch.undo()
        assert snapshot_generations(tmp_path) == [1]
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.generation == 1
        assert len(target) == len(original)

    def test_orphan_temp_file_is_ignored_by_recovery(self, tmp_path):
        original = self._snapshot_once(tmp_path)
        # a killed process can leave the temp file behind with no chance
        # to clean up; recovery must not even look at it
        (tmp_path / "snapshot-000002.snap.tmp").write_bytes(b"half-writ")
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.generation == 1
        assert len(target) == len(original)

    def test_truncated_log_tail_replays_valid_prefix(self, tmp_path):
        self._snapshot_once(tmp_path)
        log_path = log_path_for(tmp_path, 1)
        with AppendOnlyLog(log_path) as log:
            log.log_insert("post1", 40, 10)
            log.log_insert("post2", 40, 10)
        with open(log_path, "rb+") as handle:
            handle.truncate(log_path.stat().st_size - 5)   # torn tail
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.torn_tail_truncated
        assert report.log_records_replayed == 1
        assert "post1" in target and "post2" not in target
        # the repair really truncated: a second recovery reads it clean
        second = KVS(10_000, make_policy("camp", 10_000))
        assert not RecoveryManager(tmp_path).recover_into(
            second).torn_tail_truncated

    def test_garbage_log_tail_replays_valid_prefix(self, tmp_path):
        self._snapshot_once(tmp_path)
        log_path = log_path_for(tmp_path, 1)
        with AppendOnlyLog(log_path) as log:
            log.log_insert("post1", 40, 10)
        with open(log_path, "ab") as handle:
            handle.write(b"\xff" * 37)   # garbage, not a torn frame
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.log_records_replayed == 1
        assert report.torn_tail_truncated
        assert "post1" in target

    def test_checksum_mismatched_snapshot_falls_back_a_generation(
            self, tmp_path):
        kvs = KVS(10_000, make_policy("camp", 10_000))
        snapshotter = Snapshotter(tmp_path, keep_generations=2)
        for i in range(10):
            kvs.insert(f"old{i}", 40, 10)
        snapshotter.save(kvs)
        kvs.insert("newer", 40, 10)
        snapshotter.save(kvs)
        # bit rot inside generation 2's item section
        newest = snapshotter.path_for(2)
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        newest.write_bytes(bytes(raw))
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert report.corrupt_generations == [2]
        assert report.generation == 1
        assert "newer" not in target and "old3" in target

    def test_every_generation_corrupt_recovers_empty(self, tmp_path):
        self._snapshot_once(tmp_path)
        path = Snapshotter(tmp_path).path_for(1)
        path.write_bytes(b"\x00" * 64)
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert not report.recovered
        assert report.corrupt_generations == [1]
        assert len(target) == 0

    def test_store_warm_build_survives_corrupt_newest_generation(
            self, tmp_path):
        store = (StoreConfig(10_000).policy("camp")
                 .persistence(tmp_path, keep_generations=2).build())
        store.put("a", 40, 10)
        store.save()
        store.put("b", 40, 10)
        generation = store.save()
        store.persistence.close()
        newest = Snapshotter(tmp_path).path_for(generation)
        raw = bytearray(newest.read_bytes())
        raw[-10] ^= 0x10
        newest.write_bytes(bytes(raw))
        warm = (StoreConfig(10_000).policy("camp")
                .persistence(tmp_path, keep_generations=2).build())
        assert warm.last_recovery.corrupt_generations == [generation]
        assert warm.last_recovery.generation == generation - 1
        assert "a" in warm
        warm.persistence.close()


class TestInjectedDiskFaults:
    """Disk faults through the :mod:`repro.faults` file shim: ENOSPC
    and short writes on every append/publish path must fail cleanly
    (an exception, never silent loss), leave prior durable state
    intact, and succeed on the next attempt once the fault clears."""

    def _snapshot_once(self, tmp_path, keys=20):
        kvs = KVS(10_000, make_policy("camp", 10_000))
        for i in range(keys):
            kvs.insert(f"k{i}", 40, 10)
        Snapshotter(tmp_path).save(kvs)
        return kvs

    @pytest.mark.parametrize("fault", [
        Fault(kind="enospc", seam="file", target="snap"),
        Fault(kind="short_write", seam="file", target="snap",
              keep_bytes=16),
    ])
    def test_snapshot_write_fault_keeps_prior_generation(self, tmp_path,
                                                         fault):
        original = self._snapshot_once(tmp_path)
        with inject(FaultPlan([fault])):
            with pytest.raises(PersistenceError):
                Snapshotter(tmp_path).save(original)
        # generation 1 stays authoritative; no temp orphan left behind
        assert snapshot_generations(tmp_path) == [1]
        assert not list(tmp_path.glob("*.tmp"))
        target = KVS(10_000, make_policy("camp", 10_000))
        assert RecoveryManager(tmp_path).recover_into(target).generation == 1
        assert len(target) == len(original)
        # the disk "frees up": the very next save publishes generation 2
        Snapshotter(tmp_path).save(original)
        assert 2 in snapshot_generations(tmp_path)

    @pytest.mark.parametrize("fault", [
        Fault(kind="enospc", seam="file", target="aol"),
        Fault(kind="short_write", seam="file", target="aol",
              keep_bytes=5),
    ])
    def test_aol_append_fault_fails_cleanly_and_recovers(self, tmp_path,
                                                         fault):
        self._snapshot_once(tmp_path)
        log_path = log_path_for(tmp_path, 1)
        with AppendOnlyLog(log_path) as log:
            log.log_insert("pre", 40, 10)
            with inject(FaultPlan([fault])):
                with pytest.raises(PersistenceError):
                    log.log_insert("doomed", 40, 10)
            # the failed append truncated its torn frame: the next
            # append lands on a clean boundary and replays whole
            log.log_insert("post", 40, 10)
        target = KVS(10_000, make_policy("camp", 10_000))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert not report.torn_tail_truncated
        assert report.log_records_replayed == 2
        assert "pre" in target and "post" in target
        assert "doomed" not in target

    @pytest.mark.parametrize("fault", [
        Fault(kind="enospc", seam="file", target="segment"),
        Fault(kind="short_write", seam="file", target="segment",
              keep_bytes=7),
    ])
    def test_disk_tier_append_fault_keeps_prior_copy_live(self, tmp_path,
                                                          fault):
        tier = DiskTier(tmp_path, capacity_bytes=1 << 20,
                        segment_bytes=1 << 16)
        assert tier.put("stable", b"v1" * 20, size=60, cost=5)
        with inject(FaultPlan([fault])):
            with pytest.raises(PersistenceError):
                tier.put("stable", b"v2" * 20, size=60, cost=5)
        # the failed supersede left the original record live...
        record = tier.get("stable")
        assert record is not None and record.value == b"v1" * 20
        # ...the segment file is clean (no torn frame), so a cold
        # recovery adopts it...
        rebuilt = DiskTier(tmp_path, capacity_bytes=1 << 20,
                           segment_bytes=1 << 16)
        survivor = rebuilt.get("stable")
        assert survivor is not None and survivor.value == b"v1" * 20
        # ...and the next append on the original tier goes through
        assert tier.put("stable", b"v3" * 20, size=60, cost=5)
        assert tier.get("stable").value == b"v3" * 20


class TestClusterNodeLoss:
    def test_requests_reroute_after_node_removal(self):
        cluster = CooperativeCluster(["n1", "n2", "n3"],
                                     capacity_per_node=20_000, replicas=2)
        keys = [f"k{i}" for i in range(200)]
        for key in keys:
            cluster.get(key, 50, 100)
        # drop a node from the ring; survivors keep serving every key
        cluster.ring.remove_node("n2")
        for key in keys:
            outcome = cluster.get(key, 50, 100)
            assert outcome in ("local", "remote", "miss")
        holders = {name for key in keys
                   for name in cluster.ring.preference_list(key, 2)}
        assert "n2" not in holders

    def test_empty_ring_raises(self):
        cluster = CooperativeCluster(["only"], capacity_per_node=1000)
        cluster.ring.remove_node("only")
        with pytest.raises(ReproError):
            cluster.get("k", 10, 1)
