"""The disk victim tier, broken on purpose.

Property tests for the one invariant a two-tier cache must never lose —
a key lives in DRAM or on disk, never both — plus failure injection on
the segment files (torn tails, garbage frames, a crash mid-demotion) in
the style of ``tests/test_failure_injection.py``: after every injected
fault, recovery serves only intact records and never a corrupt one.
"""

import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.errors import ConfigurationError
from repro.tiering import (
    AlwaysDemote,
    CostDensityFilter,
    DiskTier,
    NeverDemote,
    TieredBackend,
)


def segment_files(directory) -> "list[pathlib.Path]":
    return sorted(pathlib.Path(directory).glob("segment-*.seg"))


def fill(tier: DiskTier, count: int, *, size: int = 200,
         payload: bool = True) -> "list[str]":
    keys = []
    for index in range(count):
        key = f"key-{index:04d}"
        value = f"value-{index:04d}".encode() if payload else None
        assert tier.put(key, value, size, cost=10.0)
        keys.append(key)
    return keys


class TestResidencyDisjointness:
    """A key must never be charged in L1 and L2 at the same time."""

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(0, 15),      # key id
                  st.sampled_from("aid"),  # access/insert/delete
                  st.integers(20, 60)),    # size
        min_size=1, max_size=120))
    def test_disjoint_under_churn(self, tmp_path_factory, ops):
        directory = tmp_path_factory.mktemp("churn")
        store = (StoreConfig(400)
                 .tiered(str(directory), 4000, recover=False)
                 .build())
        backend = store.kvs
        keys = [f"k{index}" for index in range(16)]
        try:
            for key_id, action, size in ops:
                key = keys[key_id]
                if action == "a":
                    store.access(key, size, float(size))
                elif action == "i":
                    store.put(key, size, float(size),
                              value=key.encode())
                else:
                    store.delete(key)
                # the invariant under test: L1 and L2 never both hold it
                for probe in keys:
                    in_l1 = backend.kvs.peek(probe) is not None
                    in_l2 = backend.tier.contains(probe)
                    assert not (in_l1 and in_l2), (
                        f"{probe} resident in both tiers after "
                        f"{action}({key})")
            backend.check_consistency()
        finally:
            backend.close()

    def test_promotion_leaves_no_disk_copy(self, tmp_path):
        store = (StoreConfig(300)
                 .tiered(str(tmp_path), 10_000, recover=False)
                 .build())
        backend = store.kvs
        # overflow DRAM so early keys demote to disk
        for index in range(12):
            store.put(f"p{index}", 100, 50.0, value=b"x" * 10)
        demoted = [key for key in (f"p{index}" for index in range(12))
                   if backend.resident_level(key) == 2]
        assert demoted, "expected DRAM overflow to demote something"
        victim = demoted[0]
        outcome = store.access(victim, 100, 50.0).outcome
        assert outcome is Outcome.HIT_L2
        assert backend.resident_level(victim) == 1
        assert not backend.tier.contains(victim)
        backend.check_consistency()
        backend.close()


class TestTornSegmentTail:
    def test_torn_tail_truncated_and_rest_served(self, tmp_path):
        tier = DiskTier(str(tmp_path), 1 << 20, recover=False)
        keys = fill(tier, 20)
        tier.close()

        newest = segment_files(tmp_path)[-1]
        intact_size = newest.stat().st_size
        # tear the tail mid-frame: append half a record's worth of a
        # fresh put, as if the process died inside write()
        with newest.open("r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.write(b"\x99" * 11)

        recovered = DiskTier(str(tmp_path), 1 << 20, recover=True)
        assert recovered.torn_segments == 1
        assert recovered.recovered_records == len(keys)
        for key in keys:
            record = recovered.get(key)
            assert record is not None
            assert record.value == f"value-{key[-4:]}".encode()
        # the torn bytes are gone from disk, not just skipped
        assert newest.stat().st_size == intact_size
        recovered.check_invariants()
        recovered.close()

    def test_crash_mid_demotion_serves_everything_intact(self, tmp_path):
        """Kill the store mid-demotion (last record half-written): every
        record before the tear must survive and serve."""
        store = (StoreConfig(500)
                 .tiered(str(tmp_path), 1 << 20, recover=False)
                 .build())
        backend = store.kvs
        for index in range(30):
            store.put(f"c{index}", 100, 25.0, value=b"v" * 20)
        demoted = [key for key in backend.tier.keys()]
        assert demoted, "expected demotions before the crash"
        # no close(): the process dies, and the tear eats the tail record
        newest = segment_files(tmp_path)[-1]
        with newest.open("r+b") as handle:
            handle.truncate(max(newest.stat().st_size - 7, 12))

        recovered = DiskTier(str(tmp_path), 1 << 20, recover=True)
        assert recovered.recovered_records >= len(demoted) - 1
        served = sum(1 for key in demoted
                     if recovered.get(key) is not None)
        assert served >= len(demoted) - 1
        recovered.check_invariants()
        recovered.close()
        backend.close()


class TestRecoveryAccounting:
    def test_same_segment_supersede_keeps_live_bytes_in_sync(self, tmp_path):
        """Regression: a record superseded (or tombstoned) by a later
        frame in the *same* segment must be debited from that segment's
        live bytes during recovery, not just from the index."""
        tier = DiskTier(str(tmp_path), 1 << 20, recover=False)
        for _ in range(3):                       # supersede in place
            tier.put("hot", b"payload", 300, cost=5.0)
        tier.put("gone", b"bye", 200, cost=5.0)
        tier.delete("gone")                      # tombstone, same segment
        tier.close()

        recovered = DiskTier(str(tmp_path), 1 << 20, recover=True)
        assert recovered.get("hot") is not None
        assert recovered.get("gone") is None
        recovered.check_invariants()             # live-byte accounting
        recovered.close()


class TestGarbageFrames:
    def test_garbage_mid_segment_stops_scan_cleanly(self, tmp_path):
        tier = DiskTier(str(tmp_path), 1 << 20, recover=False)
        keys = fill(tier, 10)
        offsets = {key: tier.peek(key).offset for key in keys}
        tier.close()

        # flip bytes inside the 6th record's frame: CRC now fails there
        target = segment_files(tmp_path)[-1]
        with target.open("r+b") as handle:
            handle.seek(offsets[keys[5]] + 12)
            handle.write(b"\xff\x00\xff\x00")

        recovered = DiskTier(str(tmp_path), 1 << 20, recover=True)
        # records before the garbage frame survive; the scan cannot
        # trust anything after an unframed hole, so the rest are gone
        for key in keys[:5]:
            assert recovered.get(key) is not None
        for key in keys[5:]:
            assert recovered.get(key) is None
        recovered.check_invariants()
        recovered.close()

    def test_bad_magic_segment_is_quarantined(self, tmp_path):
        tier = DiskTier(str(tmp_path), 1 << 20, segment_bytes=1024,
                        recover=False)
        keys = fill(tier, 40)   # several sealed segments
        tier.close()
        files = segment_files(tmp_path)
        assert len(files) > 2
        with files[0].open("r+b") as handle:
            handle.write(b"NOTMAGIC")

        recovered = DiskTier(str(tmp_path), 1 << 20, segment_bytes=1024,
                             recover=True)
        served = [key for key in keys if recovered.get(key) is not None]
        # the poisoned segment's records are lost, the rest all serve
        assert served
        assert len(served) < len(keys)
        recovered.check_invariants()
        recovered.close()

    def test_corrupt_read_never_served_and_entry_dropped(self, tmp_path):
        """Corruption discovered at read time (after a clean recovery)
        must surface as a miss, never as garbage data."""
        tier = DiskTier(str(tmp_path), 1 << 20, recover=False)
        keys = fill(tier, 5)
        entry = tier.peek(keys[2])
        target = segment_files(tmp_path)[-1]
        with target.open("r+b") as handle:
            handle.seek(entry.offset + 10)
            handle.write(b"\xde\xad\xbe\xef")

        assert tier.get(keys[2]) is None
        assert tier.corrupt_reads == 1
        assert not tier.contains(keys[2])   # dropped, not retried
        for key in keys[:2] + keys[3:]:
            assert tier.get(key) is not None
        tier.check_invariants()
        tier.close()


class TestDemotionFilters:
    def test_cost_density_filter_thresholds(self):
        choosy = CostDensityFilter(min_cost_per_byte=0.5)
        assert choosy.should_demote("k", 100, 60.0)
        assert not choosy.should_demote("k", 100, 40.0)
        assert AlwaysDemote().should_demote("k", 1, 0.0)
        assert not NeverDemote().should_demote("k", 1, 1e9)

    def test_never_demote_writes_nothing(self, tmp_path):
        tier = DiskTier(str(tmp_path), 1 << 20, recover=False)
        backend = None
        try:
            from repro.cache.kvs import KVS
            from repro.core import CampPolicy
            backend = TieredBackend(KVS(300, CampPolicy()), tier,
                                    demotion_filter=NeverDemote())
            for index in range(12):
                backend.insert(f"n{index}", 100, 10.0, value=b"z")
            assert backend.demotions == 0
            assert backend.filtered_drops > 0
            assert len(tier) == 0
        finally:
            (backend or tier).close()


def serve(store, face, key, size, cost):
    """One request for ``key`` through one of the Store's request faces."""
    if face == "access":
        return store.access(key, size, cost).outcome
    if face == "access_outcome":
        return store.access_outcome(key, size, cost)
    return store.get_or_compute(
        key, lambda k: pytest.fail(f"{k} recomputed instead of served from disk"),
        size=size, cost=cost).outcome


class TestL2Charging:
    """A disk serve costs ``l2_hit_cost_factor × cost``, not a recompute."""

    FACTOR = 0.25
    COST = 40.0

    def demoted_store(self, tmp_path):
        """An LRU tiered store with "dear" (cost 40) pushed to disk."""
        store = (StoreConfig(300).policy("lru").track_metrics()
                 .tiered(str(tmp_path), 1 << 20,
                         l2_hit_cost_factor=self.FACTOR, recover=False)
                 .build())
        # the first request is cold (never charged); the put gives the
        # pair a payload, which get_or_compute needs served from disk
        assert store.access("dear", 100, self.COST).outcome \
            is Outcome.MISS_INSERTED
        store.put("dear", 100, self.COST, value=b"dear bytes")
        index = 0
        while store.kvs.resident_level("dear") == 1:
            store.put(f"f{index}", 100, 1.0, value=b"x")
            index += 1
        assert store.kvs.resident_level("dear") == 2
        return store

    @pytest.mark.parametrize("face", ["access", "access_outcome",
                                      "get_or_compute"])
    @pytest.mark.parametrize("promoted", [True, False],
                             ids=["hit_l2", "miss_promoted"])
    def test_l2_serve_charges_factor_times_cost(self, tmp_path, face,
                                                promoted):
        store = self.demoted_store(tmp_path)
        backend = store.kvs
        if not promoted:
            # DRAM too small to take the record back: served from disk
            # without a promotion
            backend.kvs.resize(50)
        metrics = store.metrics
        missed, l2_served = metrics.cost_missed, metrics.cost_l2_served
        total_miss, cost_total = metrics.total_miss_cost, metrics.cost_total
        outcome = serve(store, face, "dear", 100, self.COST)
        assert outcome is (Outcome.HIT_L2 if promoted
                           else Outcome.MISS_PROMOTED)
        assert metrics.l2_hits == 1
        assert metrics.cost_l2_served - l2_served == self.FACTOR * self.COST
        assert metrics.total_miss_cost - total_miss \
            == self.FACTOR * self.COST
        assert metrics.cost_missed == missed
        assert metrics.cost_total - cost_total == self.COST
        backend.close()

    @pytest.mark.parametrize("factor", [1.0, -0.1])
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_out_of_range_factor_refused_at_build(self, tmp_path, factor):
        """Refused by ``build()``, without leaking the tier's open segment."""
        config = (StoreConfig(300)
                  .tiered(str(tmp_path), 1 << 20,
                          l2_hit_cost_factor=factor, recover=False))
        with pytest.raises(ConfigurationError, match="l2_hit_cost_factor"):
            config.build()


class TestTtlThroughTheTier:
    def test_demoted_ttl_expires_on_disk(self, tmp_path):
        clock = [1000.0]
        store = (StoreConfig(300).clock(lambda: clock[0])
                 .tiered(str(tmp_path), 1 << 20, recover=False)
                 .build())
        backend = store.kvs
        store.put("mortal", 100, 10.0, ttl=50.0, value=b"m")
        index = 0
        while backend.resident_level("mortal") == 1:   # push it to disk
            store.put(f"f{index}", 100, 10.0, value=b"x")
            index += 1
        assert backend.resident_level("mortal") == 2
        clock[0] += 100.0          # lapses while on disk
        assert store.access("mortal", 100, 10.0).outcome \
            is Outcome.MISS_INSERTED
        backend.close()

    def test_promoted_ttl_survives_with_remaining_life(self, tmp_path):
        clock = [1000.0]
        store = (StoreConfig(300).clock(lambda: clock[0])
                 .tiered(str(tmp_path), 1 << 20, recover=False)
                 .build())
        backend = store.kvs
        store.put("mortal", 100, 10.0, ttl=50.0, value=b"m")
        index = 0
        while backend.resident_level("mortal") == 1:
            store.put(f"f{index}", 100, 10.0, value=b"x")
            index += 1
        assert backend.resident_level("mortal") == 2
        clock[0] += 20.0
        assert store.access("mortal", 100, 10.0).outcome is Outcome.HIT_L2
        item = backend.kvs.peek("mortal")
        assert item is not None
        assert item.expire_at == pytest.approx(clock[0] + 30.0, abs=1.0)
        backend.close()
