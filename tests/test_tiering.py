"""The disk victim tier, broken on purpose.

Property tests for the one invariant a two-tier cache must never lose —
a key lives in DRAM or on disk, never both — plus failure injection on
the segment files (torn tails, garbage frames, a crash mid-demotion) in
the style of ``tests/test_failure_injection.py``: after every injected
fault, recovery serves only intact records and never a corrupt one.
"""

import os
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.core import CampPolicy
from repro.errors import ConfigurationError
from repro.persistence.format import (
    PersistenceError,
    encode_payload,
    write_magic,
    write_record,
)
from repro.tiering import (
    AlwaysDemote,
    CostDensityFilter,
    DiskTier,
    NeverDemote,
    TieredBackend,
)
from repro.tiering.disk_tier import SEGMENT_MAGIC


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

    def test_key_evicted_from_the_active_segment_stays_evicted(
            self, tmp_path):
        """Regression: a key evicted on its own from the only (active)
        segment kept its record in the file with nothing superseding
        it, so a reopen after a later delete freed room served it
        again, with its old payload."""
        tier = DiskTier(str(tmp_path), 1000, recover=False)
        for key in ("x", "y", "z"):
            tier.put(key, key.encode() * 10, 400, cost=5.0)
        assert sorted(tier.keys()) == ["y", "z"]     # x evicted
        tier.delete("y")
        tier.close()

        recovered = DiskTier(str(tmp_path), 1000, recover=True)
        assert sorted(recovered.keys()) == ["z"]
        assert recovered.get("x") is None
        recovered.check_invariants()
        recovered.close()


class TestCompaction:
    def test_gc_copies_live_frames_unchanged(self, tmp_path):
        """Compaction moves each live record's frame byte for byte (the
        write clock inside it included) and keeps every total in sync."""
        clock = [10.0]
        tier = DiskTier(str(tmp_path), 1 << 20, segment_bytes=1024,
                        clock=lambda: clock[0], auto_gc_dead_ratio=None)
        keys = fill(tier, 30)
        first = tier.peek(keys[0]).segment_id
        doomed = [key for key in keys if tier.peek(key).segment_id == first]
        survivor = doomed.pop()
        for key in doomed:
            tier.delete(key)
        frame = self.frame_of(tier, survivor)
        clock[0] = 99_999.5                    # a re-encode would show
        assert tier.gc() >= 1
        assert tier.peek(survivor).segment_id != first
        assert self.frame_of(tier, survivor) == frame
        assert tier.bytes_rewritten == 200
        tier.check_invariants()
        tier.close()
        recovered = DiskTier(str(tmp_path), 1 << 20, segment_bytes=1024)
        for key in keys:
            assert (recovered.get(key) is None) == (key in doomed)
        recovered.check_invariants()
        recovered.close()

    @staticmethod
    def frame_of(tier: DiskTier, key: str) -> bytes:
        entry = tier.peek(key)
        path = tier.directory / f"segment-{entry.segment_id:06d}.seg"
        data = path.read_bytes()
        length = int.from_bytes(data[entry.offset:entry.offset + 4],
                                "little")
        return data[entry.offset:entry.offset + 8 + length]


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

    def test_format_1_segments_are_quarantined_and_left_alone(self,
                                                              tmp_path):
        """A directory still holding ``CAMPSEG1`` files (JSON bodies)
        builds; none of their records is served, they count as torn, and
        neither recovery nor traffic appends to or rewrites them."""
        old_keys = [f"old-{index}" for index in range(5)]
        old_files = []
        for segment_id in (1, 2):
            path = tmp_path / f"segment-{segment_id:06d}.seg"
            with path.open("wb") as handle:
                write_magic(handle, b"CAMPSEG1")
                for key in old_keys:
                    write_record(handle, {
                        "k": key, "s": 100, "c": 5.0, "e": 0.0,
                        "w": 1.0, "f": 0, "v": encode_payload(b"old")})
            old_files.append((path, path.read_bytes()))

        store = (StoreConfig(300)
                 .tiered(str(tmp_path), 1 << 20, segment_bytes=1024)
                 .build())
        backend = store.kvs
        assert store.stats()["tier_torn_segments"] == 2
        for key in old_keys:
            assert not backend.tier.contains(key)
            assert store.get(key).outcome is Outcome.MISS
        for index in range(40):    # demote, promote, seal and collect
            store.put(f"new-{index}", 100, 5.0, value=b"n" * 30)
            store.get(f"new-{index // 2}")
        assert backend.tier.segments_created > 1
        backend.check_consistency()
        backend.close()
        for path, original in old_files:
            assert path.read_bytes() == original
        new_files = [path for path in segment_files(tmp_path)
                     if path not in {old for old, _ in old_files}]
        assert new_files
        for path in new_files:
            assert path.read_bytes()[:8] == SEGMENT_MAGIC == b"CAMPSEG2"

    def test_intact_frame_of_another_key_or_a_tombstone_not_served(
            self, tmp_path):
        """A CRC-intact frame is served only when it is a value record
        for the key asked for."""
        tier = DiskTier(str(tmp_path), 1 << 20, recover=False)
        fill(tier, 3)
        tier.delete("key-0002")             # its tombstone ends the file
        tombstone_at = (segment_files(tmp_path)[-1].stat().st_size
                        - (8 + 1 + len("key-0002")))
        tier.put("key-0002", b"again", 200, cost=10.0)
        tier.peek("key-0000").offset = tier.peek("key-0001").offset
        tier.peek("key-0002").offset = tombstone_at
        assert tier.get("key-0000") is None
        assert tier.read_value("key-0002") is None
        assert tier.corrupt_reads == 2
        assert len(tier) == 1 and tier.get("key-0001") is not None
        tier.check_invariants()
        tier.close()

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


class TestClockIndependence:
    """Where segment boundaries fall decides which segments capacity
    pressure evicts, so it must not depend on the clock's reading."""

    @staticmethod
    def replay(directory, now: float) -> "list[Outcome]":
        rng = random.Random(31)
        n_keys = 3_000
        weights = [1.0 / (rank + 1) ** 0.8 for rank in range(n_keys)]
        ranks = rng.choices(range(n_keys), weights=weights, k=20_000)
        store = (StoreConfig(40_000).policy(CampPolicy())
                 .clock(lambda: now)
                 .tiered(str(directory), 200_000, segment_bytes=4_096,
                         recover=False)
                 .build())
        outcomes = []
        try:
            for rank in ranks:
                key = f"key-{rank:05d}"
                size = 20 + rank * 37 % 180
                outcome = store.get(key).outcome
                if outcome is Outcome.MISS:
                    outcome = store.put_outcome(
                        key, size, (1, 100, 10_000)[rank % 3],
                        value=key.encode() * (size // 9))
                outcomes.append(outcome)
            assert store.stats()["tier_evictions"] > 0
            store.check_consistency()
        finally:
            store.kvs.close()
        return outcomes

    def test_outcomes_do_not_depend_on_the_clock_reading(
            self, tmp_path_factory):
        early = self.replay(tmp_path_factory.mktemp("early"), 5.0)
        late = self.replay(tmp_path_factory.mktemp("late"), 1_234_567.891)
        assert early == late


NOW = 100.0

key_texts = st.one_of(
    st.text(max_size=24),
    st.sampled_from(["k" * 65_535, "é" * 32_767, "\U0001F600" * 16_383]))
payloads = st.one_of(st.none(), st.just(b""), st.binary(max_size=300))
costs = st.one_of(
    st.sampled_from([-(1 << 63), (1 << 63) - 1, 0]),
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.floats(allow_nan=False))
expiries = st.one_of(st.just(0.0), st.floats(NOW + 1.0, 1e15))
flag_words = st.integers(0, (1 << 32) - 1)


def frozen_tier(directory) -> DiskTier:
    return DiskTier(str(directory), 1 << 62, clock=lambda: NOW,
                    auto_gc_dead_ratio=None)


class TestRecordCodec:
    """Every value record reads back as it was put, out-of-range fields
    are refused before anything is written, and no damaged frame is
    ever served."""

    @settings(max_examples=60, deadline=None)
    @given(key=key_texts, value=payloads, size=st.integers(0, 1 << 40),
           cost=costs, expire_at=expiries, flags=flag_words)
    def test_round_trip(self, tmp_path_factory, key, value, size, cost,
                        expire_at, flags):
        directory = tmp_path_factory.mktemp("codec")
        tier = frozen_tier(directory)
        assert tier.put(key, value, size, cost, expire_at, flags)
        live = tier.get(key)
        tier.close()
        recovered = frozen_tier(directory)
        for record in (live, recovered.get(key)):
            assert record is not None
            assert record.value == value
            assert (record.value is None) == (value is None)
            assert (record.size, record.flags) == (size, flags)
            assert record.cost == cost and type(record.cost) is type(cost)
            assert record.expire_at == pytest.approx(expire_at)
        recovered.check_invariants()
        recovered.close()

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(["cost", "flags", "key"]),
           data=st.data())
    def test_out_of_range_refused_and_prior_copy_served(
            self, tmp_path_factory, field, data):
        directory = tmp_path_factory.mktemp("range")
        tier = frozen_tier(directory)
        assert tier.put("stable", b"v1", 10, 5)
        before = [path.read_bytes() for path in segment_files(directory)]
        key, cost, flags = "stable", 5, 0
        if field == "cost":
            cost = data.draw(st.one_of(
                st.integers(1 << 63, 1 << 70),
                st.integers(-(1 << 70), -(1 << 63) - 1)))
        elif field == "flags":
            flags = data.draw(st.one_of(
                st.integers(1 << 32, 1 << 40), st.integers(-(1 << 40), -1)))
        else:
            key = data.draw(st.sampled_from(
                ["k" * 65_536, "é" * 32_768, "\ud800"]))
        with pytest.raises(PersistenceError):
            tier.put(key, b"v2", 10, cost, flags=flags)
        # nothing was written, and the prior copy still serves
        assert [path.read_bytes()
                for path in segment_files(directory)] == before
        record = tier.get("stable")
        assert record is not None and record.value == b"v1"
        assert record.cost == 5 and record.flags == 0
        tier.check_invariants()
        tier.close()

    @settings(max_examples=60, deadline=None)
    @given(key=key_texts, value=payloads, cost=costs, data=st.data())
    def test_flipped_byte_never_served(self, tmp_path_factory, key, value,
                                       cost, data):
        directory = tmp_path_factory.mktemp("flip")
        tier = frozen_tier(directory)
        assert tier.put(key, value, 50, cost)
        offset = tier.peek(key).offset
        path = segment_files(directory)[-1]
        raw = bytearray(path.read_bytes())
        position = data.draw(st.integers(offset, len(raw) - 1))
        raw[position] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        assert tier.get(key) is None
        assert tier.corrupt_reads == 1
        tier.check_invariants()
        tier.close()
        recovered = frozen_tier(directory)
        assert recovered.get(key) is None
        recovered.check_invariants()
        recovered.close()
