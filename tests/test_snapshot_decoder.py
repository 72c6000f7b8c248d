"""The single-pass snapshot decoder: recovery through it, its fallback on
a CRC-valid snapshot holding an invalid record, and the header's
fixed-width clock.

Recovery decodes each pair once, straight into the store's item table
and its policy (``SnapshotReader`` feeding ``KVS.restore``), so a record
found invalid half way must leave store and policy empty again before
the next older generation is tried.
"""

from __future__ import annotations

import json
import random
import shutil
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import KVS
from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.core import CampPolicy, make_policy
from repro.core.concurrent import ThreadSafePolicy
from repro.persistence import (
    RecoveryManager,
    SnapshotCorruptError,
    SnapshotReader,
    Snapshotter,
    load_snapshot,
    save_snapshot,
)
from repro.persistence.format import SNAPSHOT_MAGIC

POLICIES = {
    "lru": lambda capacity: make_policy("lru", capacity),
    "camp": lambda capacity: CampPolicy(stats=False),
    "gds": lambda capacity: make_policy("gds", capacity),
    "gdsf": lambda capacity: make_policy("gdsf", capacity),
    "thread-safe-camp": lambda capacity: ThreadSafePolicy(
        make_policy("camp", capacity)),
}


class ManualClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# byte surgery on a saved snapshot
# ---------------------------------------------------------------------------
def _frames(raw):
    """(offset, length) of every frame after the magic."""
    offset = len(SNAPSHOT_MAGIC)
    frames = []
    while offset < len(raw):
        length, _crc = struct.unpack_from("<II", raw, offset)
        frames.append((offset, length))
        offset += 8 + length
    return frames


def _refresh_crc(raw, frame):
    offset, length = frame
    body = bytes(raw[offset + 8:offset + 8 + length])
    struct.pack_into("<I", raw, offset + 4, zlib.crc32(body))


def _spoil_last_record(path, defect):
    """Make the last pair record of a snapshot invalid — size 0, a
    negative cost, or the first record's key — and re-checksum its block,
    so only the decoder's own checks can find it.  Every record of the
    file is a 6-byte key with int fields."""
    raw = bytearray(path.read_bytes())
    frames = _frames(raw)
    header = json.loads(bytes(raw[frames[0][0] + 8:
                                  frames[0][0] + 8 + frames[0][1]]))
    head = struct.calcsize("<BHq" + "q" * (header["arity"] + 1))
    first_offset, _ = frames[1]
    last_frame = frames[-2]             # the footer frame follows
    block_end = last_frame[0] + 8 + last_frame[1]
    record = block_end - head - 6
    assert raw[record] == 0 and raw[first_offset + 8] == 0   # int fields
    if defect == "size 0":
        struct.pack_into("<q", raw, record + 3, 0)
    elif defect == "negative cost":
        struct.pack_into("<q", raw, record + 11, -1)
    else:
        first_key = first_offset + 8 + head
        raw[record + head:block_end] = raw[first_key:first_key + 6]
    _refresh_crc(raw, last_frame)
    path.write_bytes(bytes(raw))


def _two_generations(directory, policy):
    """Generation 1 holds 300 ``old`` pairs of 40 B; generation 2 adds
    300 ``new`` pairs of 80 B, which raises the ratio multiplier — so a
    restore that kept anything of a half-imported generation 2 shows."""
    kvs = KVS(100_000, POLICIES[policy](100_000))
    snapshotter = Snapshotter(directory, keep_generations=2)
    for i in range(300):
        kvs.insert(f"old{i:03d}", 40, i % 5 + 1)
        if i % 7 == 0:
            kvs.lookup(f"old{i // 2:03d}")
    snapshotter.save(kvs)
    for i in range(300):
        kvs.insert(f"new{i:03d}", 80, i % 5 + 1)
    return snapshotter.path_for(snapshotter.save(kvs))


DEFECTS = ["size 0", "negative cost", "key twice"]


class TestInvalidRecordFallsBack:
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_decoder_raises_snapshot_corrupt(self, tmp_path, defect):
        path = _two_generations(tmp_path, "camp")
        _spoil_last_record(path, defect)
        match = "listed twice" if defect == "key twice" else "invalid pair"
        with pytest.raises(SnapshotCorruptError, match=match):
            load_snapshot(path)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_store_build_falls_back_a_generation(self, tmp_path, defect):
        path = _two_generations(tmp_path / "state", "camp")
        _spoil_last_record(path, defect)
        store = (StoreConfig(100_000).policy("camp")
                 .persistence(tmp_path / "state").build())
        report = store.last_recovery
        assert report.generation == 1
        assert report.corrupt_generations == [2]
        assert report.items_restored == 300
        assert "old000" in store.kvs and "new000" not in store.kvs
        store.kvs.check_consistency()
        store.persistence.close()

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_fallback_restores_exactly_the_older_generation(
            self, tmp_path, policy, defect):
        path = _two_generations(tmp_path / "spoilt", policy)
        shutil.copytree(tmp_path / "spoilt", tmp_path / "clean")
        (tmp_path / "clean" / path.name).unlink()
        _spoil_last_record(path, defect)
        fallen = KVS(100_000, POLICIES[policy](100_000))
        report = RecoveryManager(tmp_path / "spoilt").recover_into(fallen)
        assert (report.generation, report.corrupt_generations) == (1, [2])
        clean = KVS(100_000, POLICIES[policy](100_000))
        RecoveryManager(tmp_path / "clean").recover_into(clean)
        assert fallen.policy.export_state() == clean.policy.export_state()
        assert sorted(i.key for i in fallen.resident_items()) == \
            sorted(i.key for i in clean.resident_items())
        fallen.check_consistency()
        tape = [(f"new{i:03d}", 80, i % 3 + 1) for i in range(0, 300, 3)]
        assert [fallen.access(*row) for row in tape] == \
            [clean.access(*row) for row in tape]

    def test_only_corrupt_generation_leaves_the_store_cold_and_usable(
            self, tmp_path):
        kvs = KVS(100_000, CampPolicy(stats=False))
        for i in range(50):
            kvs.insert(f"one{i:03d}", 40, 3)
        path = Snapshotter(tmp_path).path_for(Snapshotter(tmp_path).save(kvs))
        _spoil_last_record(path, "size 0")
        target = KVS(100_000, CampPolicy(stats=False))
        report = RecoveryManager(tmp_path).recover_into(target)
        assert not report.recovered and report.corrupt_generations == [1]
        assert len(target) == 0 and len(target.policy) == 0
        assert target.insert("fresh", 40, 3) is Outcome.MISS_INSERTED
        target.check_consistency()


# ---------------------------------------------------------------------------
# the header's clock
# ---------------------------------------------------------------------------
class TestClockIndependentBytes:
    def _kvs(self, clock):
        kvs = KVS(10_000, CampPolicy(stats=False), clock=clock)
        for i in range(20):
            kvs.insert(f"k{i}", 30 + i, i % 4, ttl=None if i % 3 else 60.0)
        return kvs

    def test_two_saves_of_one_state_are_byte_identical(self, tmp_path):
        kvs = self._kvs(ManualClock(1000.0))
        save_snapshot(tmp_path / "a.snap", kvs)
        save_snapshot(tmp_path / "b.snap", kvs)
        assert (tmp_path / "a.snap").read_bytes() == \
            (tmp_path / "b.snap").read_bytes()

    def test_saves_at_different_clock_readings_have_equal_length(
            self, tmp_path):
        clock = ManualClock(1000.0)
        kvs = self._kvs(clock)
        sizes = set()
        for reading in (1000.0, 1000.5, 1234.5678901, 98765.4321, 1e9 / 3):
            clock.now = reading
            path = tmp_path / f"{reading}.snap"
            save_snapshot(path, kvs)
            sizes.add(path.stat().st_size)
            assert load_snapshot(path).saved_clock == reading
        assert len(sizes) == 1

    def test_file_with_a_json_number_clock_still_loads(self, tmp_path):
        clock = ManualClock(1000.0)
        kvs = self._kvs(clock)
        path = tmp_path / "old.snap"
        save_snapshot(path, kvs)
        raw = bytearray(path.read_bytes())
        offset, length = _frames(raw)[0]
        header = json.loads(bytes(raw[offset + 8:offset + 8 + length]))
        assert len(header["clock"]) == 16
        header["clock"] = 1000.0            # as files written before held it
        body = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        raw[offset:offset + 8 + length] = \
            struct.pack("<II", len(body), zlib.crc32(body)) + body
        path.write_bytes(bytes(raw))
        data = load_snapshot(path, now=5.0)
        assert data.saved_clock == 1000.0
        by_key = {item.key: item for item in data.items}
        assert by_key["k0"].expire_at == pytest.approx(5.0 + 60.0)
        assert by_key["k1"].expire_at == 0.0

    def test_malformed_clock_is_a_corrupt_header(self, tmp_path):
        kvs = self._kvs(ManualClock(1.0))
        path = tmp_path / "bad.snap"
        save_snapshot(path, kvs)
        raw = bytearray(path.read_bytes())
        offset, length = _frames(raw)[0]
        header = json.loads(bytes(raw[offset + 8:offset + 8 + length]))
        header["clock"] = "not-hex-digits!!"
        body = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        raw[offset:offset + 8 + length] = \
            struct.pack("<II", len(body), zlib.crc32(body)) + body
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="header"):
            load_snapshot(path)


# ---------------------------------------------------------------------------
# save -> recover through the single pass, against a never-restarted twin
# ---------------------------------------------------------------------------
_KEYS = st.text("abcdefgh", min_size=1, max_size=3)
_TAPE = st.lists(st.tuples(
    _KEYS,
    st.integers(1, 300),                                        # size
    st.one_of(st.integers(0, 500),
              st.floats(0, 500, allow_nan=False)),              # cost
    st.one_of(st.none(), st.integers(1, 40)),                   # ttl
    st.one_of(st.none(), st.binary(max_size=8)),                # payload
), min_size=1, max_size=60)


def _drive(kvs, clock, origin, rows):
    """Access each (key, size, cost) with the clock stepping 1.5 s from
    ``origin``; returns the outcomes."""
    outcomes = []
    for step, (key, size, cost) in enumerate(rows):
        clock.now = origin + 1.5 * (step + 1)
        outcomes.append(kvs.access(key, size, cost))
    return outcomes


class TestSinglePassRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(policy=st.sampled_from(sorted(POLICIES)), tape=_TAPE,
           seed=st.integers(0, 2**16))
    def test_recover_matches_a_never_restarted_twin(
            self, tmp_path_factory, policy, tape, seed):
        capacity = 2_000
        saver_clock = ManualClock(1000.0)
        source = KVS(capacity, POLICIES[policy](capacity), clock=saver_clock)
        payloads = {}
        for key, size, cost, ttl, payload in tape:
            if source.insert(key, size, cost, ttl=ttl) \
                    is Outcome.MISS_INSERTED:
                payloads.pop(key, None)
                if payload is not None:
                    payloads[key] = payload
            source.lookup(tape[0][0])
        payloads = {k: v for k, v in payloads.items() if k in source}
        before = source.policy.export_state()
        directory = tmp_path_factory.mktemp("single-pass")
        Snapshotter(directory).save(source, payloads=payloads)

        restorer_clock = ManualClock(50.0)
        target = KVS(capacity, POLICIES[policy](capacity),
                     clock=restorer_clock)
        report = RecoveryManager(directory).recover_into(target)
        assert report.items_restored == len(source)
        assert report.payloads == payloads
        # repr tells 5 from 5.0: cost and field types survive
        assert repr(target.policy.export_state()) == repr(before)
        target.check_consistency()

        rng = random.Random(seed)
        keys = sorted({row[0] for row in tape}) + ["x", "y", "z"]
        rows = [(rng.choice(keys), rng.randrange(1, 300),
                 rng.choice([0, 1, 7, 2.5, 300])) for _ in range(500)]
        assert _drive(target, restorer_clock, 50.0, rows) == \
            _drive(source, saver_clock, 1000.0, rows)
        assert repr(target.policy.export_state()) == \
            repr(source.policy.export_state())

    @settings(max_examples=30, deadline=None)
    @given(policy=st.sampled_from(sorted(POLICIES)), tape=_TAPE)
    def test_smaller_store_evicts_down_to_the_same_victims(
            self, tmp_path_factory, policy, tape):
        capacity = 2_000
        source = KVS(capacity, POLICIES[policy](capacity),
                     clock=ManualClock(1000.0))
        for key, size, cost, ttl, _payload in tape:
            source.insert(key, size, cost, ttl=ttl)
        path = tmp_path_factory.mktemp("smaller") / "s.snap"
        save_snapshot(path, source)
        small = capacity // 4
        # the restore as it was before the single pass: the policy's own
        # export and the item list, installed one after the other
        control = KVS(small, POLICIES[policy](small))
        expected = control.restore(list(source.resident_items()),
                                   source.policy.export_state())
        target = KVS(small, POLICIES[policy](small))
        with SnapshotReader(path, now=1000.0) as reader:
            evicted = target.restore(reader.expiries, reader.policy_state)
        assert [item.key for item in evicted] == \
            [item.key for item in expected]
        assert target.used_bytes == control.used_bytes <= small
        assert repr(target.policy.export_state()) == \
            repr(control.policy.export_state())
        target.check_consistency()
