"""Admission controllers and the section 4.1 concurrency extensions."""

import os
import random
import subprocess
import sys
import threading

import pytest

from repro.core import (
    AlwaysAdmit,
    CampPolicy,
    LruPolicy,
    ProbabilisticAdmission,
    SecondHitAdmission,
    ShardedCampPolicy,
    ThreadSafePolicy,
)
from repro.errors import ConfigurationError, EvictionError, MissingKeyError


class TestAlwaysAdmit:
    def test_admits_everything(self):
        controller = AlwaysAdmit()
        assert controller.admit("k", 1, 1)
        controller.on_access("k")
        assert controller.admit("k", 10 ** 9, 0)


class TestProbabilisticAdmission:
    def test_probability_one_admits_all(self):
        controller = ProbabilisticAdmission(1.0)
        assert all(controller.admit(f"k{i}", 1, 1) for i in range(100))

    def test_deterministic_with_seed(self):
        a = ProbabilisticAdmission(0.5, seed=7)
        b = ProbabilisticAdmission(0.5, seed=7)
        decisions_a = [a.admit(f"k{i}", 1, 1) for i in range(200)]
        decisions_b = [b.admit(f"k{i}", 1, 1) for i in range(200)]
        assert decisions_a == decisions_b

    def test_rate_roughly_matches(self):
        controller = ProbabilisticAdmission(0.3, seed=1)
        admitted = sum(controller.admit(f"k{i}", 1, 1) for i in range(5000))
        assert 0.25 < admitted / 5000 < 0.35

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticAdmission(0.0)
        with pytest.raises(ConfigurationError):
            ProbabilisticAdmission(1.5)


class TestSecondHitAdmission:
    def test_first_request_rejected(self):
        controller = SecondHitAdmission(window=100)
        assert not controller.admit("a", 1, 1)

    def test_second_request_admitted(self):
        controller = SecondHitAdmission(window=100)
        controller.admit("a", 1, 1)
        assert controller.admit("a", 1, 1)

    def test_hits_keep_key_warm(self):
        controller = SecondHitAdmission(window=100)
        controller.on_access("a")
        assert controller.admit("a", 1, 1)

    def test_rotation_eventually_forgets(self):
        controller = SecondHitAdmission(window=10)
        controller.on_access("old")
        # two full generations of distinct keys flush "old"
        for i in range(25):
            controller.on_access(f"filler{i}")
        assert not controller.seen("old")

    def test_one_hit_wonders_never_admitted(self):
        controller = SecondHitAdmission(window=50)
        decisions = [controller.admit(f"unique{i}", 1, 1) for i in range(40)]
        assert not any(decisions)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            SecondHitAdmission(window=0)


class TestThreadSafePolicy:
    def test_delegation(self):
        policy = ThreadSafePolicy(LruPolicy())
        policy.on_insert("a", 1, 1)
        policy.on_hit("a")
        assert "a" in policy
        assert len(policy) == 1
        assert policy.pop_victim() == "a"

    def test_inner_accessor(self):
        inner = CampPolicy()
        assert ThreadSafePolicy(inner).inner is inner

    def test_concurrent_mixed_operations(self):
        """Hammer one shared CAMP from 8 threads; invariants must hold."""
        policy = ThreadSafePolicy(CampPolicy())
        errors = []

        def worker(thread_id):
            rng = random.Random(thread_id)
            try:
                for i in range(300):
                    key = f"t{thread_id}-k{i}"
                    policy.on_insert(key, rng.randrange(1, 50),
                                     rng.choice([1, 100, 10_000]))
                    if rng.random() < 0.5:
                        try:
                            policy.on_hit(key)
                        except MissingKeyError:
                            # another thread's pop_victim evicted the key
                            # between our insert and hit — a benign race
                            pass
                    if len(policy) > 100:
                        try:
                            policy.pop_victim()
                        except EvictionError:
                            pass
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        policy.inner.check_invariants()


class TestShardedCamp:
    def test_distributes_keys(self):
        policy = ShardedCampPolicy(shards=4)
        for i in range(200):
            policy.on_insert(f"k{i}", 1, 1)
        sizes = policy.shard_sizes()
        assert sum(sizes) == 200
        assert all(size > 0 for size in sizes)

    def test_single_shard_equals_camp(self):
        sharded = ShardedCampPolicy(shards=1, precision=None)
        camp = CampPolicy(precision=None)
        rng = random.Random(9)
        trace = [(f"k{rng.randrange(30)}", rng.randrange(1, 40),
                  rng.choice([1, 100, 10_000])) for _ in range(500)]
        evictions = {id(sharded): [], id(camp): []}
        sizes = {}
        for policy in (sharded, camp):
            for key, size, cost in trace:
                size = sizes.setdefault(key, size)
                if key in policy:
                    policy.on_hit(key)
                else:
                    while len(policy) >= 12:
                        evictions[id(policy)].append(policy.pop_victim())
                    policy.on_insert(key, size, cost)
        assert evictions[id(sharded)] == evictions[id(camp)]

    def test_eviction_sequence_independent_of_hash_seed(self):
        # lanes are chosen by CRC-32, so the salted built-in hash of one
        # process or another must not move a single decision
        replay = (
            "import random\n"
            "from repro.core import ShardedCampPolicy\n"
            "policy = ShardedCampPolicy(shards=8, precision=5)\n"
            "rng = random.Random(4)\n"
            "evicted = []\n"
            "for _ in range(3000):\n"
            "    key = f'k{rng.randrange(400)}'\n"
            "    cost = rng.choice([1, 100, 10_000])\n"
            "    if key in policy:\n"
            "        policy.on_hit(key)\n"
            "        continue\n"
            "    while len(policy) >= 64:\n"
            "        evicted.append(policy.pop_victim())\n"
            "    policy.on_insert(key, 1 + len(key), cost)\n"
            "print(' '.join(evicted))\n")
        sequences = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            done = subprocess.run([sys.executable, "-c", replay], env=env,
                                  capture_output=True, text=True,
                                  timeout=60, check=True)
            sequences.append(done.stdout.split())
        assert len(sequences[0]) > 1000
        assert sequences[0] == sequences[1]

    def test_victim_is_global_minimum_head(self):
        policy = ShardedCampPolicy(shards=4, precision=None)
        policy.on_insert("cheap", 10, 1)
        for i in range(20):
            policy.on_insert(f"dear{i}", 10, 10_000)
        assert policy.pop_victim() == "cheap"

    def test_evict_empty_raises(self):
        with pytest.raises(EvictionError):
            ShardedCampPolicy(shards=2).pop_victim()

    def test_invalid_shards(self):
        with pytest.raises(ConfigurationError):
            ShardedCampPolicy(shards=0)

    def test_stats_aggregate(self):
        policy = ShardedCampPolicy(shards=3)
        for i in range(30):
            policy.on_insert(f"k{i}", 1, 1)
        stats = policy.stats()
        assert stats["shards"] == 3
        assert stats["queue_count"] >= 1

    def test_concurrent_shard_access(self):
        policy = ShardedCampPolicy(shards=4)
        errors = []

        def worker(thread_id):
            try:
                for i in range(200):
                    key = f"t{thread_id}-{i}"
                    policy.on_insert(key, 1, 1)
                    policy.on_hit(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(policy) == 800
