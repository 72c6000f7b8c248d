"""The section 6 storage hierarchy: DRAM (L1) over a disk victim tier (L2).

Every check runs through a tiered Store (``StoreConfig.tiered``), the one
two-level composition the repo serves: a DRAM miss probes the disk tier,
a capacity eviction demotes to disk, a disk hit promotes back and is
charged ``l2_hit_cost_factor`` of the recompute cost, and an item's TTL
survives every move between the levels.
"""

import random

import pytest

from repro.cache import KVS, Outcome, StoreConfig
from repro.core import LruPolicy
from repro.errors import ConfigurationError
from repro.tiering import DiskTier, TieredBackend


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def build(tmp_path):
    """Factory for CAMP tiered stores; closes every tier it opened."""
    stores = []

    def factory(l1_capacity=50, l2_capacity=2000, factor=0.1, clock=None):
        config = StoreConfig(l1_capacity).policy("camp").track_metrics()
        if clock is not None:
            config = config.clock(clock)
        store = (config
                 .tiered(str(tmp_path / f"tier-{len(stores)}"), l2_capacity,
                         l2_hit_cost_factor=factor, recover=False)
                 .build())
        stores.append(store)
        return store

    yield factory
    for store in stores:
        store.kvs.close()


def demote_one(store, keys=("a", "b", "c")):
    """Fill a 25-byte DRAM with 10-byte pairs; return one that went to disk."""
    for key in keys:
        store.access(key, 10, 100)
    assert store.kvs.demotions >= 1
    return next(k for k in keys[:-1] if store.kvs.resident_level(k) == 2)


class TestLookupPaths:
    def test_total_miss_inserts_into_l1(self, build):
        store = build()
        store.access("a", 10, 100)     # cold: never charged
        store.delete("a")              # gone from both levels
        missed = store.metrics.cost_missed
        result = store.access("a", 10, 100)
        assert result.outcome is Outcome.MISS_INSERTED
        assert store.metrics.cost_missed - missed == 100
        assert store.metrics.l2_hits == 0
        assert store.kvs.resident_level("a") == 1

    def test_l1_hit_is_free(self, build):
        store = build()
        store.access("a", 10, 100)
        charged = store.metrics.total_miss_cost
        result = store.access("a", 10, 100)
        assert result.outcome is Outcome.HIT
        assert result.hit
        assert store.metrics.total_miss_cost == charged

    def test_eviction_demotes_to_l2(self, build):
        store = build(l1_capacity=25)
        store.access("a", 10, 100)
        store.access("b", 10, 100)
        store.access("c", 10, 100)   # L1 evicts someone -> L2
        assert store.kvs.demotions >= 1
        demoted = [k for k in ("a", "b") if store.kvs.resident_level(k) == 2]
        assert demoted

    def test_l2_hit_promotes_and_discounts(self, build):
        store = build(l1_capacity=25, factor=0.25)
        demoted = demote_one(store)
        charged = store.metrics.total_miss_cost
        result = store.access(demoted, 10, 100)
        assert result.outcome is Outcome.HIT_L2
        assert store.metrics.total_miss_cost - charged \
            == pytest.approx(25.0)
        assert store.kvs.resident_level(demoted) == 1
        assert store.kvs.promotions == 1

    def test_promotion_removes_from_l2(self, build):
        store = build(l1_capacity=25)
        demoted = demote_one(store)
        store.access(demoted, 10, 100)
        assert not store.kvs.tier.contains(demoted)
        assert store.kvs.kvs.peek(demoted) is not None


class TestCostSavings:
    def test_hierarchy_cheaper_than_flat_small_cache(self, build):
        """Serving from disk at 10% of recompute cost must reduce the total
        charged cost versus recomputing every DRAM miss."""
        flat = StoreConfig(100).policy("camp").track_metrics().build()
        tiered = build(l1_capacity=100, l2_capacity=1000, factor=0.1)
        rng = random.Random(0)
        requests = [(f"k{rng.randrange(50)}", 10, rng.choice([1, 100]))
                    for _ in range(2000)]
        for key, size, cost in requests:
            flat.access(key, size, cost)
            tiered.access(key, size, cost)
        assert tiered.metrics.l2_hits > 0
        assert tiered.metrics.total_miss_cost < flat.metrics.total_miss_cost

    def test_invalid_factor(self, tmp_path):
        tier = DiskTier(str(tmp_path), 1000, recover=False)
        try:
            with pytest.raises(ConfigurationError):
                TieredBackend(KVS(10, LruPolicy()), tier,
                              l2_hit_cost_factor=1.5)
        finally:
            tier.close()


class TestTtlSurvival:
    """Demotion and promotion must carry an item's expiry with it: a TTL'd
    item evicted from DRAM must not become immortal on disk."""

    def fill_and_demote(self, store, ttl):
        store.access("victim", 10, 100, ttl=ttl)
        store.access("b", 10, 100)
        store.access("c", 10, 100)   # L1 (capacity 25) evicts someone
        assert store.kvs.demotions >= 1
        # keep evicting until the TTL'd key lands on disk
        extra = 0
        while store.kvs.resident_level("victim") == 1:
            extra += 1
            store.access(f"x{extra}", 10, 100)
        assert store.kvs.resident_level("victim") == 2
        return extra

    def test_demoted_item_keeps_its_ttl(self, build):
        clock = FakeClock()
        store = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(store, ttl=60.0)
        item = store.kvs.peek("victim")   # the disk record's metadata
        assert item is not None
        assert item.expire_at == pytest.approx(clock.now + 60.0, abs=1.0)
        clock.advance(120.0)
        # lapsed on disk: the lookup must miss, not serve a stale hit
        assert store.access("victim", 10, 100).outcome \
            is Outcome.MISS_INSERTED
        assert store.metrics.l2_hits == 0

    def test_demoted_item_still_served_before_expiry(self, build):
        clock = FakeClock()
        store = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(store, ttl=60.0)
        clock.advance(30.0)
        assert store.access("victim", 10, 100).outcome is Outcome.HIT_L2

    def test_promotion_carries_remaining_ttl_back_to_l1(self, build):
        clock = FakeClock()
        store = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(store, ttl=60.0)
        clock.advance(20.0)
        assert store.access("victim", 10, 100).outcome \
            is Outcome.HIT_L2   # promote
        item = store.kvs.kvs.peek("victim")
        assert item is not None
        # 40s remained at promotion time; promotion must not refresh it
        assert item.expire_at == pytest.approx(clock.now + 40.0, abs=1.0)
        clock.advance(50.0)
        assert store.access("victim", 10, 100).outcome \
            is Outcome.MISS_INSERTED

    def test_lapsed_victim_is_not_demoted(self, build):
        clock = FakeClock()
        store = build(l1_capacity=25, clock=clock)
        store.access("victim", 10, 100, ttl=5.0)
        clock.advance(10.0)   # expires while resident in L1
        store.access("b", 10, 100)
        store.access("c", 10, 100)
        store.access("d", 10, 100)   # capacity evictions may hit victim
        assert store.kvs.resident_level("victim") != 2

    def test_multilevel_demotion_and_promotion_keep_ttl(self, build):
        """Two full DRAM -> disk -> DRAM round trips: the expiry set by
        the first insert still holds after both."""
        clock = FakeClock()
        store = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(store, ttl=60.0)
        clock.advance(10.0)
        assert store.access("victim", 10, 100).outcome is Outcome.HIT_L2
        extra = 100
        while store.kvs.resident_level("victim") == 1:
            extra += 1
            store.access(f"x{extra}", 10, 100)
        assert store.kvs.resident_level("victim") == 2
        clock.advance(10.0)
        assert store.access("victim", 10, 100).outcome is Outcome.HIT_L2
        promoted = store.kvs.kvs.peek("victim")
        assert promoted is not None
        assert promoted.expire_at == pytest.approx(clock.now + 40.0,
                                                   abs=1.0)
        assert store.kvs.promotions == 2
        clock.advance(50.0)
        assert store.access("victim", 10, 100).outcome \
            is Outcome.MISS_INSERTED
