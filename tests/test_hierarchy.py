"""Two-level hierarchical cache tests (section 6 extension)."""

import pytest

from repro.cache import KVS, MultiLevelCache, Outcome, TwoLevelCache
from repro.core import CampPolicy, LruPolicy
from repro.errors import ConfigurationError


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def build(l1_capacity=50, l2_capacity=200, factor=0.1, clock=None):
    l1 = KVS(l1_capacity, CampPolicy(), clock=clock)
    l2 = KVS(l2_capacity, CampPolicy(), clock=clock)
    return TwoLevelCache(l1, l2, l2_hit_cost_factor=factor)


class TestLookupPaths:
    def test_total_miss_inserts_into_l1(self):
        cache = build()
        outcome = cache.lookup("a", 10, 100)
        assert outcome.level == 0
        assert outcome.charged_cost == 100
        assert cache.resident_level("a") == 1

    def test_l1_hit_is_free(self):
        cache = build()
        cache.lookup("a", 10, 100)
        outcome = cache.lookup("a", 10, 100)
        assert outcome.level == 1
        assert outcome.charged_cost == 0.0
        assert outcome.hit

    def test_eviction_demotes_to_l2(self):
        cache = build(l1_capacity=25)
        cache.lookup("a", 10, 100)
        cache.lookup("b", 10, 100)
        cache.lookup("c", 10, 100)   # L1 evicts someone -> L2
        assert cache.demotions >= 1
        demoted = [k for k in ("a", "b") if cache.resident_level(k) == 2]
        assert demoted

    def test_l2_hit_promotes_and_discounts(self):
        cache = build(l1_capacity=25, factor=0.25)
        cache.lookup("a", 10, 100)
        cache.lookup("b", 10, 100)
        cache.lookup("c", 10, 100)   # one of a/b demoted
        demoted = next(k for k in ("a", "b") if cache.resident_level(k) == 2)
        outcome = cache.lookup(demoted, 10, 100)
        assert outcome.level == 2
        assert outcome.charged_cost == pytest.approx(25.0)
        assert cache.resident_level(demoted) == 1
        assert cache.promotions == 1

    def test_promotion_removes_from_l2(self):
        cache = build(l1_capacity=25)
        cache.lookup("a", 10, 100)
        cache.lookup("b", 10, 100)
        cache.lookup("c", 10, 100)
        demoted = next(k for k in ("a", "b") if cache.resident_level(k) == 2)
        cache.lookup(demoted, 10, 100)
        assert demoted not in cache.l2


class TestCostSavings:
    def test_hierarchy_cheaper_than_flat_small_cache(self):
        """Serving from SSD at 10% of recompute cost must reduce the total
        charged cost versus recomputing every L1 miss."""
        flat_charged = 0.0
        flat = KVS(100, CampPolicy())
        cache = build(l1_capacity=100, l2_capacity=1000, factor=0.1)
        hier_charged = 0.0
        import random
        rng = random.Random(0)
        requests = [(f"k{rng.randrange(50)}", 10, rng.choice([1, 100]))
                    for _ in range(2000)]
        for key, size, cost in requests:
            if flat.lookup(key) is not Outcome.HIT:
                flat_charged += cost
                flat.insert(key, size, cost)
            hier_charged += cache.lookup(key, size, cost).charged_cost
        assert hier_charged < flat_charged

    def test_invalid_factor(self):
        l1 = KVS(10, LruPolicy())
        l2 = KVS(10, LruPolicy())
        with pytest.raises(ConfigurationError):
            TwoLevelCache(l1, l2, l2_hit_cost_factor=1.5)


class TestTtlSurvival:
    """Regression: demotion/promotion used to re-insert with no expiry,
    so a TTL'd item evicted from L1 became immortal in L2."""

    def fill_and_demote(self, cache, clock, ttl):
        cache.lookup("victim", 10, 100, ttl=ttl)
        cache.lookup("b", 10, 100)
        cache.lookup("c", 10, 100)   # L1 (capacity 25) evicts someone
        assert cache.demotions >= 1
        # keep evicting until the TTL'd key lands in L2
        extra = 0
        while cache.resident_level("victim") == 1:
            extra += 1
            cache.lookup(f"x{extra}", 10, 100)
        assert cache.resident_level("victim") == 2

    def test_demoted_item_keeps_its_ttl(self):
        clock = FakeClock()
        cache = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(cache, clock, ttl=60.0)
        item = cache.l2.peek("victim")
        assert item is not None
        assert item.expire_at == pytest.approx(clock.now + 60.0, abs=1.0)
        clock.advance(120.0)
        # lapsed in L2: the lookup must miss, not serve a stale hit
        assert cache.lookup("victim", 10, 100).level == 0

    def test_demoted_item_still_served_before_expiry(self):
        clock = FakeClock()
        cache = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(cache, clock, ttl=60.0)
        clock.advance(30.0)
        assert cache.lookup("victim", 10, 100).level == 2

    def test_promotion_carries_remaining_ttl_back_to_l1(self):
        clock = FakeClock()
        cache = build(l1_capacity=25, clock=clock)
        self.fill_and_demote(cache, clock, ttl=60.0)
        clock.advance(20.0)
        assert cache.lookup("victim", 10, 100).level == 2  # promote
        item = cache.l1.peek("victim")
        assert item is not None
        # 40s remained at promotion time; promotion must not refresh it
        assert item.expire_at == pytest.approx(clock.now + 40.0, abs=1.0)
        clock.advance(50.0)
        assert cache.lookup("victim", 10, 100).level == 0

    def test_lapsed_victim_is_not_demoted(self):
        clock = FakeClock()
        cache = build(l1_capacity=25, clock=clock)
        cache.lookup("victim", 10, 100, ttl=5.0)
        clock.advance(10.0)   # expires while resident in L1
        cache.lookup("b", 10, 100)
        cache.lookup("c", 10, 100)
        cache.lookup("d", 10, 100)   # capacity evictions may hit victim
        assert cache.resident_level("victim") != 2

    def test_multilevel_demotion_and_promotion_keep_ttl(self):
        clock = FakeClock()
        stores = [KVS(25, LruPolicy(), clock=clock),
                  KVS(200, LruPolicy(), clock=clock),
                  KVS(2000, LruPolicy(), clock=clock)]
        cache = MultiLevelCache(stores, [0.0, 0.1, 0.5])
        cache.lookup("victim", 10, 100, ttl=60.0)
        extra = 0
        while cache.resident_level("victim") == 1:
            extra += 1
            cache.lookup(f"x{extra}", 10, 100)
        assert cache.resident_level("victim") >= 2
        level = cache.resident_level("victim")
        item = cache.store(level).peek("victim")
        assert item is not None and item.expire_at > 0
        clock.advance(20.0)
        outcome = cache.lookup("victim", 10, 100)   # promote to level 1
        assert outcome.level == level
        promoted = cache.store(1).peek("victim")
        assert promoted is not None
        assert promoted.expire_at == pytest.approx(clock.now + 40.0,
                                                   abs=1.0)
        clock.advance(50.0)
        assert cache.lookup("victim", 10, 100).level == 0
