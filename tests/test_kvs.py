"""KVS store tests: byte accounting, eviction loop, admission, listeners."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import KVS, Outcome
from repro.core import (
    CampPolicy,
    LruPolicy,
    PooledLruPolicy,
    SecondHitAdmission,
    ThreadSafePolicy,
    make_policy,
    policy_names,
    pools_from_cost_values,
)
from repro.errors import ConfigurationError

TOO_LARGE = Outcome.MISS_REJECTED_TOO_LARGE


class TestBasics:
    def test_get_miss_then_put_then_hit(self):
        kvs = KVS(100, LruPolicy())
        assert kvs.lookup("a") is Outcome.MISS
        assert kvs.insert("a", 10, 1) is Outcome.MISS_INSERTED
        assert kvs.lookup("a") is Outcome.HIT
        assert kvs.used_bytes == 10
        assert len(kvs) == 1

    def test_eviction_frees_space(self):
        kvs = KVS(25, LruPolicy())
        kvs.insert("a", 10, 1)
        kvs.insert("b", 10, 1)
        kvs.insert("c", 10, 1)   # evicts "a"
        assert "a" not in kvs
        assert "b" in kvs and "c" in kvs
        assert kvs.eviction_count == 1
        kvs.check_consistency()

    def test_multi_eviction_for_large_item(self):
        kvs = KVS(30, LruPolicy())
        for key in ["a", "b", "c"]:
            kvs.insert(key, 10, 1)
        kvs.insert("big", 25, 1)  # must evict several
        assert "big" in kvs
        assert kvs.used_bytes <= 30
        kvs.check_consistency()

    def test_item_larger_than_capacity_rejected(self):
        kvs = KVS(20, LruPolicy())
        assert kvs.insert("huge", 21, 1) is TOO_LARGE
        assert kvs.rejected_too_large == 1
        assert len(kvs) == 0

    def test_overwrite_replaces(self):
        kvs = KVS(100, LruPolicy())
        kvs.insert("a", 10, 1)
        kvs.insert("a", 20, 2)
        assert kvs.used_bytes == 20
        assert len(kvs) == 1
        kvs.check_consistency()

    def test_delete(self):
        kvs = KVS(100, LruPolicy())
        kvs.insert("a", 10, 1)
        assert kvs.delete("a")
        assert not kvs.delete("a")
        assert kvs.used_bytes == 0
        kvs.check_consistency()

    def test_item_overhead_charged(self):
        kvs = KVS(100, LruPolicy(), item_overhead=5)
        kvs.insert("a", 10, 1)
        assert kvs.used_bytes == 15

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            KVS(0, LruPolicy())
        with pytest.raises(ConfigurationError):
            KVS(10, LruPolicy(), item_overhead=-1)


class TestPooledIntegration:
    def test_pool_eviction_with_global_space_free(self):
        """Pooled LRU evicts even when the store has free bytes overall."""
        pools = pools_from_cost_values([1, 100], [0.5, 0.5])
        kvs = KVS(100, PooledLruPolicy(100, pools))
        kvs.insert("cheap1", 40, 1)
        kvs.insert("cheap2", 30, 1)   # pool(cost=1) capacity 50 -> evict cheap1
        assert "cheap1" not in kvs
        assert kvs.free_bytes >= 50
        kvs.check_consistency()

    def test_item_larger_than_pool_rejected(self):
        pools = pools_from_cost_values([1, 100], [0.5, 0.5])
        kvs = KVS(100, PooledLruPolicy(100, pools))
        assert kvs.insert("fat-cheap", 60, 1) is TOO_LARGE  # pool holds 50
        assert kvs.rejected_too_large == 1


class TestAdmission:
    def test_doorkeeper_blocks_first_insertion(self):
        kvs = KVS(100, LruPolicy(), admission=SecondHitAdmission(window=10))
        assert kvs.insert("a", 10, 1) is Outcome.MISS_REJECTED_ADMISSION
        assert kvs.rejected_admission == 1
        # second attempt admitted
        assert kvs.insert("a", 10, 1) is Outcome.MISS_INSERTED
        assert "a" in kvs

    def test_hits_refresh_admission_history(self):
        admission = SecondHitAdmission(window=10)
        kvs = KVS(100, LruPolicy(), admission=admission)
        kvs.insert("a", 10, 1)
        kvs.insert("a", 10, 1)
        assert kvs.lookup("a") is Outcome.HIT   # records via on_access
        assert admission.seen("a")


class TestOverwriteRejection:
    """Regression: a rejected replacement must keep the resident copy.

    The old ``put`` deleted the existing key *before* the too-large and
    admission checks, so a rejected replacement silently dropped the old
    value.
    """

    def test_too_large_replacement_keeps_old_item(self):
        kvs = KVS(50, LruPolicy())
        assert kvs.insert("a", 10, 7) is Outcome.MISS_INSERTED
        assert kvs.insert("a", 60, 1) is TOO_LARGE     # can never fit
        assert "a" in kvs
        assert kvs.used_bytes == 10
        item = kvs.peek("a")
        assert item.size == 10 and item.cost == 7
        assert kvs.rejected_too_large == 1
        kvs.check_consistency()

    def test_pool_rejected_replacement_keeps_old_item(self):
        pools = pools_from_cost_values([1, 100], [0.5, 0.5])
        kvs = KVS(100, PooledLruPolicy(100, pools))
        assert kvs.insert("a", 30, 1) is Outcome.MISS_INSERTED
        assert kvs.insert("a", 60, 1) is TOO_LARGE     # larger than its pool
        assert "a" in kvs and kvs.used_bytes == 30
        kvs.check_consistency()

    def test_admission_rejected_replacement_keeps_old_item(self):
        class DenyAll:
            def admit(self, key, size, cost):
                return False

            def on_access(self, key):
                pass

        kvs = KVS(100, LruPolicy())
        assert kvs.insert("a", 10, 1) is Outcome.MISS_INSERTED
        kvs._admission = DenyAll()
        assert kvs.insert("a", 20, 2) is Outcome.MISS_REJECTED_ADMISSION
        assert "a" in kvs and kvs.used_bytes == 10
        assert kvs.rejected_admission == 1
        kvs.check_consistency()


class TestResize:
    def test_shrink_evicts_through_policy(self):
        kvs = KVS(100, LruPolicy())
        for key in ("a", "b", "c"):
            kvs.insert(key, 30, 1)
        evicted = kvs.resize(40)
        assert [item.key for item in evicted] == ["a", "b"]
        assert kvs.capacity == 40 and kvs.used_bytes == 30
        kvs.check_consistency()

    def test_grow_raises_ceiling_without_evictions(self):
        kvs = KVS(30, LruPolicy())
        for key in ("a", "b", "c"):
            kvs.insert(key, 10, 1)
        assert kvs.resize(100) == []
        assert kvs.capacity == 100
        assert kvs.eviction_count == 0
        assert len(kvs) == 3
        # the new headroom is immediately usable
        assert kvs.insert("big", 60, 1) is Outcome.MISS_INSERTED
        assert kvs.used_bytes == 90
        kvs.check_consistency()

    def test_grow_notifies_no_listeners(self):
        events = []

        class Recorder:
            def on_insert(self, item):
                events.append(("insert", item.key))

            def on_evict(self, item, explicit):
                events.append(("evict", item.key))

        kvs = KVS(30, LruPolicy())
        kvs.add_listener(Recorder())
        kvs.insert("a", 10, 1)
        events.clear()
        kvs.resize(100)
        assert events == []


class TestListeners:
    def test_insert_and_evict_events(self):
        events = []

        class Recorder:
            def on_insert(self, item):
                events.append(("insert", item.key))

            def on_evict(self, item, explicit):
                events.append(("evict", item.key, explicit))

        kvs = KVS(20, LruPolicy())
        kvs.add_listener(Recorder())
        kvs.insert("a", 10, 1)
        kvs.insert("b", 10, 1)
        kvs.insert("c", 10, 1)    # evicts a
        kvs.delete("b")
        assert ("insert", "a") in events
        assert ("evict", "a", False) in events
        assert ("evict", "b", True) in events

    def test_listeners_notified_in_registration_order(self):
        calls = []

        class Ordered:
            def __init__(self, tag):
                self._tag = tag

            def on_insert(self, item):
                calls.append((self._tag, "insert", item.key))

            def on_evict(self, item, explicit):
                calls.append((self._tag, "evict", item.key))

        kvs = KVS(20, LruPolicy())
        kvs.add_listener(Ordered("first"))
        kvs.add_listener(Ordered("second"))
        kvs.insert("a", 10, 1)
        kvs.insert("b", 15, 1)    # evicts "a"
        assert calls == [
            ("first", "insert", "a"), ("second", "insert", "a"),
            ("first", "evict", "a"), ("second", "evict", "a"),
            ("first", "insert", "b"), ("second", "insert", "b"),
        ]

    def test_resize_eviction_order_notifies_listeners_per_victim(self):
        order = []

        class Recorder:
            def on_insert(self, item):
                pass

            def on_evict(self, item, explicit):
                order.append((item.key, explicit))

        kvs = KVS(100, LruPolicy())
        kvs.add_listener(Recorder())
        for key in ("a", "b", "c"):
            kvs.insert(key, 30, 1)
        kvs.resize(35)
        assert order == [("a", False), ("b", False)]


class TestEveryPolicyThroughKvs:
    @pytest.mark.parametrize("name", list(policy_names()))
    def test_random_workload_consistency(self, name):
        """Every registered policy must survive a churny workload inside the
        store with byte accounting intact."""
        capacity = 2000
        policy = make_policy(name, capacity)
        kvs = KVS(capacity, policy)
        rng = random.Random(hash(name) & 0xFFFF)
        for step in range(800):
            key = f"k{rng.randrange(60)}"
            kvs.access(key, rng.randrange(1, 300),
                       rng.choice([1, 100, 10_000]))
            if step % 97 == 0:
                kvs.delete(key)
            if step % 100 == 0:
                kvs.check_consistency()
        kvs.check_consistency()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 25), st.integers(1, 40),
                          st.sampled_from([1, 100, 10_000])),
                min_size=1, max_size=200),
       st.integers(50, 400))
def test_camp_kvs_property(requests, capacity):
    """CAMP inside the KVS: accounting and CAMP invariants always hold."""
    policy = CampPolicy()
    kvs = KVS(capacity, policy)
    for key_id, size, cost in requests:
        key = f"k{key_id}"
        kvs.access(key, size, cost)
        assert kvs.used_bytes <= capacity
    kvs.check_consistency()
    policy.check_invariants()


class _Clock:
    """An injectable TTL clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _EventLog:
    def __init__(self):
        self.events = []

    def on_insert(self, item):
        self.events.append(("insert", item.key, item.size, item.expire_at))

    def on_evict(self, item, explicit):
        self.events.append(("evict", item.key, explicit))


#: policies for the fused-path twins: every registered policy (those on
#: the base capacity rules take the inline insert, pooled-lru with its own
#: fits/wants_eviction the general one; arc needs the incoming item in
#: pop_victim), CAMP without stats, and a thread-safe wrapper
_TWIN_POLICIES = {
    **{name: (lambda capacity, name=name: make_policy(name, capacity))
       for name in policy_names()},
    "camp-no-stats": lambda capacity: CampPolicy(stats=False),
    "thread-safe-camp": lambda capacity: ThreadSafePolicy(CampPolicy()),
}

_TWIN_CAPACITY = 600

#: (key id, size, cost, ttl, clock step) — sizes reach past the capacity
_twin_step = st.tuples(st.integers(0, 15),
                       st.integers(1, 700),
                       st.sampled_from([1, 100, 10_000]),
                       st.sampled_from([None, None, 0, 1.0, 4.0]),
                       st.sampled_from([0.0, 0.0, 0.5, 2.0]))


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(sorted(_TWIN_POLICIES)),
       admission=st.booleans(),
       listener=st.booleans(),
       overhead=st.sampled_from([0, 16]),
       steps=st.lists(_twin_step, min_size=1, max_size=120))
def test_fused_access_matches_lookup_then_insert(policy, admission, listener,
                                                 overhead, steps):
    """``KVS.access`` and ``lookup`` + insert-on-miss are one decision
    procedure: twin stores agree on every outcome, listener event,
    counter and byte after every step — TTL expiry, admission, listeners,
    item overhead, custom capacity rules, a locking wrapper and oversize
    rejections (capacity 600 < the largest size) included."""
    _run_twins(policy, admission, listener, overhead, steps)


@pytest.mark.parametrize("policy", sorted(_TWIN_POLICIES))
def test_fused_access_matches_for_every_policy(policy):
    """Every policy, on the inline insert (no listener, no admission, no
    ttl) and on the general one, over one fixed eviction-heavy trace."""
    rng = random.Random(17)
    plain = [(rng.randrange(24), rng.randint(1, 250),
              rng.choice([1, 100, 10_000]), None, 0.0) for _ in range(400)]
    _run_twins(policy, False, False, 0, plain)
    _run_twins(policy, True, True, 16, plain)


def _run_twins(policy, admission, listener, overhead, steps):
    capacity = _TWIN_CAPACITY
    twins = []
    for _ in range(2):
        clock = _Clock()
        log = _EventLog()
        kvs = KVS(capacity, _TWIN_POLICIES[policy](capacity),
                  admission=SecondHitAdmission(window=8) if admission
                  else None,
                  item_overhead=overhead, clock=clock)
        if listener:
            kvs.add_listener(log)
        twins.append((kvs, clock, log))
    (fused, fused_clock, fused_log), (split, split_clock, split_log) = twins
    for key_id, size, cost, ttl, advance in steps:
        fused_clock.now += advance
        split_clock.now += advance
        key = f"k{key_id}"
        outcome = fused.access(key, size, cost, ttl)
        expected = split.lookup(key)
        if expected is not Outcome.HIT:
            expected = split.insert(key, size, cost, ttl)
        assert outcome is expected
        assert fused_log.events == split_log.events
        assert fused.stats() == split.stats()
        assert fused.policy.stats() == split.policy.stats()
        assert fused.used_bytes == split.used_bytes
        fused.check_consistency()
        split.check_consistency()
    assert (sorted(fused.resident_items(), key=lambda item: item.key)
            == sorted(split.resident_items(), key=lambda item: item.key))
