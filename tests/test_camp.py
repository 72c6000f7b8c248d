"""CAMP tests: structural invariants, GDS equivalence, queue-count bounds.

The single most important test in this repository is
``TestGdsEquivalence``: with rounding disabled (precision=None) CAMP must
make *exactly* the same eviction decisions as the heap-per-item GDS — the
paper's claim that CAMP "is essentially equivalent to GDS at the highest
precision" with LRU tie-breaking.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (CampPolicy, GdsPolicy, ShardedCampPolicy,
                        distinct_value_bound)
from repro.core.camp import STALE_SLACK
from repro.errors import (
    ConfigurationError,
    DuplicateKeyError,
    EvictionError,
    MissingKeyError,
)


def drive(policy, trace, max_resident):
    """Feed (key, size, cost) requests; returns the eviction sequence."""
    evictions = []
    sizes = {}
    costs = {}
    for key, size, cost in trace:
        size = sizes.setdefault(key, size)
        cost = costs.setdefault(key, cost)
        if key in policy:
            policy.on_hit(key)
        else:
            while len(policy) >= max_resident:
                evictions.append(policy.pop_victim())
            policy.on_insert(key, size, cost)
    return evictions


def random_trace(seed, n_requests=600, n_keys=40, costs=(1, 100, 10_000),
                 max_size=64):
    rng = random.Random(seed)
    key_cost = {i: rng.choice(costs) for i in range(n_keys)}
    key_size = {i: rng.randrange(1, max_size) for i in range(n_keys)}
    trace = []
    for _ in range(n_requests):
        k = min(int(rng.paretovariate(1.2)), n_keys - 1)  # skewed
        trace.append((f"k{k}", key_size[k], key_cost[k]))
    return trace


class TestBasicSemantics:
    def test_evicts_cheapest_ratio_first(self):
        camp = CampPolicy()
        camp.on_insert("dear", 10, 10_000)
        camp.on_insert("cheap", 10, 1)
        assert camp.pop_victim() == "cheap"

    def test_lru_within_queue(self):
        camp = CampPolicy()
        camp.on_insert("a", 10, 100)
        camp.on_insert("b", 10, 100)
        camp.on_insert("c", 10, 100)
        camp.on_hit("a")
        assert camp.pop_victim() == "b"
        assert camp.pop_victim() == "c"
        assert camp.pop_victim() == "a"

    def test_tie_break_across_queues_is_lru(self):
        """Heads with equal H evict in least-recently-requested order."""
        camp = CampPolicy(precision=None)
        camp.on_insert("q1-item", 10, 50)   # ratio 5, H = 5
        camp.on_insert("q2-item", 10, 50)   # same queue actually
        camp.on_insert("q3-item", 2, 10)    # ratio 5 via different ints?
        # construct real distinct queues with equal H instead:
        camp2 = CampPolicy(precision=None)
        camp2.on_insert("x", 1, 7)   # ratio 7, H=7
        camp2.on_insert("y", 2, 14)  # ratio 7 as well but size differs
        assert camp2.queue_count >= 1
        first = camp2.pop_victim()
        assert first == "x"  # inserted earlier

    def test_hit_moves_to_queue_tail(self):
        camp = CampPolicy()
        camp.on_insert("a", 10, 100)
        camp.on_insert("b", 10, 100)
        camp.on_hit("a")
        queue_key = camp._entries["a"].ratio_key
        entries = list(camp.iter_queue(queue_key))
        assert entries[-1].item.key == "a"
        camp.check_invariants()

    def test_inflation_non_decreasing(self):
        camp = CampPolicy()
        trace = random_trace(11)
        previous = camp.inflation
        sizes = {}
        for key, size, cost in trace:
            size = sizes.setdefault(key, size)
            if key in camp:
                camp.on_hit(key)
            else:
                while len(camp) >= 12:
                    camp.pop_victim()
                camp.on_insert(key, size, cost)
            assert camp.inflation >= previous
            previous = camp.inflation

    def test_aged_expensive_pair_is_eventually_evicted(self):
        """Paper: 'CAMP is robust enough to prevent an aged expensive
        key-value pair from occupying memory indefinitely.'"""
        camp = CampPolicy()
        camp.on_insert("expensive", 10, 1000)
        evicted = []
        # H(expensive) ~ 1000; with 10 resident slots L climbs by roughly 1
        # per 10 evictions, so 20_000 cheap misses push L well past it
        for i in range(20_000):
            key = f"cheap{i % 20}"
            if key in camp:
                camp.on_hit(key)
            else:
                while len(camp) >= 10:
                    evicted.append(camp.pop_victim())
                camp.on_insert(key, 10, 1)
        assert "expensive" in evicted


class TestQueueManagement:
    def test_queue_count_grows_with_distinct_ratios(self):
        camp = CampPolicy(precision=None)
        for i, cost in enumerate([1, 2, 4, 8, 16]):
            camp.on_insert(f"k{i}", 1, cost)
        assert camp.queue_count == 5

    def test_same_ratio_shares_queue(self):
        camp = CampPolicy()
        for i in range(10):
            camp.on_insert(f"k{i}", 10, 100)
        assert camp.queue_count == 1
        assert camp.queue_lengths() == {camp._entries["k0"].ratio_key: 10}

    def test_queue_removed_when_empty(self):
        camp = CampPolicy()
        camp.on_insert("only", 10, 100)
        camp.pop_victim()
        assert camp.queue_count == 0

    def test_low_precision_collapses_queues(self):
        rng = random.Random(5)
        costs = [rng.randrange(1, 10_000) for _ in range(200)]
        coarse = CampPolicy(precision=1)
        fine = CampPolicy(precision=None)
        for i, cost in enumerate(costs):
            coarse.on_insert(f"k{i}", 10, cost)
            fine.on_insert(f"k{i}", 10, cost)
        assert coarse.queue_count <= fine.queue_count
        assert coarse.queue_count <= distinct_value_bound(10_000, 1)

    @pytest.mark.parametrize("precision", [1, 2, 3, 5, 8])
    def test_proposition2_bound_on_queue_count(self, precision):
        """Non-empty queues never exceed the Prop-2 bound for observed U."""
        camp = CampPolicy(precision=precision)
        rng = random.Random(precision)
        max_ratio = 1
        for i in range(500):
            size = rng.randrange(1, 100)
            cost = rng.randrange(0, 100_000)
            camp.on_insert(f"k{i}", size, cost)
            max_ratio = max(max_ratio,
                            camp.converter.to_integer(cost, size))
            assert camp.queue_count <= distinct_value_bound(max_ratio,
                                                            precision)
        camp.check_invariants()

    def test_multiplier_growth_migrates_on_hit(self):
        """When the adaptive max size grows, a hit re-rounds the ratio."""
        camp = CampPolicy(precision=None)
        camp.on_insert("a", 1, 3)          # multiplier 1, ratio 3
        old_queue = camp._entries["a"].ratio_key
        camp.on_insert("big", 100, 1)      # multiplier grows to 100
        camp.on_hit("a")                   # re-round: 3 * 100 / 1 = 300
        new_queue = camp._entries["a"].ratio_key
        assert new_queue != old_queue
        assert new_queue == 300
        camp.check_invariants()

    def test_reround_on_hit_disabled_keeps_queue(self):
        camp = CampPolicy(precision=None, reround_on_hit=False)
        camp.on_insert("a", 1, 3)
        old_queue = camp._entries["a"].ratio_key
        camp.on_insert("big", 100, 1)
        camp.on_hit("a")
        assert camp._entries["a"].ratio_key == old_queue


class TestErrors:
    def test_invalid_precision(self):
        with pytest.raises(ConfigurationError):
            CampPolicy(precision=0)

    def test_duplicate_insert(self):
        camp = CampPolicy()
        camp.on_insert("a", 1, 1)
        with pytest.raises(DuplicateKeyError):
            camp.on_insert("a", 1, 1)

    def test_hit_missing(self):
        with pytest.raises(MissingKeyError):
            CampPolicy().on_hit("ghost")

    def test_remove_missing(self):
        with pytest.raises(MissingKeyError):
            CampPolicy().on_remove("ghost")

    def test_evict_empty(self):
        with pytest.raises(EvictionError):
            CampPolicy().pop_victim()

    def test_explicit_remove(self):
        camp = CampPolicy()
        camp.on_insert("a", 1, 1)
        camp.on_insert("b", 1, 1)
        camp.on_remove("a")
        assert "a" not in camp
        assert len(camp) == 1
        camp.check_invariants()


class TestGdsEquivalence:
    """CAMP(precision=∞) must equal GDS decision-for-decision."""

    @pytest.mark.parametrize("seed", range(6))
    def test_eviction_sequences_identical(self, seed):
        trace = random_trace(seed)
        camp_evictions = drive(CampPolicy(precision=None), trace, 12)
        gds_evictions = drive(GdsPolicy(), trace, 12)
        assert camp_evictions == gds_evictions

    @pytest.mark.parametrize("seed", range(3))
    def test_equivalence_with_variable_sizes(self, seed):
        trace = random_trace(seed + 100, costs=(1, 7, 33, 911), max_size=512)
        camp_evictions = drive(CampPolicy(precision=None), trace, 20)
        gds_evictions = drive(GdsPolicy(), trace, 20)
        assert camp_evictions == gds_evictions

    def test_equivalence_with_unit_everything(self):
        """Uniform cost & size: both reduce to LRU order."""
        trace = [(f"k{i % 7}", 1, 1) for i in range(100)]
        camp_evictions = drive(CampPolicy(precision=None), trace, 4)
        gds_evictions = drive(GdsPolicy(), trace, 4)
        assert camp_evictions == gds_evictions

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 32),
                              st.integers(0, 5000)),
                    min_size=1, max_size=250),
           st.integers(2, 10))
    def test_equivalence_property(self, raw, max_resident):
        trace = [(f"k{k}", s, c) for k, s, c in raw]
        camp = CampPolicy(precision=None)
        camp_evictions = drive(camp, trace, max_resident)
        gds_evictions = drive(GdsPolicy(), trace, max_resident)
        assert camp_evictions == gds_evictions
        camp.check_invariants()

    @pytest.mark.parametrize("precision", [1, 3, 5])
    def test_rounded_camp_close_to_gds_cost(self, precision):
        """At finite precision decisions may differ, but resident sets stay
        plausible: CAMP still prefers high-ratio pairs overall."""
        trace = random_trace(77, n_requests=2000)
        camp = CampPolicy(precision=precision)
        drive(camp, trace, 15)
        camp.check_invariants()
        resident_costs = [camp._entries[k].item.cost for k in camp._entries]
        # with skewed {1,100,10K} costs and only 15 slots, the resident set
        # should be dominated by non-minimal costs
        assert sum(c > 1 for c in resident_costs) >= len(resident_costs) // 2


class TestInvariantsUnderRandomOps:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 64),
                              st.integers(0, 10_000)),
                    min_size=1, max_size=150),
           st.integers(1, 8), st.sampled_from([1, 2, 5, None]))
    def test_check_invariants_always_passes(self, raw, max_resident, precision):
        camp = CampPolicy(precision=precision)
        sizes = {}
        costs = {}
        for key_id, size, cost in raw:
            key = f"k{key_id}"
            size = sizes.setdefault(key, size)
            cost = costs.setdefault(key, cost)
            if key in camp:
                camp.on_hit(key)
            else:
                while len(camp) >= max_resident:
                    camp.pop_victim()
                camp.on_insert(key, size, cost)
            camp.check_invariants()


class TestQueueHeadIndex:
    """The lazily invalidated ``heapq`` index of queue heads."""

    def test_hit_heavy_trace_keeps_index_bounded(self):
        """Hits on the heads of queues that are not the minimum leave a
        stale tuple behind each time; the index must stay within twice
        the live queue count plus the slack however long the run."""
        camp = CampPolicy(precision=None, stats=False)
        camp.on_insert("cheap", 10, 1)          # the minimum queue
        for cost in (100, 10_000):
            for member in ("a", "b", "c"):
                camp.on_insert(f"{member}{cost}", 10, cost)
        rng = random.Random(5)
        most_stale = 0
        for _ in range(5_000):
            # size 10 is the multiplier, so each queue's id is its cost
            head = next(camp.iter_queue(rng.choice((100, 10_000))))
            camp.on_hit(head.key)
            assert len(camp._index) <= 2 * camp.queue_count + STALE_SLACK
            most_stale = max(most_stale, len(camp._index) - camp.queue_count)
            camp.check_invariants()
        # the cheap queue is never hit, so no stale tuple ever surfaces:
        # the index grows to its bound and compaction alone holds it there
        assert most_stale == camp.queue_count + STALE_SLACK
        assert camp.pop_victim() == "cheap"

    def test_sharded_peek_skips_stale_tuples(self):
        policy = ShardedCampPolicy(shards=2, precision=None, stats=False)
        first, second = policy._shards

        def key_in(shard, prefix):
            return next(key for key in (f"{prefix}{i}" for i in range(999))
                        if policy._lane(key)[1] is shard)

        cheap, dear1, dear2 = (key_in(first, prefix)
                               for prefix in ("cheap", "dearA", "dearB"))
        middle = key_in(second, "mid")
        policy.on_insert(cheap, 10, 1)
        policy.on_insert(dear1, 10, 10_000)
        policy.on_insert(dear2, 10, 10_000)
        policy.on_insert(middle, 10, 100)
        policy.on_hit(dear1)        # moves the dear queue's head: stale tuple
        assert policy.pop_victim() == cheap
        stale = first._index[0]
        assert stale[2].key == dear1 and stale[2].queue.top is not stale
        assert first.peek_min_priority() == (first.priority_of(dear2),
                                             first._entries[dear2].seq)
        assert stale not in first._index
        first.check_invariants()
        assert policy.pop_victim() == middle
        assert policy.pop_victim() == dear2


class TestStats:
    def test_heap_updates_far_fewer_than_gds(self):
        """The paper's efficiency claim, in miniature (Figure 4)."""
        trace = random_trace(123, n_requests=3000, n_keys=60)
        camp = CampPolicy(precision=5)
        gds = GdsPolicy()
        drive(camp, trace, 30)
        drive(gds, trace, 30)
        assert camp.stats()["heap_node_visits"] < gds.stats()["heap_node_visits"]
        assert camp.stats()["heap_updates"] < gds.stats()["heap_updates"]

    def test_stats_keys(self):
        camp = CampPolicy()
        camp.on_insert("a", 1, 1)
        stats = camp.stats()
        for field in ("heap_node_visits", "heap_updates", "queue_count",
                      "queues_created", "max_queues", "inflation",
                      "multiplier"):
            assert field in stats

    def test_reset_stats(self):
        camp = CampPolicy()
        camp.on_insert("a", 1, 1)
        camp.reset_stats()
        assert camp.stats()["heap_node_visits"] == 0
