"""Multi-tenant arbitration: ghost curves, arbiter convergence, bounds."""

import random

import pytest

from repro.cache import KVS, Outcome
from repro.core import CampPolicy, LruPolicy
from repro.core.policy import CacheItem
from repro.errors import ConfigurationError, EvictionError
from repro.sim import simulate_tenants
from repro.tenancy import (
    Arbiter,
    GhostCache,
    TenantManager,
    TenantSpec,
)
from repro.workloads import (
    mixed_tenant_trace,
    prefix_trace,
    scan_trace,
    three_cost_trace,
)


def _item(key, size, cost=1):
    return CacheItem(key, size, cost)


class TestGhostCache:
    def test_miss_without_history_is_cold(self):
        ghost = GhostCache(1000)
        assert ghost.record_miss("a", 10, 5) is None
        assert ghost.ghost_hits == 0

    def test_eviction_then_miss_is_a_ghost_hit(self):
        ghost = GhostCache(1000)
        ghost.record_eviction(_item("a", 10, 5))
        hit = ghost.record_miss("a", 10, 5)
        assert hit is not None
        assert hit.depth == 10          # only itself was evicted since
        assert hit.cost == 5
        assert "a" not in ghost         # consumed by the hit

    def test_depth_counts_bytes_evicted_since(self):
        ghost = GhostCache(1000)
        ghost.record_eviction(_item("a", 10))
        ghost.record_eviction(_item("b", 20))
        ghost.record_eviction(_item("c", 30))
        hit = ghost.record_miss("a", 10, 1)
        assert hit.depth == 60          # a + everything evicted after it

    def test_byte_bound_evicts_oldest_metadata(self):
        ghost = GhostCache(100)
        for index in range(20):
            ghost.record_eviction(_item(f"k{index}", 10))
        assert ghost.used_bytes <= 100
        assert len(ghost) == 10
        assert "k0" not in ghost and "k19" in ghost

    def test_entry_bound_independent_of_bytes(self):
        ghost = GhostCache(10_000, max_entries=5)
        for index in range(8):
            ghost.record_eviction(_item(f"k{index}", 1))
        assert len(ghost) == 5

    def test_re_eviction_of_same_key_does_not_leak_bytes(self):
        ghost = GhostCache(1000)
        for _ in range(5):
            ghost.record_eviction(_item("a", 100))
        assert len(ghost) == 1
        assert ghost.used_bytes == 100

    def test_depth_is_constant_time_snapshot(self):
        """Depth counts all bytes evicted since the entry, even bytes of
        entries the bounded ghost has since dropped."""
        ghost = GhostCache(100, max_entries=3)
        ghost.record_eviction(_item("a", 10))
        for index in range(4):
            ghost.record_eviction(_item(f"b{index}", 20))
        # "a" itself was shrunk away; the deepest survivor is b1
        hit = ghost.record_miss("b1", 20, 1)
        assert hit is not None
        assert hit.depth == 60          # b1 + b2 + b3

    def test_oversized_item_clamped_to_capacity(self):
        ghost = GhostCache(100)
        ghost.record_eviction(_item("big", 500))
        assert ghost.used_bytes <= 100
        assert "big" in ghost

    def test_curve_is_cumulative_and_bounded(self):
        ghost = GhostCache(640, buckets=4)
        for index in range(4):
            ghost.record_eviction(_item(f"k{index}", 100))
        # k0 is deepest (depth 400), k3 shallowest (depth 100)
        ghost.record_miss("k3", 100, 7)
        ghost.record_miss("k0", 100, 9)
        curve = ghost.curve()
        assert len(curve) == 4
        extras = [point[0] for point in curve]
        assert extras == sorted(extras)
        gains = [point[1] for point in curve]
        assert gains == sorted(gains)           # cumulative, non-decreasing
        assert gains[-1] == pytest.approx(16)   # both costs eventually
        assert curve[0][1] == pytest.approx(7)  # shallow hit counts early

    def test_window_gain_interpolates_within_bucket(self):
        ghost = GhostCache(400, buckets=4)      # bucket = 100 bytes
        ghost.record_eviction(_item("a", 50))
        ghost.record_miss("a", 50, 10)          # depth 50 -> bucket 0
        assert ghost.window_gain(100) == pytest.approx(10)
        assert ghost.window_gain(50) == pytest.approx(5)   # half the bucket
        assert ghost.window_gain(0) == 0.0

    def test_reset_window_clears_gains_not_entries(self):
        ghost = GhostCache(1000)
        ghost.record_eviction(_item("a", 10))
        ghost.record_eviction(_item("b", 10))
        ghost.record_miss("a", 10, 3)
        ghost.reset_window()
        assert ghost.window_gain(1000) == 0.0
        assert "b" in ghost
        assert ghost.ghost_hits == 1            # lifetime counter survives

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            GhostCache(0)
        with pytest.raises(ConfigurationError):
            GhostCache(10, max_entries=0)
        with pytest.raises(ConfigurationError):
            GhostCache(10, buckets=0)


class TestKvsResize:
    def test_grow_is_free(self):
        kvs = KVS(100, LruPolicy())
        kvs.insert("a", 50, 1)
        assert kvs.resize(200) == []
        assert kvs.capacity == 200
        assert "a" in kvs

    def test_shrink_evicts_down_to_budget(self):
        kvs = KVS(100, LruPolicy())
        for index in range(10):
            kvs.insert(f"k{index}", 10, 1)
        evicted = kvs.resize(45)
        assert [item.key for item in evicted] == ["k0", "k1", "k2", "k3",
                                                  "k4", "k5"]
        assert kvs.used_bytes <= 45
        kvs.check_consistency()

    def test_shrink_notifies_listeners_like_demand_eviction(self):
        events = []

        class Recorder:
            def on_insert(self, item):
                pass

            def on_evict(self, item, explicit):
                events.append((item.key, explicit))

        kvs = KVS(100, LruPolicy())
        kvs.add_listener(Recorder())
        kvs.insert("a", 60, 1)
        kvs.insert("b", 40, 1)
        kvs.resize(50)
        assert ("a", False) in events

    def test_resize_under_load_invariants(self):
        """Random interleaving of requests and resizes keeps accounting,
        policy agreement and the capacity bound intact."""
        policy = CampPolicy(precision=5)
        kvs = KVS(2000, policy)
        rng = random.Random(11)
        for step in range(1500):
            key = f"k{rng.randrange(80)}"
            if kvs.lookup(key) is not Outcome.HIT:
                kvs.insert(key, rng.randrange(1, 200),
                           rng.choice([1, 100, 10_000]))
            if step % 50 == 25:
                kvs.resize(rng.randrange(200, 3000))
            assert kvs.used_bytes <= kvs.capacity
        kvs.check_consistency()
        policy.check_invariants()

    def test_resize_rejects_bad_capacity(self):
        kvs = KVS(100, LruPolicy())
        with pytest.raises(ConfigurationError):
            kvs.resize(0)

    def test_shrink_with_desynced_policy_raises(self):
        kvs = KVS(100, LruPolicy())
        kvs.insert("a", 80, 1)
        kvs.policy.on_remove("a")     # sabotage: policy forgets the key
        with pytest.raises(EvictionError):
            kvs.resize(10)


def two_tenant_manager(total=100_000, rebalance_every=500, **arbiter_kwargs):
    specs = [TenantSpec("hot", floor=0.1, ceiling=0.9),
             TenantSpec("cold", floor=0.1, ceiling=0.9)]
    arbiter = Arbiter(**arbiter_kwargs) if arbiter_kwargs else None
    return TenantManager(total, specs, rebalance_every=rebalance_every,
                         arbiter=arbiter)


class TestTenantManager:
    def test_routing_by_prefix(self):
        manager = two_tenant_manager()
        manager.put("hot:a", 100, 5)
        assert manager.get("hot:a")
        assert "hot:a" in manager.tenant("hot").kvs
        assert "hot:a" not in manager.tenant("cold").kvs

    def test_unknown_namespace_raises(self):
        manager = two_tenant_manager()
        with pytest.raises(ConfigurationError):
            manager.get("mystery:a")

    def test_initial_split_honours_shares(self):
        specs = [TenantSpec("big", share=0.75, floor=0.1),
                 TenantSpec("small", share=0.25, floor=0.1)]
        manager = TenantManager(100_000, specs, rebalance_every=None)
        assert manager.tenant("big").kvs.capacity == 75_000
        assert manager.tenant("small").kvs.capacity == 25_000

    def test_equal_split_by_default(self):
        manager = two_tenant_manager(total=100_000)
        assert manager.tenant("hot").kvs.capacity == 50_000
        assert manager.tenant("cold").kvs.capacity == 50_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantManager(0, [TenantSpec("a")])
        with pytest.raises(ConfigurationError):
            TenantManager(100, [])
        with pytest.raises(ConfigurationError):
            TenantManager(100, [TenantSpec("a"), TenantSpec("a")])
        with pytest.raises(ConfigurationError):
            TenantManager(100, [TenantSpec("a", floor=0.6),
                                TenantSpec("b", floor=0.6)])
        with pytest.raises(ConfigurationError):
            TenantManager(100, [TenantSpec("a:b")])
        with pytest.raises(ConfigurationError):
            TenantManager(100, [TenantSpec("a", share=0.7),
                                TenantSpec("b", share=0.7)])

    def test_partition_isolation(self):
        """Flooding one tenant never evicts another tenant's pairs."""
        manager = two_tenant_manager(total=10_000, rebalance_every=None)
        manager.put("hot:keep", 1000, 10)
        for index in range(100):
            manager.put(f"cold:junk{index}", 400, 1)
        assert manager.get("hot:keep")
        manager.check_consistency()

    def test_arbiter_moves_bytes_to_high_miss_cost_tenant(self):
        """Convergence: the tenant whose misses cost more ends up with
        more bytes, and floors/ceilings hold at every step."""
        manager = two_tenant_manager(total=60_000, rebalance_every=400)
        rng = random.Random(7)
        floor = manager.tenant("hot").floor_bytes
        ceiling = manager.tenant("hot").ceiling_bytes
        for _ in range(12_000):
            # identical working sets (300 keys x 400B, neither fits), so
            # the only asymmetry is what a miss costs: 10000 vs 1
            if rng.random() < 0.5:
                manager.access(f"hot:k{rng.randrange(300)}", 400, 10_000)
            else:
                manager.access(f"cold:k{rng.randrange(300)}", 400, 1)
            for tenant in manager.tenants():
                assert floor <= tenant.kvs.capacity <= ceiling
        hot = manager.tenant("hot").kvs.capacity
        cold = manager.tenant("cold").kvs.capacity
        assert hot > cold, (hot, cold)
        assert len(manager.transfers) > 0
        for transfer in manager.transfers:
            assert transfer.receiver == "hot"
        manager.check_consistency()

    def test_budget_conserved_across_transfers(self):
        manager = two_tenant_manager(total=50_000, rebalance_every=300)
        rng = random.Random(3)
        for _ in range(6000):
            tenant = "hot" if rng.random() < 0.6 else "cold"
            cost = 5000 if tenant == "hot" else 1
            manager.access(f"{tenant}:k{rng.randrange(200)}", 300, cost)
        total = sum(t.kvs.capacity for t in manager.tenants())
        assert total <= manager.total_bytes
        assert total >= manager.total_bytes - len(manager.tenants())
        manager.check_consistency()

    def test_static_mode_never_transfers(self):
        manager = two_tenant_manager(rebalance_every=None)
        rng = random.Random(5)
        for _ in range(2000):
            manager.access(f"hot:k{rng.randrange(50)}", 500, 1000)
        assert manager.transfers == []
        assert manager.tenant("hot").kvs.capacity == 50_000

    def test_ghost_bounded_by_spec(self):
        specs = [TenantSpec("a", ghost_fraction=0.1, ghost_entries=16),
                 TenantSpec("b")]
        manager = TenantManager(10_000, specs, rebalance_every=None)
        ghost = manager.tenant("a").ghost
        assert ghost.capacity_bytes == 1000
        assert ghost.max_entries == 16
        rng = random.Random(1)
        for index in range(400):
            manager.access(f"a:k{index}", rng.randrange(50, 400), 10)
        assert ghost.used_bytes <= 1000
        assert len(ghost) <= 16


class TestArbiter:
    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            Arbiter(step_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Arbiter(step_fraction=0.6)
        with pytest.raises(ConfigurationError):
            Arbiter(min_gain=-1)

    def test_single_tenant_never_rebalances(self):
        manager = TenantManager(10_000, [TenantSpec("only")],
                                rebalance_every=10)
        for index in range(100):
            manager.access(f"only:k{index % 5}", 100, 10)
        assert manager.transfers == []

    def test_no_transfer_when_gains_tie(self):
        manager = two_tenant_manager(rebalance_every=None)
        assert manager.rebalance() is None

    def test_min_gain_hysteresis_blocks_small_advantages(self):
        manager = two_tenant_manager(rebalance_every=None,
                                     min_gain=1e12)
        tenant = manager.tenant("hot")
        tenant.ghost.record_eviction(CacheItem("hot:x", 100, 50))
        tenant.ghost.record_miss("hot:x", 100, 50)
        assert manager.rebalance() is None

    def test_ceiling_blocks_further_growth(self):
        specs = [TenantSpec("greedy", floor=0.1, ceiling=0.5),
                 TenantSpec("other", floor=0.1, ceiling=1.0)]
        manager = TenantManager(10_000, specs, rebalance_every=None,
                                arbiter=Arbiter(step_fraction=0.2))
        greedy = manager.tenant("greedy")
        for _ in range(20):
            greedy.ghost.record_eviction(CacheItem("greedy:x", 100, 9999))
            greedy.ghost.record_miss("greedy:x", 100, 9999)
            manager.rebalance()
        assert greedy.kvs.capacity <= greedy.ceiling_bytes
        manager.check_consistency()


class TestSimulateTenants:
    def test_two_skewed_tenants_end_to_end(self):
        expensive = three_cost_trace(n_keys=100, n_requests=3000,
                                     costs=(10_000,),
                                     size_values=(512, 1024), seed=1)
        cheap = scan_trace(n_keys=1500, n_requests=3000, size=64,
                           cost=10, seed=2)
        mixed = mixed_tenant_trace({"exp": expensive, "chp": cheap}, seed=3)
        specs = [TenantSpec("exp", floor=0.1, ceiling=0.9),
                 TenantSpec("chp", floor=0.1, ceiling=0.9)]
        manager = TenantManager(int(mixed.unique_bytes * 0.4), specs,
                                rebalance_every=400)
        result = simulate_tenants(manager, mixed, sample_every=500)
        assert result.total_requests == 6000
        assert set(result.per_tenant) == {"exp", "chp"}
        assert result.allocations["exp"] > result.allocations["chp"]
        assert result.samples
        assert result.total_cost_missed == pytest.approx(
            sum(m.cost_missed for m in result.per_tenant.values()))
        manager.check_consistency()

    def test_unknown_tenant_metrics_raises(self):
        manager = two_tenant_manager()
        trace = prefix_trace(three_cost_trace(n_keys=5, n_requests=20,
                                              seed=1), "hot")
        result = simulate_tenants(manager, trace)
        with pytest.raises(ConfigurationError):
            result.metrics("nope")


class TestMixedTenantTrace:
    def test_keys_prefixed_and_counts_preserved(self):
        a = three_cost_trace(n_keys=10, n_requests=50, seed=1)
        b = scan_trace(n_keys=10, n_requests=30, seed=2)
        mixed = mixed_tenant_trace({"a": a, "b": b}, seed=3)
        assert len(mixed) == 80
        counts = {"a": 0, "b": 0}
        for record in mixed:
            tenant, _, _ = record.key.partition(":")
            counts[tenant] += 1
        assert counts == {"a": 50, "b": 30}

    def test_per_tenant_order_preserved(self):
        a = scan_trace(n_keys=100, n_requests=40, seed=1)
        mixed = mixed_tenant_trace(
            {"a": a, "b": scan_trace(n_keys=10, n_requests=40, seed=2)},
            seed=5)
        a_keys = [r.key.partition(":")[2] for r in mixed
                  if r.key.startswith("a:")]
        assert a_keys == [r.key for r in a]

    def test_scan_trace_shape(self):
        trace = scan_trace(n_keys=20, n_requests=60, size=8, cost=3, seed=0)
        assert len(trace) == 60
        assert trace.unique_keys == 20
        assert all(r.size == 8 and r.cost == 3 for r in trace)

    def test_scan_trace_hot_mixin(self):
        trace = scan_trace(n_keys=50, n_requests=500, hot_fraction=0.3,
                           hot_keys=5, seed=1)
        hot = sum(1 for r in trace if ":hot" in r.key or
                  r.key.startswith("hot"))
        assert 50 < hot < 250

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mixed_tenant_trace({})
        with pytest.raises(ConfigurationError):
            mixed_tenant_trace(
                {"a:b": scan_trace(n_keys=1, n_requests=1)})
        with pytest.raises(ConfigurationError):
            scan_trace(hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            prefix_trace(scan_trace(n_keys=1, n_requests=1), "")
