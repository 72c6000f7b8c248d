"""Metrics tests: cold-request exclusion, ratios, occupancy tracking."""

import pytest

from repro.cache import KVS, OccupancyTracker, SimulationMetrics, default_namespace
from repro.core import LruPolicy
from repro.core.policy import CacheItem
from repro.errors import ConfigurationError


class TestSimulationMetrics:
    def test_cold_requests_not_counted(self):
        metrics = SimulationMetrics()
        metrics.record("a", 10, 100, hit=False)   # cold
        assert metrics.cold_requests == 1
        assert metrics.misses == 0
        assert metrics.miss_rate == 0.0
        assert metrics.cost_miss_ratio == 0.0

    def test_miss_rate(self):
        metrics = SimulationMetrics()
        metrics.record("a", 10, 100, hit=False)   # cold
        metrics.record("a", 10, 100, hit=True)
        metrics.record("a", 10, 100, hit=False)
        metrics.record("a", 10, 100, hit=True)
        assert metrics.miss_rate == pytest.approx(1 / 3)
        assert metrics.hit_rate == pytest.approx(2 / 3)

    def test_cost_miss_ratio_weights_by_cost(self):
        metrics = SimulationMetrics()
        for key, cost in (("a", 1), ("b", 10_000)):
            metrics.record(key, 10, cost, hit=False)  # cold
        metrics.record("a", 10, 1, hit=False)      # cheap miss
        metrics.record("b", 10, 10_000, hit=True)  # expensive hit
        assert metrics.miss_rate == pytest.approx(0.5)
        assert metrics.cost_miss_ratio == pytest.approx(1 / 10_001)

    def test_byte_miss_ratio(self):
        metrics = SimulationMetrics()
        metrics.record("a", 100, 1, hit=False)
        metrics.record("a", 100, 1, hit=False)
        metrics.record("b", 300, 1, hit=False)
        metrics.record("b", 300, 1, hit=True)
        assert metrics.byte_miss_ratio == pytest.approx(100 / 400)

    def test_empty_metrics_safe(self):
        metrics = SimulationMetrics()
        assert metrics.miss_rate == 0.0
        assert metrics.cost_miss_ratio == 0.0
        assert metrics.hit_rate == 0.0

    def test_as_dict(self):
        metrics = SimulationMetrics()
        metrics.record("a", 1, 1, hit=False)
        data = metrics.as_dict()
        assert data["requests"] == 1
        assert data["cold_requests"] == 1


class TestDefaultNamespace:
    def test_prefixed_key(self):
        assert default_namespace("tf1:VP:42") == "tf1"

    def test_unprefixed_key(self):
        assert default_namespace("plainkey") == ""


class TestOccupancyTracker:
    def test_tracks_bytes_per_namespace(self):
        tracker = OccupancyTracker(capacity=100)
        tracker.on_insert(CacheItem("tf1:a", 30, 1))
        tracker.on_insert(CacheItem("tf2:b", 20, 1))
        assert tracker.fraction("tf1") == pytest.approx(0.3)
        assert tracker.fraction("tf2") == pytest.approx(0.2)
        tracker.on_evict(CacheItem("tf1:a", 30, 1), explicit=False)
        assert tracker.fraction("tf1") == 0.0

    def test_sampling_series(self):
        tracker = OccupancyTracker(capacity=100)
        tracker.on_insert(CacheItem("tf1:a", 50, 1))
        tracker.sample(10)
        tracker.on_evict(CacheItem("tf1:a", 50, 1), explicit=False)
        tracker.sample(20)
        series = tracker.series("tf1")
        assert series == [(10, 0.5), (20, 0.0)]

    def test_integration_with_kvs(self):
        kvs = KVS(50, LruPolicy())
        tracker = OccupancyTracker(capacity=50)
        kvs.add_listener(tracker)
        kvs.insert("tf1:a", 20, 1)
        kvs.insert("tf1:b", 20, 1)
        kvs.insert("tf2:c", 20, 1)   # evicts tf1:a
        assert tracker.bytes_of("tf1") == 20
        assert tracker.bytes_of("tf2") == 20

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            OccupancyTracker(capacity=0)

    def test_namespaces_snapshot(self):
        tracker = OccupancyTracker(capacity=100)
        tracker.on_insert(CacheItem("tf1:a", 10, 1))
        assert tracker.namespaces() == {"tf1": 10}
