"""Per-namespace metrics (the intro's two-application breakdown)."""

import pytest

from repro.cache import KVS, Outcome, PerNamespaceMetrics
from repro.core import CampPolicy, LruPolicy
from repro.errors import ConfigurationError
from repro.workloads import Trace, TraceRecord


class TestPerNamespaceMetrics:
    def test_split_by_prefix(self):
        metrics = PerNamespaceMetrics()
        metrics.record("ads:1", 10, 100, hit=False)   # cold
        metrics.record("ads:1", 10, 100, hit=False)   # counted miss
        metrics.record("vp:2", 5, 1, hit=False)       # cold
        metrics.record("vp:2", 5, 1, hit=True)        # counted hit
        assert metrics.namespaces() == ["ads", "vp"]
        assert metrics.metrics("ads").miss_rate == 1.0
        assert metrics.metrics("vp").miss_rate == 0.0

    def test_unknown_namespace_raises(self):
        with pytest.raises(ConfigurationError):
            PerNamespaceMetrics().metrics("ghost")

    def test_summary_rows_shape(self):
        metrics = PerNamespaceMetrics()
        metrics.record("a:1", 1, 5, hit=False)
        metrics.record("a:1", 1, 5, hit=False)
        rows = metrics.summary_rows()
        assert rows == [("a", 2, 1.0, 1.0, 5.0)]

    def test_extended_summary_rows_add_rate_and_bytes(self):
        metrics = PerNamespaceMetrics()
        metrics.record("a:1", 1, 5, hit=False)   # cold
        metrics.record("a:1", 1, 5, hit=False)   # counted miss, cost 5
        metrics.record("a:1", 1, 5, hit=True)    # counted hit
        rows = metrics.summary_rows(extended=True)
        assert len(rows[0]) == 7
        namespace, requests, _, _, _, cost_miss_rate, resident = rows[0]
        assert (namespace, requests) == ("a", 3)
        assert cost_miss_rate == pytest.approx(2.5)   # 5 over 2 counted
        assert resident == 0                          # not subscribed

    def test_resident_bytes_tracked_as_listener(self):
        kvs = KVS(100, LruPolicy())
        metrics = PerNamespaceMetrics()
        kvs.add_listener(metrics)
        kvs.insert("a:1", 40, 1)
        kvs.insert("b:1", 30, 1)
        assert metrics.resident_bytes("a") == 40
        assert metrics.resident_bytes("b") == 30
        kvs.insert("b:2", 50, 1)     # evicts a:1 (LRU), b:1 survives
        assert metrics.resident_bytes("a") == 0
        assert metrics.resident_bytes("b") == 80
        rows = metrics.summary_rows(extended=True)
        assert rows == []          # residency tracking records no requests

    def test_cost_miss_rate_zero_without_counted_requests(self):
        metrics = PerNamespaceMetrics()
        metrics.record("a:1", 1, 5, hit=False)   # cold only
        assert metrics.metrics("a").cost_miss_rate == 0.0

    def test_cold_exclusion_is_per_key_not_per_namespace(self):
        metrics = PerNamespaceMetrics()
        metrics.record("a:1", 1, 5, hit=False)   # cold
        metrics.record("a:2", 1, 5, hit=False)   # also cold (distinct key)
        assert metrics.metrics("a").cold_requests == 2
        assert metrics.metrics("a").misses == 0

    def test_two_application_scenario(self):
        """CAMP shields the expensive application: its per-namespace
        cost-miss ratio is far lower than under LRU."""
        records = []
        import random
        rng = random.Random(4)
        for _ in range(20_000):
            if rng.random() < 0.9:
                records.append(
                    TraceRecord(f"profile:{rng.randrange(500)}", 100, 1))
            else:
                records.append(
                    TraceRecord(f"ads:{rng.randrange(50)}", 100, 10_000))
        trace = Trace(records)
        outcomes = {}
        for name, policy in (("camp", CampPolicy(5)), ("lru", LruPolicy())):
            kvs = KVS(trace.capacity_for_ratio(0.2), policy)
            metrics = PerNamespaceMetrics()
            for record in trace:
                hit = kvs.lookup(record.key) is Outcome.HIT
                metrics.record(record.key, record.size, record.cost, hit)
                if not hit:
                    kvs.insert(record.key, record.size, record.cost)
            outcomes[name] = metrics
        camp_ads = outcomes["camp"].metrics("ads").cost_miss_ratio
        lru_ads = outcomes["lru"].metrics("ads").cost_miss_ratio
        assert camp_ads < lru_ads
