"""Tests for the DRAM-over-disk hierarchy, ASCII charts and new CLI verbs."""

import pytest

from repro.analysis import ascii_chart
from repro.cache import Outcome, StoreConfig
from repro.cli import main
from repro.errors import ConfigurationError
from repro.tiering import DiskTier, TieredBackend


@pytest.fixture
def two_levels(tmp_path):
    """Factory for CAMP tiered stores with payloads; closes every tier."""
    stores = []

    def factory(c1=50, c2=1000, factor=0.1):
        store = (StoreConfig(c1).policy("camp").track_metrics()
                 .tiered(str(tmp_path / f"tier-{len(stores)}"), c2,
                         l2_hit_cost_factor=factor, recover=False)
                 .build())
        stores.append(store)
        return store

    yield factory
    for store in stores:
        store.kvs.close()


def payload(key):
    return f"value of {key}".encode().ljust(30, b".")


def never_called(key):
    pytest.fail(f"{key} recomputed instead of served from a level")


class TestMultiLevelCache:
    """The values themselves, not only the metadata, move between levels."""

    def test_miss_fills_level1(self, two_levels):
        store = two_levels()
        result = store.get_or_compute("a", payload, size=30, cost=100)
        assert result.outcome is Outcome.MISS_INSERTED
        assert result.value == payload("a")
        assert store.kvs.resident_level("a") == 1
        assert len(store.kvs.tier) == 0

    def test_cascade_demotion(self, two_levels):
        store = two_levels(c1=50)
        for key in "abcd":
            store.put(key, 30, 100, value=payload(key))
        # level 1 holds one 30-byte pair; earlier pairs cascaded to disk
        assert store.kvs.demotions >= 3
        levels = {key: store.kvs.resident_level(key) for key in "abcd"}
        assert levels == {"a": 2, "b": 2, "c": 2, "d": 1}
        for key in "abc":
            assert store.kvs.value_of(key) == payload(key)

    def test_hit_at_depth_promotes_and_discounts(self, two_levels):
        store = two_levels(c1=50)
        for key in "abc":
            store.get_or_compute(key, payload, size=30, cost=100)
        demoted = next(k for k in "ab" if store.kvs.resident_level(k) == 2)
        charged = store.metrics.total_miss_cost
        result = store.get_or_compute(demoted, never_called,
                                      size=30, cost=100)
        assert result.outcome is Outcome.HIT_L2
        assert result.value == payload(demoted)
        assert store.metrics.total_miss_cost - charged \
            == pytest.approx(10.0)
        assert store.kvs.resident_level(demoted) == 1
        assert store.kvs.promotions == 1

    def test_store_accessor_and_levels(self, two_levels):
        store = two_levels(c1=50, c2=1000)
        backend = store.kvs
        assert isinstance(backend, TieredBackend)
        assert backend.kvs.capacity == 50
        assert isinstance(backend.tier, DiskTier)
        assert backend.tier.capacity == 1000
        store.put("a", 30, 100, value=payload("a"))
        store.put("b", 30, 100, value=payload("b"))
        assert [backend.resident_level(k) for k in "abz"] == [2, 1, 0]
        assert backend.tier.contains("a") and "b" in backend.kvs

    def test_invalid_construction(self, tmp_path):
        with pytest.raises(ConfigurationError):
            (StoreConfig(50).tiered(str(tmp_path / "zero"), 0,
                                    recover=False).build())
        with pytest.raises(ConfigurationError):
            (StoreConfig(50).tiered(str(tmp_path / "dear"), 1000,
                                    l2_hit_cost_factor=1.5,
                                    recover=False).build())
        with pytest.raises(ConfigurationError):
            (StoreConfig(50).persistence(str(tmp_path / "snap"))
             .tiered(str(tmp_path / "both"), 1000, recover=False).build())


class TestAsciiChart:
    def test_contains_series_glyphs_and_labels(self):
        chart = ascii_chart({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
                            title="demo", x_label="x", y_label="y")
        assert "demo" in chart
        assert "* a" in chart and "o b" in chart
        assert "x: x" in chart

    def test_constant_series_does_not_crash(self):
        chart = ascii_chart({"flat": [(0, 5), (1, 5), (2, 5)]})
        assert "5" in chart

    def test_single_point(self):
        assert ascii_chart({"dot": [(3, 7)]})

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({})
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": []})
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [(0, 0)]}, width=5)

    def test_dimensions_respected(self):
        chart = ascii_chart({"a": [(0, 0), (1, 1)]}, width=40, height=8)
        grid_lines = [line for line in chart.splitlines() if "|" in line]
        assert len(grid_lines) == 8
        assert all(len(line.split("|", 1)[1]) == 40 for line in grid_lines)


class TestNewCliVerbs:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.csv")
        assert main(["gen-trace", "three-cost", path,
                     "--keys", "80", "--requests", "800"]) == 0
        return path

    def test_compare(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["compare", trace_path, "--policies", "camp", "lru",
                     "--ratios", "0.2", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cost_miss_ratio" in out and "miss_rate" in out
        assert "camp" in out and "lru" in out

    def test_compare_with_chart(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["compare", trace_path, "--policies", "camp", "lru",
                     "--ratios", "0.2", "0.5", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "[chart]" in out

    def test_analyze(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["analyze", trace_path, "--working-set"]) == 0
        out = capsys.readouterr().out
        assert "top-20% key share" in out
        assert "working set growth" in out

    def test_run_with_chart(self, capsys):
        assert main(["run", "fig7", "--scale", "tiny", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "[chart]" in out
