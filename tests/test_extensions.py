"""Tests for the extension round: count-min/TinyLFU, trace analysis,
windowed metrics, and the decision-agreement tool."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import KVS, Outcome, WindowedMetrics
from repro.core import (
    CampPolicy,
    GdsPolicy,
    LruPolicy,
    TinyLfuAdmission,
)
from repro.errors import ConfigurationError
from repro.sim import eviction_agreement
from repro.structures import CountMinSketch
from repro.workloads import (
    Trace,
    TraceRecord,
    gini,
    profile_trace,
    three_cost_trace,
    top_share,
    working_set_curve,
)


class TestCountMinSketch:
    def test_never_undercounts_within_window(self):
        sketch = CountMinSketch(width=512, depth=4, sample_window=10 ** 9,
                                max_count=10 ** 9)
        counts = {}
        rng = random.Random(1)
        for _ in range(3000):
            key = f"k{rng.randrange(100)}"
            sketch.add(key)
            counts[key] = counts.get(key, 0) + 1
        for key, true_count in counts.items():
            assert sketch.estimate(key) >= min(true_count, 10 ** 9)

    def test_overcount_bounded_on_sparse_keys(self):
        sketch = CountMinSketch(width=4096, depth=4, sample_window=10 ** 9)
        for i in range(100):
            sketch.add(f"k{i}")
        assert sketch.estimate("never-added") <= 2

    def test_aging_halves_counters(self):
        sketch = CountMinSketch(width=64, depth=2, sample_window=8,
                                max_count=100)
        for _ in range(7):
            sketch.add("hot")
        assert sketch.estimate("hot") == 7
        sketch.add("hot")          # 8th add triggers the reset
        assert sketch.resets == 1
        assert sketch.estimate("hot") == 4   # halved

    def test_max_count_cap(self):
        sketch = CountMinSketch(width=64, depth=2, sample_window=10 ** 9,
                                max_count=15)
        for _ in range(100):
            sketch.add("hot")
        assert sketch.estimate("hot") == 15

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(depth=0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(sample_window=0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(max_count=0)


class TestTinyLfuAdmission:
    def test_first_request_rejected_second_admitted(self):
        admission = TinyLfuAdmission(threshold=2)
        assert not admission.admit("a", 1, 1)
        assert admission.admit("a", 1, 1)

    def test_hits_warm_the_sketch(self):
        admission = TinyLfuAdmission(threshold=2)
        admission.on_access("a")
        assert admission.admit("a", 1, 1)

    def test_threshold_one_admits_everything(self):
        admission = TinyLfuAdmission(threshold=1)
        assert admission.admit("anything", 1, 1)

    def test_integration_with_kvs(self):
        kvs = KVS(1000, LruPolicy(), admission=TinyLfuAdmission(threshold=2))
        assert kvs.insert("one-hit", 10, 1) is \
            Outcome.MISS_REJECTED_ADMISSION
        assert kvs.rejected_admission == 1
        assert kvs.insert("one-hit", 10, 1) is Outcome.MISS_INSERTED

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            TinyLfuAdmission(threshold=0)

    def test_estimates_and_decisions_independent_of_hash_seed(self):
        # the sketch hashes with CRC-32, so the salted built-in hash of
        # one process or another must not move a count or a decision; a
        # narrow sketch makes every row collide, so a salted hash shows
        replay = (
            "import random\n"
            "from repro.core import TinyLfuAdmission\n"
            "from repro.structures import CountMinSketch\n"
            "sketch = CountMinSketch(width=32, depth=3,"
            " sample_window=500)\n"
            "admission = TinyLfuAdmission(threshold=3, sketch=sketch)\n"
            "rng = random.Random(6)\n"
            "decisions = ''.join(\n"
            "    'A' if admission.admit(f'k{rng.randrange(300)}', 1, 1)\n"
            "    else '.' for _ in range(2000))\n"
            "print(decisions)\n"
            "print(' '.join(str(sketch.estimate(f'k{i}'))"
            " for i in range(300)))\n")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            done = subprocess.run([sys.executable, "-c", replay], env=env,
                                  capture_output=True, text=True,
                                  timeout=60, check=True)
            outputs.append(done.stdout.split("\n"))
        decisions, estimates = outputs[0][0], outputs[0][1]
        assert 0 < decisions.count("A") < len(decisions)
        assert len(set(estimates.split())) > 1
        assert outputs[0] == outputs[1]


class TestTraceAnalysis:
    def test_top_share_of_skewed_trace(self):
        trace = three_cost_trace(n_keys=1000, n_requests=20_000, seed=2)
        share = top_share(trace, 0.2)
        assert 0.5 < share < 0.9   # the BG-like 70/20 regime

    def test_top_share_uniform_key_fraction(self):
        trace = Trace(
            [TraceRecord(f"k{i}", 1, 1) for i in range(10)])
        assert top_share(trace, 1.0) == pytest.approx(1.0)

    def test_gini_extremes(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)
        assert gini([0, 0, 0, 100]) > 0.7
        assert gini([]) == 0.0

    def test_working_set_curve_monotone(self):
        trace = three_cost_trace(n_keys=300, n_requests=5000, seed=3)
        curve = working_set_curve(trace, points=10)
        byte_counts = [b for _, b in curve]
        assert byte_counts == sorted(byte_counts)
        assert byte_counts[-1] == trace.unique_bytes

    def test_profile_fields(self):
        trace = three_cost_trace(n_keys=200, n_requests=3000, seed=4)
        profile = profile_trace(trace)
        assert profile.requests == 3000
        assert profile.unique_keys == trace.unique_keys
        assert profile.distinct_costs <= 3
        assert profile.cost_min == 1
        assert profile.cost_max == 10_000
        assert len(profile.lines()) == 8

    def test_profile_empty_raises(self):
        with pytest.raises(ConfigurationError):
            profile_trace(Trace([]))

    def test_invalid_args(self):
        trace = Trace([TraceRecord("a", 1, 1)])
        with pytest.raises(ConfigurationError):
            top_share(trace, 0.0)
        with pytest.raises(ConfigurationError):
            working_set_curve(trace, points=0)


class TestWindowedMetrics:
    def test_windows_and_cold_exclusion(self):
        metrics = WindowedMetrics(window=3)
        metrics.record("a", 10, hit=False)  # cold
        metrics.record("a", 10, hit=True)
        metrics.record("a", 10, hit=False)
        assert metrics.windows == [(3, 0.5, 0.5)]

    def test_finish_flushes_partial(self):
        metrics = WindowedMetrics(window=100)
        metrics.record("a", 1, hit=False)
        metrics.record("a", 1, hit=True)
        metrics.finish()
        assert len(metrics.windows) == 1

    def test_series_accessors(self):
        metrics = WindowedMetrics(window=2)
        for _ in range(4):
            metrics.record("a", 1, hit=True)
        assert len(metrics.miss_rate_series()) == 2
        assert len(metrics.cost_miss_series()) == 2

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            WindowedMetrics(window=0)


class TestEvictionAgreement:
    def test_camp_infinite_precision_identical_to_gds(self):
        trace = three_cost_trace(n_keys=300, n_requests=6000, seed=5)
        result = eviction_agreement(CampPolicy(precision=None), GdsPolicy(),
                                    trace, max_resident=40)
        assert result.identical
        assert result.positional_agreement == 1.0
        assert result.resident_jaccard == 1.0

    def test_rounded_camp_agreement_grows_with_precision(self):
        trace = three_cost_trace(n_keys=300, n_requests=6000, seed=6)
        agreements = []
        for precision in (1, 5, None):
            result = eviction_agreement(CampPolicy(precision=precision),
                                        GdsPolicy(), trace, max_resident=40)
            agreements.append(result.positional_agreement)
        assert agreements[-1] == 1.0
        assert agreements[0] <= agreements[-1]

    def test_lru_differs_from_gds(self):
        trace = three_cost_trace(n_keys=300, n_requests=6000, seed=7)
        result = eviction_agreement(LruPolicy(), GdsPolicy(), trace,
                                    max_resident=40)
        assert not result.identical
        assert result.positional_agreement < 1.0

    def test_invalid_resident_bound(self):
        with pytest.raises(ConfigurationError):
            eviction_agreement(LruPolicy(), GdsPolicy(), [], max_resident=0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()),
                min_size=1, max_size=200))
def test_windowed_metrics_totals_match_aggregate(raw):
    """Re-weighting the windowed rates reproduces the aggregate counts."""
    from repro.cache import SimulationMetrics
    aggregate = SimulationMetrics()
    windowed = WindowedMetrics(window=7)
    for key_id, hit in raw:
        key = f"k{key_id}"
        # a request can only be a hit if previously seen; normalize
        actual_hit = hit and key in aggregate._seen
        aggregate.record(key, 1, 5, actual_hit)
        windowed.record(key, 5, actual_hit)
    windowed.finish()
    assert sum(windowed.window_counts) == aggregate.counted_requests
    weighted_misses = sum(rate * count for (_, rate, _), count in
                          zip(windowed.windows, windowed.window_counts))
    assert weighted_misses == pytest.approx(aggregate.misses, abs=1e-6)
