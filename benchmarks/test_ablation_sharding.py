"""Ablation — hash-partitioned CAMP (section 4.1's vertical scaling).

Sharding approximates single-instance CAMP: the cost-miss ratio should
degrade only mildly as shards are added — a deterministic quality leg,
asserted on any host.  The striped per-shard locks should also pay off
under concurrency — shards=4/8 beat the single-mutex configuration on
the threaded driver — but threads only run side by side where there are
cores for them, so that timing leg is asserted on hosts with >= 4 CPUs
and neither run nor asserted elsewhere.
"""

import os

import pytest
from conftest import bench_scale

from repro.experiments import run_experiment
from repro.experiments.ablations import SHARDING_TIMING_MIN_CPUS


@pytest.fixture(scope="module")
def table(save_tables):
    tables = run_experiment("ablation-sharding", bench_scale())
    save_tables("ablation_sharding", tables)
    return tables[0]


def test_sharding_ablation(table):
    quality = {row[0]: row[2] for row in table.rows}   # cost-miss ratio
    single = quality[1]
    for shards, cost in quality.items():
        assert cost <= single + 0.1, \
            f"{shards} shards degraded cost-miss ratio to {cost:.4f}"


def test_striped_locks_beat_one_mutex_under_threads(table):
    if bench_scale() == "tiny":
        pytest.skip("a tiny trace split 8 ways is a few hundred events "
                    "per thread: start/join costs swamp contention")
    cpus = os.cpu_count() or 1
    if cpus < SHARDING_TIMING_MIN_CPUS:
        pytest.skip(f"{cpus} CPUs cannot run 8 threads side by side; the "
                    f"experiment runs the timing leg only on >= "
                    f"{SHARDING_TIMING_MIN_CPUS}")
    threaded = {row[0]: row[3] for row in table.rows}
    for shards in (4, 8):
        assert threaded[shards] < threaded[1], (
            f"striped locks must beat one mutex under threads: "
            f"{shards} shards took {threaded[shards]:.3f}s vs "
            f"{threaded[1]:.3f}s for 1")
