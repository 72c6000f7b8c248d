"""Live cluster tier: kill-one-node drill and warm rejoin — gated.

One run (the "cluster-serving" experiment's
:func:`~repro.experiments.cluster_serving.run_cluster_comparison`, three
real server subprocesses) backs two deterministic gates:

1. **Kill drill.**  SIGKILL one of three nodes (replicas=2): every key
   stays servable — replica read or recompute-and-set — with zero
   client-visible errors, exactly like
   `CooperativeCluster`'s remote-hit semantics but over real sockets.
2. **Warm rejoin.**  The killed node restarts from its snapshot and
   must rejoin warm: items recovered and their CAMP costs read back
   (cost-aware ``gets``) byte-for-byte as written.

Tables are written to ``benchmarks/out/cluster_serving.txt``.  Cluster
throughput is the ``cluster_batch`` workload of ``bench/``.
"""

import pytest
from conftest import bench_scale

from repro.experiments.cluster_serving import run_cluster_comparison, tables_for


@pytest.fixture(scope="module")
def comparison():
    return run_cluster_comparison(bench_scale())


def test_kill_one_node_keeps_every_key_servable(comparison, save_tables):
    save_tables("cluster_serving", tables_for(comparison))
    drill = comparison.drill
    assert drill.client_errors == 0, (
        f"kill drill surfaced {drill.client_errors} client-visible "
        f"errors; a dead node must degrade to replica reads, not raise")
    assert drill.servable == drill.keys_total, (
        f"only {drill.servable}/{drill.keys_total} keys servable "
        f"after the kill")
    # the dead primary's keys were actually carried by replicas (not
    # all recomputed from scratch)
    assert drill.replica_hits > 0
    # once recomputes landed, a second sweep finds everything in cache
    assert drill.second_pass_found == drill.keys_total


def test_bounced_node_rejoins_warm_with_camp_state(comparison):
    rejoin = comparison.rejoin
    assert rejoin.recovered_items > 0, "snapshot restore brought nothing"
    assert rejoin.found > 0, "bounced node serves none of its keys"
    assert rejoin.costs_intact == rejoin.found, (
        f"{rejoin.found - rejoin.costs_intact} keys came back with "
        f"wrong cost/value — CAMP priorities corrupted across the "
        f"bounce")
    assert rejoin.warm
