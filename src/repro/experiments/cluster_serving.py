"""Live cluster serving: scaling, kill-one-node drill, warm rejoin.

The measurement half of the cluster tier (ROADMAP item 1, first slice
of item 2's out-of-process rig).  Three claims, each backed by real
subprocesses — N :mod:`repro.cluster.node` servers under a
:class:`~repro.cluster.ClusterSupervisor`, driven by
:mod:`repro.cluster.loadgen` subprocesses so client-side work never
shares a GIL with the servers being measured:

1. **Scaling** — aggregate pipelined throughput from 1 to 3 server
   processes, with per-batch p50/p99 latency.  Three processes are
   three GILs; on a host with cores to run them the cluster must scale
   ≥1.8x (see :func:`required_speedup` for the hardware-aware gate).
2. **Kill drill** — with ``replicas=2``, SIGKILL one node mid-serve:
   every key must remain *servable* (replica read, or recompute + set
   like any cache miss) with **zero client-visible errors**.
3. **Warm rejoin** — the killed node restarts from its snapshot and
   must come back warm: items recovered, and their CAMP costs read
   back (``gets``) exactly as written, i.e. priorities intact.

``benchmarks/test_cluster.py`` turns all three into gates and archives
the tables to ``benchmarks/out/cluster_serving.txt``.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis import Table
from repro.cluster.client import ClusterClient
from repro.cluster.loadgen import (cost_for, key_name, percentile,
                                   run_drivers, value_for)
from repro.cluster.supervisor import ClusterSupervisor
from repro.errors import ConfigurationError
from repro.experiments.data import get_scale
from repro.twemcache.async_client import AsyncSocketClient

__all__ = ["ClusterScale", "cluster_scale", "required_speedup",
           "ScalingRun", "DrillResult", "RejoinResult",
           "ClusterComparison", "run_cluster_comparison", "tables_for",
           "run"]

#: replica copies per key in the drill cluster (the scaling phase keeps
#: the same setting; a 1-node ring simply caps it at 1)
REPLICAS = 2

#: the paper-facing bar: 3 server processes are 3 GILs, so aggregate
#: throughput must scale >=1.8x over 1 process — *when the host can
#: actually run them in parallel*.  Below that core count the gate
#: degrades to a no-collapse floor: sharding + replication overhead
#: must not halve throughput (same margin convention as
#: benchmarks/test_async_serving.py's REQUIRED_SPEEDUP).
PARALLEL_SPEEDUP = {"tiny": 1.3, "default": 1.8, "full": 1.8}
FLOOR_SPEEDUP = {"tiny": 0.4, "default": 0.5, "full": 0.5}
#: cores needed before 1->3 process scaling is a hardware possibility
#: (3 servers + at least one driver process)
PARALLEL_CORES = 4


def required_speedup(scale: str) -> float:
    """The throughput gate for this host: parallel bar or floor."""
    cores = os.cpu_count() or 1
    table = PARALLEL_SPEEDUP if cores >= PARALLEL_CORES else FLOOR_SPEEDUP
    return table.get(scale, table["default"])


@dataclass(frozen=True, slots=True)
class ClusterScale:
    """Driver sizing for one scale."""

    keys: int
    value_size: int
    batch: int
    batches: int
    drivers: int
    pool_size: int


_CONFIGS: Dict[str, ClusterScale] = {
    "tiny": ClusterScale(keys=300, value_size=64, batch=32, batches=12,
                         drivers=1, pool_size=2),
    "default": ClusterScale(keys=1_500, value_size=100, batch=64,
                            batches=30, drivers=2, pool_size=2),
    "full": ClusterScale(keys=5_000, value_size=100, batch=64,
                         batches=120, drivers=3, pool_size=4),
}


def cluster_scale(scale: str) -> ClusterScale:
    get_scale(scale)  # validate the scale name with the shared error
    try:
        return _CONFIGS[scale]
    except KeyError:  # pragma: no cover - scales and configs stay in sync
        raise ConfigurationError(f"no cluster config for scale {scale!r}")


# ----------------------------------------------------------------------
# result shapes
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ScalingRun:
    """Aggregate driver throughput against an N-node cluster."""

    nodes: int
    drivers: int
    ops: int
    ops_per_sec: float
    p50_ms: float
    p99_ms: float
    errors: int


@dataclass(slots=True)
class DrillResult:
    """Kill-one-node: every key servable, zero client-visible errors."""

    keys_total: int
    served_from_cache: int
    recomputed: int
    client_errors: int
    replica_hits: int
    second_pass_found: int

    @property
    def servable(self) -> int:
        return self.served_from_cache + self.recomputed


@dataclass(slots=True)
class RejoinResult:
    """Bounced node back from its snapshot with CAMP state intact."""

    recovered_items: int
    probes: int
    found: int
    costs_intact: int

    @property
    def warm(self) -> bool:
        return (self.recovered_items > 0 and self.found > 0
                and self.costs_intact == self.found)


@dataclass(slots=True)
class ClusterComparison:
    """Everything the benchmark gates, in one bundle."""

    scale: str
    scaling: List[ScalingRun]
    drill: DrillResult
    rejoin: RejoinResult

    @property
    def speedup(self) -> float:
        by_nodes = {run.nodes: run.ops_per_sec for run in self.scaling}
        single = by_nodes.get(1, 0.0)
        return by_nodes.get(3, 0.0) / single if single else 0.0


# ----------------------------------------------------------------------
# phase 1: throughput scaling 1 -> 3 nodes
# ----------------------------------------------------------------------
def _measure_nodes(n_nodes: int, config: ClusterScale,
                   seed: int) -> ScalingRun:
    names = [f"s{i}" for i in range(n_nodes)]
    with ClusterSupervisor(names, memory_bytes=64 << 20) as supervisor:
        driver_config = {
            "nodes": {name: list(address) for name, address
                      in supervisor.addresses().items()},
            "replicas": REPLICAS, "keys": config.keys,
            "value_size": config.value_size, "batch": config.batch,
            "batches": config.batches, "pool_size": config.pool_size,
            "seed": seed, "preload": True,
        }
        results = run_drivers(driver_config, drivers=config.drivers)
    ops = sum(r["ops"] for r in results)
    seconds = max(r["seconds"] for r in results)
    batch_ms = [ms for r in results for ms in r["batch_ms"]]
    return ScalingRun(
        nodes=n_nodes, drivers=config.drivers, ops=ops,
        ops_per_sec=ops / max(seconds, 1e-9),
        p50_ms=percentile(batch_ms, 50), p99_ms=percentile(batch_ms, 99),
        errors=sum(r["errors"] for r in results))


# ----------------------------------------------------------------------
# phases 2+3: kill drill, then warm rejoin (one cluster, one story)
# ----------------------------------------------------------------------
async def _drill_and_rejoin(supervisor: ClusterSupervisor,
                            config: ClusterScale
                            ) -> "tuple[DrillResult, RejoinResult]":
    addresses = supervisor.addresses()
    client = ClusterClient(addresses, replicas=REPLICAS,
                           pool_size=config.pool_size, timeout=30.0,
                           backoff_base=0.05, backoff_max=0.5)
    try:
        entries = [(key_name(i), value_for(i, config.value_size), 0, 0,
                    cost_for(i)) for i in range(config.keys)]
        for lo in range(0, len(entries), 256):
            await client.set_many(entries[lo:lo + 256])
        # snapshot every node so the *crash* (SIGKILL, no drain) still
        # has warm-rejoin material — the deployment pattern is the
        # engine's snapshot daemon; one explicit save verb stands in
        await client.save_all()

        victim = sorted(addresses)[0]
        supervisor.kill(victim)

        served = recomputed = errors = 0
        names = [key_name(i) for i in range(config.keys)]
        for lo in range(0, len(names), config.batch):
            chunk = names[lo:lo + config.batch]
            try:
                found = await client.get_many(chunk)
            except Exception:
                errors += 1
                continue
            served += len(found)
            lost = [name for name in chunk if name not in found]
            if lost:
                # a miss is servable the way any cache miss is:
                # recompute and re-set (lands on the surviving holders)
                indexes = [int(name[1:]) for name in lost]
                await client.set_many(
                    [(key_name(i), value_for(i, config.value_size), 0, 0,
                      cost_for(i)) for i in indexes])
                recomputed += len(lost)
        second_pass = 0
        for lo in range(0, len(names), config.batch):
            found = await client.get_many(names[lo:lo + config.batch])
            second_pass += len(found)
        drill = DrillResult(
            keys_total=config.keys, served_from_cache=served,
            recomputed=recomputed, client_errors=errors,
            replica_hits=client.counters["replica_hits"],
            second_pass_found=second_pass)

        # --- warm rejoin -------------------------------------------------
        recovered = supervisor.restart(victim)
        deadline = time.monotonic() + 5.0
        while client.down_nodes() and time.monotonic() < deadline:
            await asyncio.sleep(0.05)   # let failover backoff lapse
        # probe the bounced node *directly*: did its snapshot bring
        # back items with their CAMP costs (gets returns cost)?
        probes = [i for i in range(config.keys)
                  if client.holders(key_name(i))[0] == victim]
        direct = AsyncSocketClient(addresses[victim],
                                   pool_size=config.pool_size)
        try:
            found_values = await direct.get_many(
                [key_name(i) for i in probes], keys_per_command=16,
                with_cost=True)
        finally:
            await direct.close()
        intact = sum(
            1 for i in probes
            if key_name(i) in found_values
            and found_values[key_name(i)].cost == cost_for(i)
            and found_values[key_name(i)].value == value_for(
                i, config.value_size))
        rejoin = RejoinResult(recovered_items=recovered, probes=len(probes),
                              found=len(found_values), costs_intact=intact)
        return drill, rejoin
    finally:
        await client.close()


def run_cluster_comparison(scale: str = "default",
                           seed: int = 11) -> ClusterComparison:
    """Measure scaling, run the kill drill, verify the warm rejoin."""
    config = cluster_scale(scale)
    scaling = [_measure_nodes(1, config, seed),
               _measure_nodes(3, config, seed)]
    with ClusterSupervisor(["s0", "s1", "s2"],
                           memory_bytes=64 << 20) as supervisor:
        drill, rejoin = asyncio.run(_drill_and_rejoin(supervisor, config))
    return ClusterComparison(scale=scale, scaling=scaling, drill=drill,
                             rejoin=rejoin)


# ----------------------------------------------------------------------
# the registry entry point
# ----------------------------------------------------------------------
def run(scale: str = "default") -> List[Table]:
    return tables_for(run_cluster_comparison(scale))


def tables_for(comparison: ClusterComparison) -> List[Table]:
    """Render one comparison as tables (shared with the benchmark, so
    the gates and the archive come from a single measurement)."""
    scale = comparison.scale
    throughput = Table(
        f"Cluster serving — aggregate throughput 1 vs 3 server "
        f"processes (replicas {REPLICAS}, scale {scale})",
        ["nodes", "drivers", "ops", "ops_per_sec", "p50_ms", "p99_ms",
         "driver_errors", "vs_1_node"])
    single = comparison.scaling[0].ops_per_sec
    for run_result in comparison.scaling:
        throughput.add_row(
            run_result.nodes, run_result.drivers, run_result.ops,
            round(run_result.ops_per_sec), round(run_result.p50_ms, 3),
            round(run_result.p99_ms, 3), run_result.errors,
            round(run_result.ops_per_sec / single, 2) if single else 0.0)
    drill = comparison.drill
    drill_table = Table(
        "Cluster serving — kill-one-node drill (SIGKILL, replicas keep "
        "serving)",
        ["keys", "served_from_cache", "replica_hits", "recomputed",
         "servable", "client_errors", "second_pass_found"])
    drill_table.add_row(drill.keys_total, drill.served_from_cache,
                        drill.replica_hits, drill.recomputed,
                        drill.servable, drill.client_errors,
                        drill.second_pass_found)
    rejoin = comparison.rejoin
    rejoin_table = Table(
        "Cluster serving — warm rejoin from snapshot (CAMP costs read "
        "back via gets)",
        ["recovered_items", "primary_probes", "found", "costs_intact",
         "warm"])
    rejoin_table.add_row(rejoin.recovered_items, rejoin.probes,
                         rejoin.found, rejoin.costs_intact,
                         int(rejoin.warm))
    return [throughput, drill_table, rejoin_table]
