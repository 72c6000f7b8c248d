"""Live cluster serving: kill-one-node drill and warm rejoin.

Two claims, both backed by real subprocesses — three
:mod:`repro.cluster.node` servers under a
:class:`~repro.cluster.ClusterSupervisor`, driven in process by a
:class:`~repro.cluster.client.ClusterClient`:

1. **Kill drill** — with ``replicas=2``, SIGKILL one node mid-serve:
   every key must remain *servable* (replica read, or recompute + set
   like any cache miss) with **zero client-visible errors**.
2. **Warm rejoin** — the killed node restarts from its snapshot and
   must come back warm: items recovered, and their CAMP costs read
   back (``gets``) exactly as written, i.e. priorities intact.

Both are deterministic, so ``benchmarks/test_cluster.py`` gates them on
any host and archives the tables to ``benchmarks/out/cluster_serving.txt``.
Cluster throughput is measured by the ``cluster_batch`` workload of
``bench/``, not here: three server processes and their drivers on a
2-core host cannot show scaling.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis import Table
from repro.cluster.client import ClusterClient
from repro.cluster.loadgen import cost_for, key_name, value_for
from repro.cluster.supervisor import ClusterSupervisor
from repro.errors import ConfigurationError
from repro.experiments.data import get_scale
from repro.twemcache.async_client import AsyncSocketClient

__all__ = ["ClusterScale", "cluster_scale", "DrillResult", "RejoinResult",
           "ClusterComparison", "run_cluster_comparison", "tables_for",
           "run"]

#: replica copies per key in the drill cluster
REPLICAS = 2


@dataclass(frozen=True, slots=True)
class ClusterScale:
    """Drill sizing for one scale."""

    keys: int
    value_size: int
    batch: int
    pool_size: int


_CONFIGS: Dict[str, ClusterScale] = {
    "tiny": ClusterScale(keys=300, value_size=64, batch=32, pool_size=2),
    "default": ClusterScale(keys=1_500, value_size=100, batch=64,
                            pool_size=2),
    "full": ClusterScale(keys=5_000, value_size=100, batch=64, pool_size=4),
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
    drill: DrillResult
    rejoin: RejoinResult


# ----------------------------------------------------------------------
# kill drill, then warm rejoin (one cluster, one story)
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


def run_cluster_comparison(scale: str = "default") -> ClusterComparison:
    """Run the kill drill, then verify the warm rejoin."""
    config = cluster_scale(scale)
    with ClusterSupervisor(["s0", "s1", "s2"],
                           memory_bytes=64 << 20) as supervisor:
        drill, rejoin = asyncio.run(_drill_and_rejoin(supervisor, config))
    return ClusterComparison(scale=scale, drill=drill, rejoin=rejoin)


# ----------------------------------------------------------------------
# the registry entry point
# ----------------------------------------------------------------------
def run(scale: str = "default") -> List[Table]:
    return tables_for(run_cluster_comparison(scale))


def tables_for(comparison: ClusterComparison) -> List[Table]:
    """Render one comparison as tables (shared with the benchmark, so
    the gates and the archive come from a single measurement)."""
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
    return [drill_table, rejoin_table]
