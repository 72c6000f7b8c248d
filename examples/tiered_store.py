"""A DRAM-over-disk tiered store: demote, promote, crash, recover.

A small CAMP store is backed by a disk victim tier: capacity evictions
that pass a cost-density filter are written to append-only segment
files, and a DRAM miss probes the tier before recomputing — an L2 hit
promotes the pair back to DRAM at a tenth of its recompute cost
(``Outcome.HIT_L2``).  Then the process "dies" without a shutdown, and a
fresh tier rebuilds its index from the CRC-framed segments and keeps
serving.  The tier's directory is temporary and removed on exit.

Run with:  PYTHONPATH=src python examples/tiered_store.py
"""

import tempfile

from repro.cache import StoreConfig
from repro.cache.outcomes import Outcome
from repro.tiering import DiskTier
from repro.workloads import three_cost_trace


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="camp-tier-") as tier_path:
        run(tier_path)


def run(tier_path: str) -> None:
    trace = three_cost_trace(n_keys=400, n_requests=20_000, seed=7)
    dram = trace.capacity_for_ratio(0.1)      # DRAM holds 10% of the set
    disk = trace.capacity_for_ratio(0.5)      # the tier holds 50%

    store = (StoreConfig(dram)
             .policy("camp", precision=5)
             .tiered(tier_path, disk,
                     demote_min_cost_per_byte=0.01,   # skip cheap bulk
                     l2_hit_cost_factor=0.1)          # disk = 10% cost
             .build())
    backend = store.kvs      # the TieredBackend: .kvs is DRAM, .tier disk

    recompute_cost = disk_cost = 0.0
    outcome_counts = {}
    for record in trace.records:
        result = store.access(record.key, record.size, record.cost)
        outcome_counts[result.outcome.name] = (
            outcome_counts.get(result.outcome.name, 0) + 1)
        if result.outcome is Outcome.MISS_INSERTED:
            recompute_cost += record.cost
        elif result.outcome in (Outcome.HIT_L2, Outcome.MISS_PROMOTED):
            disk_cost += 0.1 * record.cost

    print(f"DRAM {dram} bytes over a {disk}-byte tier in {tier_path}")
    for name in sorted(outcome_counts):
        print(f"  {name:>16}: {outcome_counts[name]:6d}")
    stats = backend.stats()
    print(f"demotions: {backend.demotions}  (filtered away: "
          f"{backend.filtered_drops})")
    print(f"tier: {stats['tier_items']} items in "
          f"{stats['tier_segments']} segments, "
          f"{stats['tier_bytes_written']} bytes written")
    print(f"total miss cost: {recompute_cost + disk_cost:.0f} "
          f"(recompute {recompute_cost:.0f} + disk {disk_cost:.0f})")

    # -- the crash: no close(), no flush beyond the per-append one ----
    survivors = list(backend.tier.keys())[:5]

    recovered = DiskTier(tier_path, disk, recover=True)
    print(f"after the crash: {len(recovered)} records back in the index "
          f"({recovered.recovered_records} value records adopted, "
          f"superseded ones included; "
          f"{recovered.torn_segments} torn segment(s) repaired)")
    for key in survivors:
        record = recovered.get(key)
        assert record is not None, key
    print(f"probed {len(survivors)} recovered keys: all served")
    recovered.close()


if __name__ == "__main__":
    main()
