#!/usr/bin/env python3
"""Section 6 future work: CAMP over a two-level (RAM + SSD) hierarchy.

A small fast L1 sits over a large L2 that models an SSD: L1 evictions are
*demoted* into L2 instead of discarded, an L2 hit *promotes* the pair back
and is charged only a fraction of the recomputation cost (reading a value
from flash is far cheaper than re-running the query that produced it).

The experiment compares the total charged cost of a flat RAM-only cache
against RAM+SSD with CAMP managing both levels.

Run:  python examples/hierarchical_cache.py
"""

from repro.cache import KVS, Outcome, TwoLevelCache
from repro.core import CampPolicy, LruPolicy
from repro.workloads import three_cost_trace


def run_flat(trace, ram_bytes, policy_factory):
    kvs = KVS(ram_bytes, policy_factory())
    charged = 0.0
    for record in trace:
        if kvs.access(record.key, record.size, record.cost) is not Outcome.HIT:
            charged += record.cost
    return charged


def run_hierarchy(trace, ram_bytes, ssd_bytes, policy_factory,
                  ssd_cost_factor=0.05):
    cache = TwoLevelCache(
        KVS(ram_bytes, policy_factory()),
        KVS(ssd_bytes, policy_factory()),
        l2_hit_cost_factor=ssd_cost_factor)
    charged = 0.0
    for record in trace:
        outcome = cache.lookup(record.key, record.size, record.cost)
        charged += outcome.charged_cost
    return charged, cache


def main() -> None:
    trace = three_cost_trace(n_keys=3_000, n_requests=50_000, seed=21)
    ram = trace.capacity_for_ratio(0.10)    # small RAM tier
    ssd = trace.capacity_for_ratio(0.60)    # big flash tier
    print(f"{len(trace)} requests; RAM = 10%, SSD = 60% of unique bytes\n")

    flat_lru = run_flat(trace, ram, LruPolicy)
    flat_camp = run_flat(trace, ram, lambda: CampPolicy(precision=5))
    hier_cost, cache = run_hierarchy(trace, ram, ssd,
                                     lambda: CampPolicy(precision=5))

    print(f"{'configuration':<28} {'total charged cost':>18}")
    print("-" * 48)
    print(f"{'flat RAM, LRU':<28} {flat_lru:>18.0f}")
    print(f"{'flat RAM, CAMP':<28} {flat_camp:>18.0f}")
    print(f"{'RAM+SSD, CAMP both levels':<28} {hier_cost:>18.0f}")
    print(f"\nhierarchy traffic: {cache.demotions} demotions, "
          f"{cache.promotions} promotions")
    print("Evicting from RAM into flash keeps expensive pairs one cheap "
          "read away — the paper's hierarchical-cache direction.")


if __name__ == "__main__":
    main()
