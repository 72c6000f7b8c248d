"""Warm-restart benchmark: the durability claims, measured and enforced.

Three guards on ``repro.persistence``:

1. **Warm beats cold** — on both paper workload shapes, a CAMP store
   recovered from snapshot+log pays strictly less suffix miss cost than
   a cold restart (the acceptance bar for the subsystem);
2. **Warm equals uninterrupted** — the restored store is
   eviction-equivalent to a control that never restarted, so its suffix
   cost matches the lower bound exactly;
3. **Throughput floors** — snapshot save and recovery both clear a
   conservative items/second floor, so the durable path cannot silently
   rot into something too slow to run inside a serving process.
"""

from conftest import bench_scale

from repro.experiments import run_experiment, warm_restart

#: items/second floors for snapshot save and full recovery.  Measured
#: locally at >30k items/s for both paths on the default scale; the
#: floors sit far below that because tier-1 runs benchmarks/ on noisy
#: shared runners — they catch accidental O(n^2) regressions or a
#: suddenly-sync-everything fsync default, not honest slowdowns.
REQUIRED_ITEMS_PER_S = {"tiny": 1_000, "default": 2_000, "full": 4_000}


def test_warm_restart_beats_cold_and_matches_control(save_tables):
    scale = bench_scale()
    required_rate = REQUIRED_ITEMS_PER_S.get(
        scale, REQUIRED_ITEMS_PER_S["default"])
    tables = run_experiment("warm-restart", scale=scale)
    save_tables("warm_restart", tables)

    for trace in warm_restart.warm_restart_traces(scale):
        outcome = warm_restart.run_restart_comparison(trace, "camp")
        warm = outcome.cost("warm")
        cold = outcome.cost("cold")
        control = outcome.cost("uninterrupted")
        assert warm < cold, (
            f"{trace.name}: warm restart cost {warm} is not strictly "
            f"below cold restart cost {cold}")
        assert warm == control, (
            f"{trace.name}: warm restart cost {warm} diverges from the "
            f"uninterrupted control {control} — the restored CAMP is "
            f"no longer eviction-equivalent")

        save_rate = (outcome.items_at_restart / outcome.save_seconds
                     if outcome.save_seconds else float("inf"))
        recover_rate = (outcome.restored_items / outcome.recover_seconds
                        if outcome.recover_seconds else float("inf"))
        assert save_rate >= required_rate, (
            f"{trace.name}: snapshot save at {save_rate:.0f} items/s "
            f"(floor {required_rate})")
        assert recover_rate >= required_rate, (
            f"{trace.name}: recovery at {recover_rate:.0f} items/s "
            f"(floor {required_rate})")
