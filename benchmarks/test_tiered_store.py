"""Tiered-store benchmark: the victim-tier claims, measured and enforced.

Three guards on ``repro.tiering``:

1. **The tier pays for itself** — on a skewed trace whose footprint
   dwarfs DRAM, a tiered store's total miss cost (recompute cost plus
   discounted disk-service cost) lands at least 20% below a memory-only
   store at the *same* DRAM budget;
2. **The demotion filter earns its keep** — the cost-density filter
   strictly beats demote-everything on tier bytes written per unit of
   miss cost saved, so disk write traffic buys cost savings instead of
   burying the tier in low-density items;
3. **Crash recovery works** — after the filtered store's process dies
   without a clean shutdown, a fresh ``DiskTier`` rebuilds a non-empty
   index from the segment files and every probed key actually serves.
"""

from conftest import bench_scale

from repro.experiments import run_experiment, tiered

#: the acceptance bar: the tiered store must cut total miss cost by
#: at least this fraction versus memory-only at equal DRAM budget
REQUIRED_SAVING = 0.20


def test_tiered_store_beats_memory_only_and_recovers(save_tables):
    scale = bench_scale()
    tables = run_experiment("tiered", scale=scale)
    save_tables("tiered_store", tables)

    outcome = tiered.run_tiered_comparison(tiered.tiered_trace(scale))
    base = outcome.run_for("memory-only").total_miss_cost
    filtered = outcome.run_for("tiered-filtered")
    everything = outcome.run_for("tiered-all")

    saving = outcome.saving_vs_memory_only
    assert saving >= REQUIRED_SAVING, (
        f"tiered-filtered saves only {saving:.1%} of total miss cost vs "
        f"memory-only ({filtered.total_miss_cost:.0f} vs {base:.0f}); "
        f"the bar is {REQUIRED_SAVING:.0%}")

    # the tier must actually be in play, not a fluke of the baseline
    assert filtered.l2_hits + filtered.promoted_misses > 0, (
        "the filtered tier never served a request")
    assert filtered.demotions > 0, "no victims were ever demoted"
    assert filtered.filtered_drops > 0, (
        "the cost-density filter never rejected a victim — the "
        "tiered-all comparison is vacuous")

    filtered_efficiency = filtered.bytes_per_saved_cost(base)
    everything_efficiency = everything.bytes_per_saved_cost(base)
    assert filtered_efficiency < everything_efficiency, (
        f"demotion filter writes {filtered_efficiency:.2f} tier bytes "
        f"per saved cost unit, demote-everything {everything_efficiency:.2f}"
        f" — the filter must be strictly more write-efficient")

    assert outcome.recovered_records > 0, (
        "crash recovery rebuilt an empty index")
    assert outcome.recovery_probes > 0
    assert outcome.recovery_served == outcome.recovery_probes, (
        f"recovered tier served {outcome.recovery_served} of "
        f"{outcome.recovery_probes} probed keys")
