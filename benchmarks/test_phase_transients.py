"""Companion to Figure 6 — windowed cost-miss transients at phase switches.

The occupancy plots (6c/6d) show *what* lingers in memory; this bench
shows what the applications *feel*: the windowed cost-miss ratio spikes at
every phase boundary (a brand-new key population) and recovers as the
policy adapts.  CAMP's recovery must leave it below LRU within each phase
— adaptation without giving up the cost advantage (the section 3.1 claim).
"""

from conftest import run_once

from repro.analysis import Table
from repro.cache import KVS, Outcome, WindowedMetrics
from repro.core import CampPolicy, LruPolicy
from repro.experiments.data import evolving_trace, get_scale
from repro.experiments.fig6 import phase_unique_bytes


def run_transients(scale):
    config = get_scale(scale)
    trace = evolving_trace(scale)
    capacity = max(1, int(phase_unique_bytes(scale) * 0.5))
    window = max(200, config.phase_requests // 10)
    series = {}
    for name, policy in (("camp", CampPolicy(precision=5)),
                         ("lru", LruPolicy())):
        kvs = KVS(capacity, policy)
        metrics = WindowedMetrics(window=window)
        for record in trace:
            hit = kvs.lookup(record.key) is Outcome.HIT
            metrics.record(record.key, record.cost, hit)
            if not hit:
                kvs.insert(record.key, record.size, record.cost)
        metrics.finish()
        series[name] = metrics.cost_miss_series()
    table = Table(
        "Figure-6 companion — windowed cost-miss ratio across phase "
        "switches (cache = 0.5 of one phase)",
        ["window_end", "camp", "lru"])
    for (end, camp_value), (_, lru_value) in zip(series["camp"],
                                                 series["lru"]):
        table.add_row(end, camp_value, lru_value)
    return [table], config


def test_phase_transients(benchmark, scale, save_tables):
    tables_and_config = run_once(benchmark, lambda: run_transients(scale))
    tables, config = tables_and_config
    save_tables("phase_transients", tables)
    table = tables[0]
    camp = table.column("camp")
    lru = table.column("lru")
    ends = table.column("window_end")
    # steady-state windows (second half of each phase): CAMP below LRU
    phase_len = config.phase_requests
    steady_wins = steady_total = 0
    for end, camp_value, lru_value in zip(ends, camp, lru):
        position_in_phase = end % phase_len
        if position_in_phase == 0 or position_in_phase > phase_len // 2:
            steady_total += 1
            steady_wins += camp_value <= lru_value + 1e-9
    assert steady_total > 0
    assert steady_wins / steady_total >= 0.8, \
        f"CAMP won only {steady_wins}/{steady_total} steady windows"
