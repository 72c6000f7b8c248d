"""The experiment registry: every paper table/figure plus ablations.

>>> from repro.experiments import run_experiment
>>> for table in run_experiment("fig5c", scale="tiny"):
...     print(table.to_ascii())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.analysis import Table
from repro.errors import ConfigurationError
from repro.experiments import ablations, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import chaos as chaos_module
from repro.experiments import cluster_serving as cluster_serving_module
from repro.experiments import table1 as table1_module
from repro.experiments import tenancy as tenancy_module
from repro.experiments import tiered as tiered_module
from repro.experiments import warm_restart as warm_restart_module

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment",
           "list_experiments"]

Runner = Callable[[str], List[Table]]


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One runnable experiment mapped to a paper artifact."""

    experiment_id: str
    paper_ref: str
    description: str
    runner: Runner


def _spec(experiment_id: str, paper_ref: str, description: str,
          runner: Runner) -> ExperimentSpec:
    return ExperimentSpec(experiment_id, paper_ref, description, runner)


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec for spec in [
        _spec("table1", "Table 1",
              "Regular vs CAMP rounding at binary precision 4",
              table1_module.run),
        _spec("fig4", "Figure 4",
              "Visited heap nodes vs cache size ratio (GDS vs CAMP)",
              fig4.run),
        _spec("fig5a", "Figure 5a",
              "Cost-miss ratio vs precision (three cache sizes, ∞ ≡ GDS)",
              lambda scale: [fig5.run_5a(scale)]),
        _spec("fig5b", "Figure 5b",
              "Number of LRU queues vs precision",
              lambda scale: [fig5.run_5b(scale)]),
        _spec("fig5cd", "Figures 5c/5d",
              "Cost-miss ratio and miss rate vs cache size ratio",
              fig5.run_5cd),
        _spec("fig6ab", "Figures 6a/6b",
              "Phased-trace cost-miss ratio and miss rate sweeps",
              fig6.run_6ab),
        _spec("fig6c", "Figure 6c",
              "TF1 cache occupancy over time at cache ratio 0.25",
              lambda scale: [fig6.run_occupancy(scale, 0.25, "Figure 6c")]),
        _spec("fig6d", "Figure 6d",
              "TF1 cache occupancy over time at cache ratio 0.75",
              lambda scale: [fig6.run_occupancy(scale, 0.75, "Figure 6d")]),
        _spec("fig7", "Figure 7",
              "Variable sizes, constant cost: miss rate sweep",
              fig7.run),
        _spec("fig8ab", "Figures 8a/8b",
              "Equi-sized pairs, variable costs: sweeps",
              fig8.run_8ab),
        _spec("fig8c", "Figure 8c",
              "Queue count vs precision across trace shapes",
              lambda scale: [fig8.run_8c(scale)]),
        _spec("fig9", "Figures 9a/9b/9c",
              "Twemcache implementation: cost-miss ratio, run time, miss rate",
              fig9.run),
        _spec("ablation-heap", "design choice",
              "Heap arity (8 vs 2) under GDS and CAMP",
              ablations.run_heap_ablation),
        _spec("ablation-rounding", "design choice",
              "MSB-preserving rounding vs regular truncation",
              ablations.run_rounding_ablation),
        _spec("ablation-admission", "section 6",
              "Second-hit admission control on CAMP and LRU",
              ablations.run_admission_ablation),
        _spec("ablation-competitors", "section 5",
              "CAMP vs GD-Wheel vs GDSF",
              ablations.run_competitor_ablation),
        _spec("ablation-sharding", "section 4.1",
              "Hash-partitioned CAMP shards (striped locks, threaded "
              "timing)",
              ablations.run_sharding_ablation),
        _spec("tenancy", "section 1 ext.",
              "Multi-tenant arbitration: static vs shared vs arbitrated CAMP",
              tenancy_module.run),
        _spec("warm-restart", "section 6 ext.",
              "Durable state: warm vs cold restart miss cost + throughput",
              warm_restart_module.run),
        _spec("tiered", "section 6 ext.",
              "Disk victim tier: miss cost, write efficiency, crash "
              "recovery",
              tiered_module.run),
        _spec("cluster-serving", "section 6 ext.",
              "Live cluster tier: kill-one-node drill, warm rejoin",
              cluster_serving_module.run),
        _spec("cluster-chaos", "section 6 ext.",
              "Seeded chaos drill: kill + stall under load; hinted "
              "handoff, anti-entropy, deadline-bounded latency",
              chaos_module.run),
    ]
}


def run_experiment(experiment_id: str, scale: str = "default") -> List[Table]:
    """Run one experiment; returns its tables."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}") from None
    return spec.runner(scale)


def list_experiments() -> List[ExperimentSpec]:
    return [EXPERIMENTS[key] for key in sorted(EXPERIMENTS)]
