#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py bench/out/A bench/out/B

``A`` and ``B`` are directories of the result files ``bench/run.py``
writes (``--out DIR``); ``A`` is the base.  One row per (workload,
end-to-end metric): both medians with their quartiles, the ratio B ÷ A,
the bound ``BENCHMARK.json`` fixes for the metric, and a verdict —

* ``worse``  B's median is worse than A's by more than the bound,
* ``better`` B's median is better than A's by more than the bound,
* ``same``   neither,
* ``unresolved`` the quartiles of either side lie further apart than
  the bound, so a difference of that size cannot be told from noise.

``cost_miss_ratio`` is held tighter when both sides ran the same seeds,
as two commits under comparison do: the inputs are then identical, so it
is compared seed by seed and must repeat bit for bit on the in-process
workloads and within 2 % on the served ones (where timing decides which
of two callers' requests lands first).  Any rise beyond that is
``worse``, however small against the bound.

Exit status is 1 when any row is ``worse`` or the share of failed
operations rose in any workload, otherwise 0.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from campbench.common import quartiles  # noqa: E402

#: how far ``cost_miss_ratio`` may move between two runs of one seed
SAME_SEED_BOUND = {"policy_replay": 0.0, "tiered_replay": 0.0,
                   "warm_restart": 0.0, "served_getset": 0.02,
                   "cluster_batch": 0.02}


def load(directory: str) -> Dict[str, List[dict]]:
    """End-to-end result lines of every run in ``directory``, by
    workload, each with the seed it ran.  A run that said it was not a
    measurement (the host stalled under it) is left out."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(pathlib.Path(directory).glob("*-trace0-*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document["invalid"]:
            print(f"compare: left out {path.name}: "
                  f"{'; '.join(document['invalid'])}", file=sys.stderr)
            continue
        runs[document["workload"]].append(
            dict(document["result"], seed=document["provenance"]["seed"]))
    if not runs:
        raise SystemExit(f"compare: no end-to-end results in {directory}")
    return runs


def share(part: float, whole: float) -> float:
    """part ÷ whole; a toy-size run can have a median of 0."""
    if whole:
        return part / whole
    return 0.0 if not part else float("inf")


def verdict(base, other, better: str, bound: float) -> str:
    (a1, a2, a3), (b1, b2, b3) = base, other
    if share(a3 - a1, a2) > bound or share(b3 - b1, b2) > bound:
        return "unresolved"
    change = share(b2 - a2, a2)
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def decisions_verdict(base: List[dict], other: List[dict],
                      bound: float) -> str:
    """``cost_miss_ratio`` seed by seed, for two sides that ran the same
    seeds: the largest rise and the largest fall against ``bound``."""
    def by_seed(results):
        values = defaultdict(list)
        for r in results:
            values[r["seed"]].append(r["metrics"]["cost_miss_ratio"]["value"])
        return {seed: statistics.median(v) for seed, v in values.items()}
    a, b = by_seed(base), by_seed(other)
    if any(b[seed] - a[seed] > bound * a[seed] for seed in a):
        return "worse"
    if any(a[seed] - b[seed] > bound * a[seed] for seed in a):
        return "better"
    return "same"


def failed_share(results: List[dict]) -> float:
    return (sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_runs, other_runs = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':<14} {'metric':<16} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'B/A':>7} {'bound':>6}  verdict")
    for entry in spec["workloads"]:
        name = entry["name"]
        if name not in base_runs or name not in other_runs:
            continue
        base, other = base_runs[name], other_runs[name]
        same_seeds = ({r["seed"] for r in base} == {r["seed"] for r in other})
        for metric in spec["end_to_end"]:
            def side(results):
                return quartiles([r["metrics"][metric["name"]]["value"]
                               for r in results])
            a, b = side(base), side(other)
            bound = metric["bound"]
            if metric["name"] == "cost_miss_ratio" and same_seeds:
                bound = SAME_SEED_BOUND[name]
                word = decisions_verdict(base, other, bound)
            else:
                word = verdict(a, b, metric["better"], bound)
            bad = bad or word == "worse"
            print(f"{name:<14} {metric['name']:<16} "
                  f"{a[1]:>12.6g} [{a[0]:>9.5g}, {a[2]:>9.5g}] "
                  f"{b[1]:>12.6g} [{b[0]:>9.5g}, {b[2]:>9.5g}] "
                  f"{share(b[1], a[1]):>7.3f} {bound:>6.2f}  {word}")
        fa, fb = failed_share(base), failed_share(other)
        rose = fb > fa
        bad = bad or rose
        print(f"{name:<14} {'failed_share':<16} {fa:>36.3g} {fb:>36.3g} "
              f"{'':>7} {'0':>6}  {'worse' if rose else 'same'}"
              f"   (runs: A {len(base)}, B {len(other)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
