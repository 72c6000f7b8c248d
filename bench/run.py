#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload policy_replay --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that gives the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(quartiles, sample counts, provenance) is written under ``--out``
(default ``bench/out/``, untracked).  ``--workload`` also takes a
comma-separated list, or ``all`` for the five in turn, and prints one
such line each; ``--smoke`` shrinks every input so that all of them
finish in a few seconds, for the smoke test only.

Exit status is 0 when every output checked was correct and the run was
a measurement, 1 otherwise: a served run in which the host stalled — the
open loop's backlog grew, the generator ran late, the closed loop got
fewer than ten slices done — says ``correct: false`` and why on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: the program is brought up until this many times are done or this many
#: seconds are spent on it, and the median taken; the tape, which is the
#: generator's, is made once
BRING_UPS = 3
BRING_UP_BUDGET_S = 6.0


class Context:
    """What one run hands its workload: the seed, scratch space, the
    server processes it may start, and where the peak memory is noted."""

    def __init__(self, seed: int, smoke: bool, out_dir: pathlib.Path,
                 workdir, nodes) -> None:
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.workdir = workdir
        self.nodes = nodes
        self.rss_mb = None

    def trace_path(self, workload: str) -> str:
        return str(self.out_dir / f"trace-{workload}.json")

    def mark_rss(self) -> None:
        """Called by a workload at the end of its timed region, before
        the benchmark's own post-processing allocates anything."""
        from campbench.common import proc_peak_rss_mb, self_peak_rss_mb
        self.rss_mb = self_peak_rss_mb() + sum(
            proc_peak_rss_mb(node.pid) for node in self.nodes.live())


def _workloads():
    from campbench.cluster_batch import ClusterBatch
    from campbench.policy_replay import PolicyReplay
    from campbench.served_getset import ServedGetSet
    from campbench.tiered_replay import TieredReplay
    from campbench.warm_restart import WarmRestart
    return {cls.name: cls for cls in (PolicyReplay, ServedGetSet,
                                      ClusterBatch, TieredReplay,
                                      WarmRestart)}


def _provenance(args, seconds: float) -> dict:
    from campbench import served_getset
    from campbench.common import git_sha
    return {
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "generator_cpus": sorted(os.sched_getaffinity(0)),
        "node_cpus": list(args.node_cpus),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "platform": platform.platform(),
        "rate_ref_per_s": served_getset.RATE_REF,
        "rate_light_per_s": served_getset.RATE_LIGHT,
        "caveats": [
            "client and servers share one host; traffic crosses the "
            "loopback interface, not a link",
            "disk-tier and snapshot reads are served from the OS page "
            "cache; latencies are this sandbox's, not a device's",
        ],
    }


def run_one(cls, args, spec: dict, seconds: float) -> tuple:
    """Run one workload in one mode; returns (result line, result file
    contents)."""
    from campbench.common import Nodes, WorkDir
    out_dir = pathlib.Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = WorkDir(out_dir)
    nodes = Nodes(workdir, args.node_cpus)
    ctx = Context(args.seed, args.smoke, out_dir, workdir, nodes)
    workload = cls(ctx)
    phases = {}
    started = time.perf_counter()
    try:
        if args.trace:
            wanted = spec["per_layer"]
            outcome = workload.trace(seconds)
            metrics = {entry["name"]: 0.0 for entry in wanted}
            metrics.update(outcome["metrics"])
            phases["trace_s"] = time.perf_counter() - started
        else:
            wanted = spec["end_to_end"]
            workload.make_tape()
            phases["tape_s"] = time.perf_counter() - started
            bring_ups = []
            while (len(bring_ups) < (1 if args.smoke else BRING_UPS)
                   and sum(bring_ups) < BRING_UP_BUDGET_S):
                workload.teardown()
                nodes.stop_all()
                began = time.perf_counter()
                workload.bring_up()
                bring_ups.append(time.perf_counter() - began)
            phases["bring_up_s"] = bring_ups
            began = time.perf_counter()
            outcome = workload.measure(seconds)
            phases["measure_s"] = time.perf_counter() - began
            metrics = dict(outcome["metrics"])
            metrics["setup_s"] = (phases["tape_s"]
                                  + statistics.median(bring_ups))
            metrics["peak_rss_mb"] = ctx.rss_mb
    finally:
        try:
            workload.teardown()
        finally:
            nodes.stop_all()
            workdir.remove()
    phases["total_s"] = time.perf_counter() - started

    names = [entry["name"] for entry in wanted]
    if sorted(metrics) != sorted(names):
        raise SystemExit(
            f"{cls.name}: metrics {sorted(set(metrics) ^ set(names))} do "
            f"not match BENCHMARK.json")
    units = {entry["name"]: entry["unit"] for entry in wanted}
    finite = all(math.isfinite(value) for value in metrics.values())
    invalid = outcome.get("invalid", [])
    for reason in invalid:
        print(f"bench/run.py: {cls.name}: not a measurement: {reason}",
              file=sys.stderr)
    correct = (finite and outcome["failed"] == 0 and not invalid
               and outcome.get("same_decisions", True))
    line = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }
    document = {
        "workload": cls.name,
        "trace": int(args.trace),
        "result": line,
        "invalid": invalid,
        "detail": outcome.get("detail", {}),
        "phases_s": phases,
        "tape_digest": workload.tape.digest,
        "child_pids": nodes.pids,
        "provenance": _provenance(args, seconds),
    }
    path = out_dir / (f"{cls.name}-trace{int(args.trace)}-seed{args.seed}-"
                      f"{time.time_ns()}.json")
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return line, document


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: "
                             "run_seconds of BENCHMARK.json; 0.4 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds
    if seconds is None:
        seconds = 0.4 if args.smoke else float(spec["run_seconds"])

    from campbench.common import pin_generator
    args.node_cpus = pin_generator()
    workloads = _workloads()
    declared = [entry["name"] for entry in spec["workloads"]]
    if sorted(workloads) != sorted(declared):
        raise SystemExit("workloads differ from BENCHMARK.json")
    chosen = (declared if args.workload == "all"
              else args.workload.split(","))
    for name in chosen:
        if name not in workloads:
            parser.error(f"unknown workload {name!r}; one of {declared}")

    # every exit path — exception, Ctrl-C, SIGTERM — unwinds through
    # run_one's finally, which stops the nodes and removes the work dir
    signal.signal(signal.SIGTERM, _terminate)
    ok = True
    for name in chosen:
        line, _ = run_one(workloads[name], args, spec, seconds)
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


def _fix_hash_seed() -> None:
    """Restart once with string hashing fixed.  Every layer keeps its
    pairs in dicts keyed by strings; with the interpreter's per-process
    random hash seed an unlucky run is 10-15 % slower across the board,
    which is the host's dice and not the code's doing.  The nodes inherit
    the setting."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    _fix_hash_seed()
    sys.exit(main())
