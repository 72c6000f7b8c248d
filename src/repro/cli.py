"""Command-line interface: ``repro-camp`` (or ``python -m repro.cli``).

Subcommands:

* ``list``        — show every runnable experiment with its paper reference
* ``policies``    — show every registered eviction policy with its kwargs
* ``run``         — run experiments by id (``all`` for everything) at a
  chosen scale, printing each table (optionally CSV)
* ``gen-trace``   — write a synthetic trace file (three-cost / var-size /
  equi-size / bg / phased)
* ``simulate``    — run one policy over a trace file at a cache size ratio
* ``serve``       — start one CAMP server node on a TCP port (the
  ``python -m repro.cluster.node`` process under friendlier flags)
* ``persist``     — durable state directories: ``save`` (simulate a trace
  into a durable store and snapshot it), ``restore`` (recover + report),
  ``inspect`` (generations, log health), ``compact`` (fold the log into
  a fresh snapshot generation)
* ``bench``       — run a named benchmark (``hotpath`` or an experiment
  id), optionally under cProfile (``--profile [out.prof]``)
* ``cluster``     — the live multi-process tier: ``serve`` (spawn and
  supervise N CAMP server processes), ``bench`` (the
  cluster-serving kill/rejoin tables), ``kill-node`` (SIGKILL
  one member of a running cluster by manifest — failover drill)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.core import make_policy, policy_names
from repro.errors import ReproError
from repro.sim import run_policy_on_trace
from repro.workloads import (
    BgConfig,
    BgWorkload,
    equal_size_variable_cost_trace,
    phased_trace,
    read_trace,
    three_cost_trace,
    variable_size_constant_cost_trace,
    write_trace,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-camp",
        description="CAMP (Middleware 2014) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro-camp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    sub.add_parser(
        "policies",
        help="list registered eviction policies and their kwargs")

    run_cmd = sub.add_parser("run", help="run experiments")
    run_cmd.add_argument("experiments", nargs="+",
                         help="experiment ids (see 'list'), or 'all'")
    run_cmd.add_argument("--scale", default="default",
                         choices=("tiny", "default", "full"))
    run_cmd.add_argument("--csv", action="store_true",
                         help="emit CSV instead of aligned tables")
    run_cmd.add_argument("--chart", action="store_true",
                         help="also draw each table as an ASCII chart")

    gen_cmd = sub.add_parser("gen-trace", help="generate a trace file")
    gen_cmd.add_argument("kind", choices=("three-cost", "var-size",
                                          "equi-size", "bg", "phased"))
    gen_cmd.add_argument("output", help="output path (.csv or .csv.gz)")
    gen_cmd.add_argument("--keys", type=int, default=5000)
    gen_cmd.add_argument("--requests", type=int, default=100_000)
    gen_cmd.add_argument("--phases", type=int, default=10)
    gen_cmd.add_argument("--seed", type=int, default=42)

    sim_cmd = sub.add_parser("simulate", help="simulate a policy on a trace")
    sim_cmd.add_argument("trace", help="trace file path")
    sim_cmd.add_argument("--policy", default="camp",
                         choices=sorted(policy_names()))
    sim_cmd.add_argument("--ratio", type=float, default=0.25,
                         help="cache size ratio (default 0.25)")
    sim_cmd.add_argument("--precision", type=int, default=None,
                         help="CAMP precision (omit for the default of 5)")

    serve_cmd = sub.add_parser("serve", help="start the twemcache server")
    serve_cmd.add_argument("--port", type=int, default=11211)
    serve_cmd.add_argument("--memory-mb", type=int, default=64)
    serve_cmd.add_argument("--eviction", default="camp",
                           choices=("lru", "camp"))
    serve_cmd.add_argument("--snapshot", default=None,
                           help="loaded on start if present, written on "
                                "SIGTERM/SIGINT and by the save verb")

    analyze_cmd = sub.add_parser(
        "analyze", help="profile a trace (skew, sizes, costs, working set)")
    analyze_cmd.add_argument("trace", help="trace file path")
    analyze_cmd.add_argument("--working-set", action="store_true",
                             help="also print the working-set growth curve")

    tenancy_cmd = sub.add_parser(
        "tenancy",
        help="multi-tenant arbitration: mixed workload, per-tenant tables")
    tenancy_cmd.add_argument("--scale", default="default",
                             choices=("tiny", "default", "full"))
    tenancy_cmd.add_argument("--csv", action="store_true",
                             help="emit CSV instead of aligned tables")
    tenancy_cmd.add_argument("--chart", action="store_true",
                             help="also draw the allocation timeline")

    persist_cmd = sub.add_parser(
        "persist",
        help="durable state directories: save / restore / inspect / compact")
    persist_sub = persist_cmd.add_subparsers(dest="persist_command",
                                             required=True)
    p_save = persist_sub.add_parser(
        "save", help="simulate a trace into a durable store, then snapshot")
    p_save.add_argument("trace", help="trace file path")
    p_save.add_argument("state_dir", help="state directory to write")
    p_save.add_argument("--policy", default="camp",
                        choices=sorted(policy_names()))
    p_save.add_argument("--ratio", type=float, default=0.25,
                        help="cache size ratio (default 0.25)")
    p_save.add_argument("--fsync", default="never",
                        choices=("always", "batch", "never"),
                        help="operation-log fsync policy")
    p_save.add_argument("--cold", action="store_true",
                        help="ignore existing state (default warm-continues)")
    p_restore = persist_sub.add_parser(
        "restore", help="recover a store from a state directory")
    p_restore.add_argument("state_dir", help="state directory to read")
    p_inspect = persist_sub.add_parser(
        "inspect", help="describe a state directory's generations and log")
    p_inspect.add_argument("state_dir", help="state directory to read")
    p_compact = persist_sub.add_parser(
        "compact", help="fold the operation log into a fresh snapshot")
    p_compact.add_argument("state_dir", help="state directory to rewrite")

    bench_cmd = sub.add_parser(
        "bench",
        help="run a named benchmark (hotpath, or any experiment id), "
             "optionally under cProfile")
    bench_cmd.add_argument("name",
                           help="'hotpath' (simulate() micro-benchmark) "
                                "or an experiment id from 'list'")
    bench_cmd.add_argument("--scale", default="default",
                           choices=("tiny", "default", "full"))
    bench_cmd.add_argument("--profile", nargs="?", const="-",
                           metavar="OUT.prof", default=None,
                           help="run under cProfile; print the hottest "
                                "functions, and dump pstats data to "
                                "OUT.prof when a path is given")
    bench_cmd.add_argument("--top", type=int, default=25,
                           help="profile rows to print (default 25)")

    cluster_cmd = sub.add_parser(
        "cluster",
        help="live multi-process CAMP tier: serve / bench / kill-node")
    cluster_sub = cluster_cmd.add_subparsers(dest="cluster_command",
                                             required=True)
    c_serve = cluster_sub.add_parser(
        "serve", help="spawn and supervise N CAMP server processes")
    c_serve.add_argument("--nodes", type=int, default=3,
                         help="server processes to spawn (default 3)")
    c_serve.add_argument("--memory-mb", type=int, default=64,
                         help="per-node memory budget in MiB")
    c_serve.add_argument("--eviction", default="camp",
                         choices=("lru", "camp"))
    c_serve.add_argument("--host", default="127.0.0.1")
    c_serve.add_argument("--state-dir", default=None,
                         help="snapshot/manifest directory (default: a "
                              "temp dir, removed on exit); pass one to "
                              "keep warm-rejoin state and to let "
                              "kill-node find the fleet")
    c_bench = cluster_sub.add_parser(
        "bench",
        help="run the cluster-serving drills (kill one node, warm "
             "rejoin)")
    c_bench.add_argument("--scale", default="default",
                         choices=("tiny", "default", "full"))
    c_bench.add_argument("--csv", action="store_true",
                         help="emit CSV instead of aligned tables")
    c_kill = cluster_sub.add_parser(
        "kill-node",
        help="SIGKILL one member of a running cluster (failover drill)")
    c_kill.add_argument("state_dir",
                        help="the cluster's --state-dir (holds "
                             "cluster.json)")
    c_kill.add_argument("name", help="node name from the manifest")
    c_repair = cluster_sub.add_parser(
        "repair",
        help="one anti-entropy sweep over a running cluster: diff "
             "replica digests, re-replicate divergent pairs")
    c_repair.add_argument("state_dir",
                          help="the cluster's --state-dir (holds "
                               "cluster.json)")
    c_repair.add_argument("--replicas", type=int, default=2,
                          help="copies per key the ring places "
                               "(default 2; must match the serving "
                               "clients)")
    c_repair.add_argument("--prefix", default="",
                          help="only sweep keys with this prefix")
    c_chaos = cluster_sub.add_parser(
        "chaos",
        help="run the cluster-chaos drill (seeded kill/stall schedule, "
             "healing gates)")
    c_chaos.add_argument("--scale", default="default",
                         choices=("tiny", "default", "full"))
    c_chaos.add_argument("--csv", action="store_true",
                         help="emit CSV instead of aligned tables")

    compare_cmd = sub.add_parser(
        "compare", help="run several policies over one trace, side by side")
    compare_cmd.add_argument("trace", help="trace file path")
    compare_cmd.add_argument("--policies", nargs="+",
                             default=["camp", "lru", "gds"],
                             choices=sorted(policy_names()))
    compare_cmd.add_argument("--ratios", nargs="+", type=float,
                             default=[0.05, 0.1, 0.25, 0.5])
    compare_cmd.add_argument("--chart", action="store_true")
    return parser


def _cmd_list() -> int:
    from repro.experiments import list_experiments
    for spec in list_experiments():
        print(f"{spec.experiment_id:22s} {spec.paper_ref:15s} "
              f"{spec.description}")
    return 0


def _cmd_policies() -> int:
    """Print each registry name with the kwargs its factory accepts.

    Kwargs are read off the concrete policy class's ``__init__`` (the
    registry factories forward ``**kwargs`` to it), so the listing cannot
    drift from the code.
    """
    import inspect
    probe_capacity = 1 << 16
    for name in policy_names():
        policy = make_policy(name, probe_capacity)
        cls = type(policy)
        params = []
        for param in list(inspect.signature(cls.__init__).parameters
                          .values())[1:]:
            if param.kind in (inspect.Parameter.VAR_POSITIONAL,
                              inspect.Parameter.VAR_KEYWORD):
                continue
            if param.default is inspect.Parameter.empty:
                params.append(param.name)
            else:
                params.append(f"{param.name}={param.default!r}")
        doc = (inspect.getdoc(cls) or "").strip().split("\n")[0]
        print(f"{name:14s} {cls.__name__}({', '.join(params)})")
        if doc:
            print(f"{'':14s}   {doc}")
    return 0


def _cmd_run(experiment_ids: List[str], scale: str, csv: bool,
             chart: bool) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment
    if experiment_ids == ["all"]:
        experiment_ids = sorted(EXPERIMENTS)
    for experiment_id in experiment_ids:
        for table in run_experiment(experiment_id, scale=scale):
            if csv:
                print(f"# {table.title}")
                print(table.to_csv())
            else:
                print(table.to_ascii())
            if chart:
                _chart_table(table)
    return 0


def _chart_table(table) -> None:
    """Best-effort chart: numeric first column = x, other numeric columns
    become series; non-numeric tables are skipped silently."""
    from repro.analysis import ascii_chart
    xs = table.column(table.columns[0])
    if not all(isinstance(x, (int, float)) for x in xs):
        return
    series = {}
    for name in table.columns[1:]:
        values = table.column(name)
        if all(isinstance(v, (int, float)) for v in values):
            series[name] = list(zip(xs, values))
    if series:
        print(ascii_chart(series, title=f"[chart] {table.title}",
                          x_label=table.columns[0]))


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    if args.kind == "three-cost":
        trace = three_cost_trace(n_keys=args.keys, n_requests=args.requests,
                                 seed=args.seed)
    elif args.kind == "var-size":
        trace = variable_size_constant_cost_trace(
            n_keys=args.keys, n_requests=args.requests, seed=args.seed)
    elif args.kind == "equi-size":
        trace = equal_size_variable_cost_trace(
            n_keys=args.keys, n_requests=args.requests, seed=args.seed)
    elif args.kind == "bg":
        trace = BgWorkload(BgConfig(members=args.keys,
                                    requests=args.requests,
                                    seed=args.seed)).generate()
    else:
        trace = phased_trace(phases=args.phases, n_keys=args.keys,
                             requests_per_phase=args.requests // args.phases,
                             seed=args.seed)
    rows = write_trace(trace, args.output)
    print(f"wrote {rows} requests ({trace.unique_keys} unique keys, "
          f"{trace.unique_bytes} unique bytes) to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    capacity = trace.capacity_for_ratio(args.ratio)
    kwargs = {}
    if args.policy == "camp" and args.precision is not None:
        kwargs["precision"] = args.precision
    policy = make_policy(args.policy, capacity, **kwargs)
    result = run_policy_on_trace(policy, trace, args.ratio)
    print(f"policy            : {args.policy}")
    print(f"cache size ratio  : {args.ratio} ({capacity} bytes)")
    print(f"requests          : {result.metrics.requests} "
          f"({result.metrics.cold_requests} cold)")
    print(f"miss rate         : {result.miss_rate:.4f}")
    print(f"cost-miss ratio   : {result.cost_miss_ratio:.4f}")
    print(f"evictions         : {result.evictions}")
    print(f"wall seconds      : {result.wall_seconds:.3f}")
    for name, count in sorted(result.outcomes.items()):
        print(f"  outcome {name:18s}: {count}")
    for name, value in sorted(result.policy_stats.items()):
        print(f"  stat {name:20s}: {value}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.cluster import node
    argv = ["--port", str(args.port),
            "--memory-bytes", str(args.memory_mb << 20),
            "--eviction", args.eviction]
    if args.snapshot:
        argv += ["--snapshot", args.snapshot]
    return node.main(argv)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.workloads import profile_trace, working_set_curve
    trace = read_trace(args.trace)
    profile = profile_trace(trace)
    for line in profile.lines():
        print(line)
    if args.working_set:
        print("\nworking set growth (requests -> distinct bytes):")
        for requests, distinct_bytes in working_set_curve(trace):
            print(f"  {requests:>10}  {distinct_bytes}")
    return 0


def _cmd_tenancy(args: argparse.Namespace) -> int:
    from repro.experiments import tenancy
    for table in tenancy.run(args.scale):
        if args.csv:
            print(f"# {table.title}")
            print(table.to_csv())
        else:
            print(table.to_ascii())
        if args.chart:
            _chart_table(table)
    return 0


def _cmd_persist(args: argparse.Namespace) -> int:
    if args.persist_command == "save":
        return _persist_save(args)
    if args.persist_command == "restore":
        return _persist_restore(args)
    if args.persist_command == "inspect":
        return _persist_inspect(args)
    return _persist_compact(args)


def _persist_save(args: argparse.Namespace) -> int:
    from repro.cache.store import StoreConfig
    trace = read_trace(args.trace)
    capacity = trace.capacity_for_ratio(args.ratio)
    store = (StoreConfig(capacity)
             .policy(args.policy)
             .persistence(args.state_dir, fsync=args.fsync,
                          recover=not args.cold)
             .build())
    recovery = store.last_recovery
    if recovery is not None and recovery.recovered:
        print(f"warm-continuing from generation {recovery.generation} "
              f"({recovery.items_restored} items)")
    for record in trace:
        store.access(record.key, record.size, record.cost)
    generation = store.save()
    store.persistence.close()
    stats = store.stats()
    print(f"simulated {len(trace)} requests "
          f"({args.policy}, ratio {args.ratio}, {capacity} bytes)")
    print(f"snapshot generation {generation} in {args.state_dir} "
          f"({int(stats['items'])} items, {int(stats['used_bytes'])} bytes "
          f"resident)")
    return 0


def _persist_restore(args: argparse.Namespace) -> int:
    from repro.persistence import RecoveryManager
    kvs, report = RecoveryManager(args.state_dir).recover()
    print(f"recovered generation {report.generation} "
          f"from {report.snapshot_path}")
    for name, value in sorted(report.summary().items()):
        print(f"  {name:22s}: {value}")
    print(f"policy            : {kvs.policy.name}")
    for name, value in sorted(kvs.stats().items()):
        print(f"  {name:22s}: {value}")
    return 0


def _persist_inspect(args: argparse.Namespace) -> int:
    from repro.persistence import (UnsupportedFormatError, load_snapshot,
                                   log_path_for, read_log,
                                   snapshot_generations)
    from repro.persistence.snapshot import Snapshotter

    def unreadable(exc: ReproError) -> str:
        return "UNSUPPORTED" if isinstance(exc, UnsupportedFormatError) \
            else "CORRUPT"

    generations = snapshot_generations(args.state_dir)
    if not generations:
        print(f"no snapshots in {args.state_dir}")
    snapshotter = Snapshotter(args.state_dir)
    for generation in generations:
        path = snapshotter.path_for(generation)
        size = path.stat().st_size
        try:
            data = load_snapshot(path)
        except ReproError as exc:
            print(f"generation {generation}: {unreadable(exc)} ({exc})")
            continue
        policy = data.policy_state.get("policy")
        print(f"generation {generation}: {data.item_count} items, "
              f"{size} bytes, policy {policy}, "
              f"capacity {data.capacity}, {len(data.payloads)} payloads")
    for generation in generations or [0]:
        log_path = log_path_for(args.state_dir, generation)
        if not log_path.exists():
            continue
        try:
            operations, clean, valid_bytes = read_log(log_path)
        except ReproError as exc:
            print(f"log for generation {generation}: {unreadable(exc)} "
                  f"({exc})")
            continue
        tail = "clean" if clean else f"TORN after {valid_bytes} bytes"
        print(f"log for generation {generation}: {len(operations)} "
              f"operations, {tail}")
    return 0


def _persist_compact(args: argparse.Namespace) -> int:
    from repro.persistence import (PersistenceConfig, PersistenceManager,
                                   RecoveryManager, read_log, log_path_for)
    recovery_manager = RecoveryManager(args.state_dir)
    kvs, report = recovery_manager.recover()
    folded = report.log_records_replayed
    manager = PersistenceManager(
        kvs, PersistenceConfig(directory=args.state_dir))
    generation = manager.snapshot()
    manager.close()
    remaining = len(read_log(log_path_for(args.state_dir, generation))[0])
    print(f"compacted {args.state_dir}: folded {folded} log operations "
          f"into generation {generation} ({report.items_restored + folded} "
          f"items considered); fresh log has {remaining} operations")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one named benchmark, optionally under cProfile.

    ``hotpath`` replays the primary figure trace through ``simulate()``
    for CAMP and LRU and prints ops/s — the fused
    ``Store.access_outcome`` path that the ``policy_replay`` workload of
    ``bench/`` measures; any other name is resolved as an experiment id
    and timed end to end.
    """
    import cProfile
    import pstats
    import time as time_module

    def run_target() -> None:
        if args.name == "hotpath":
            from repro.cache.kvs import KVS
            from repro.core import CampPolicy, LruPolicy
            from repro.experiments.data import primary_trace
            from repro.sim import simulate as run_simulate
            trace = primary_trace(args.scale)
            capacity = trace.capacity_for_ratio(0.25)
            for name, policy in (
                    ("camp", CampPolicy(precision=5, stats=False)),
                    ("lru", LruPolicy())):
                result = run_simulate(KVS(capacity, policy), trace)
                ops = len(trace) / max(result.wall_seconds, 1e-9)
                print(f"hotpath {name:5s}: {result.wall_seconds:.3f}s "
                      f"for {len(trace)} requests ({ops:,.0f} ops/s, "
                      f"miss rate {result.miss_rate:.4f})")
        else:
            from repro.experiments import run_experiment
            for table in run_experiment(args.name, scale=args.scale):
                print(table.to_ascii())

    if args.profile is None:
        started = time_module.perf_counter()
        run_target()
        print(f"bench {args.name}: "
              f"{time_module.perf_counter() - started:.3f}s total")
        return 0
    profiler = cProfile.Profile()
    profiler.enable()
    run_target()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    if args.profile != "-":
        stats.dump_stats(args.profile)
        print(f"profile data written to {args.profile} "
              f"(open with pstats or snakeviz)")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "serve":
        return _cluster_serve(args)
    if args.cluster_command == "bench":
        return _cluster_bench(args)
    if args.cluster_command == "repair":
        return _cluster_repair(args)
    if args.cluster_command == "chaos":
        return _cluster_chaos(args)
    return _cluster_kill_node(args)


def _cluster_serve(args: argparse.Namespace) -> int:
    import time
    from repro.cluster import ClusterSupervisor
    supervisor = ClusterSupervisor(
        [f"n{i}" for i in range(args.nodes)],
        memory_bytes=args.memory_mb << 20, eviction=args.eviction,
        host=args.host, state_dir=args.state_dir)
    supervisor.start()
    print(f"cluster of {args.nodes} {args.eviction} nodes "
          f"(manifest: {supervisor.state_dir / 'cluster.json'}); "
          f"Ctrl-C to stop")
    for name, (host, port) in sorted(supervisor.addresses().items()):
        warm = supervisor.recovered_items(name)
        suffix = f" ({warm} items recovered)" if warm else ""
        print(f"  {name}: {host}:{port}{suffix}")
    # restart dead members with per-node exponential backoff, and
    # quarantine a crash-looping one (corrupt snapshot dir, stolen
    # port) instead of respawning it in a tight loop — the rest of the
    # fleet keeps serving either way
    from repro.cluster import RestartBackoff
    from repro.errors import ClusterError
    backoff = RestartBackoff(base=1.0, cap=30.0, quarantine_after=5,
                             healthy_after=60.0)
    quarantined: set = set()
    try:
        while True:
            time.sleep(1)
            for name in supervisor.names:
                if name in quarantined or supervisor.is_running(name):
                    continue
                decision = backoff.decide(name)
                if decision == "wait":
                    continue
                if decision == "quarantine":
                    quarantined.add(name)
                    print(f"node {name} is crash-looping; quarantined "
                          f"(fleet keeps serving without it)")
                    continue
                print(f"node {name} died; restarting")
                try:
                    recovered = supervisor.restart(name)
                except ClusterError as exc:
                    print(f"  {name} failed to restart: {exc}")
                    continue
                print(f"  {name} back up "
                      f"({recovered} items recovered)")
    except KeyboardInterrupt:
        supervisor.stop()
        print("stopped")
    return 0


def _cluster_bench(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment
    for table in run_experiment("cluster-serving", scale=args.scale):
        if args.csv:
            print(f"# {table.title}")
            print(table.to_csv())
        else:
            print(table.to_ascii())
    return 0


def _cluster_repair(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import pathlib
    from repro.cluster import ClusterClient
    from repro.errors import ClusterError
    manifest_path = pathlib.Path(args.state_dir) / "cluster.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ClusterError(f"cannot read {manifest_path}: {exc}") from exc
    if not manifest:
        raise ClusterError(f"{manifest_path} lists no members")
    nodes = {name: (entry["host"], entry["port"])
             for name, entry in manifest.items()}

    async def sweep():
        async with ClusterClient(nodes,
                                 replicas=args.replicas) as client:
            return await client.anti_entropy(args.prefix)

    report = asyncio.run(sweep())
    print(f"anti-entropy over {len(nodes)} members "
          f"({report['nodes_scanned']} answered): "
          f"{report['keys_checked']} keys checked, "
          f"{report['divergent_pairs']} divergent pairs, "
          f"{report['repaired']} repaired")
    return 0 if report["nodes_scanned"] == len(nodes) else 1


def _cluster_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment
    for table in run_experiment("cluster-chaos", scale=args.scale):
        if args.csv:
            print(f"# {table.title}")
            print(table.to_csv())
        else:
            print(table.to_ascii())
    return 0


def _cluster_kill_node(args: argparse.Namespace) -> int:
    import json
    import os
    import pathlib
    import signal
    from repro.errors import ClusterError
    manifest_path = pathlib.Path(args.state_dir) / "cluster.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ClusterError(f"cannot read {manifest_path}: {exc}") from exc
    entry = manifest.get(args.name)
    if entry is None:
        raise ClusterError(
            f"no node {args.name!r} in {manifest_path} "
            f"(members: {sorted(manifest)})")
    pid = entry.get("pid")
    if not pid:
        raise ClusterError(f"node {args.name!r} has no recorded pid")
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        print(f"node {args.name} (pid {pid}) already gone")
        return 0
    print(f"killed node {args.name} (pid {pid}) at "
          f"{entry['host']}:{entry['port']}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import Table
    from repro.sim import sweep_cache_sizes
    trace = read_trace(args.trace)
    factories = {name: (lambda capacity, _n=name: make_policy(_n, capacity))
                 for name in args.policies}
    sweep = sweep_cache_sizes(trace, factories, cache_size_ratios=args.ratios)
    for metric in ("cost_miss_ratio", "miss_rate"):
        table = Table(f"{metric} on {args.trace}",
                      ["cache_size_ratio"] + list(args.policies))
        for ratio in args.ratios:
            table.add_row(ratio, *[getattr(sweep.lookup(name, ratio), metric)
                                   for name in args.policies])
        print(table.to_ascii())
        if args.chart:
            _chart_table(table)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "policies":
            return _cmd_policies()
        if args.command == "run":
            return _cmd_run(args.experiments, args.scale, args.csv,
                            args.chart)
        if args.command == "gen-trace":
            return _cmd_gen_trace(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "tenancy":
            return _cmd_tenancy(args)
        if args.command == "persist":
            return _cmd_persist(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "compare":
            return _cmd_compare(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - unreachable


if __name__ == "__main__":
    sys.exit(main())
