"""One cluster node process: ``python -m repro.cluster.node``.

The :class:`~repro.cluster.supervisor.ClusterSupervisor` spawns one of
these per cluster member.  Each process owns a CAMP
:class:`~repro.twemcache.engine.TwemcacheEngine` behind an
:class:`~repro.twemcache.async_server.AsyncTwemcacheServer` — N nodes
means N GILs actually serving in parallel, which is the whole point of
the multi-process tier (ROADMAP item 2).

Lifecycle contract with the supervisor:

* On startup, if the configured snapshot file exists the engine warm
  starts from it (``load`` rebuilds residency *and* CAMP priorities by
  replaying sets), so a bounced node rejoins warm.
* Once accepting, the process prints ``READY <host> <port> <recovered>``
  on stdout — the supervisor blocks on that line.
* SIGTERM/SIGINT drain gracefully: stop accepting, flush in-flight
  replies, snapshot to the configured path, exit 0.  (A SIGKILL'd node
  relies on the last ``save``-verb snapshot instead — that is the
  crash-rejoin path the drill exercises.)

``repro.cli serve`` starts this same process with friendlier flags.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.persistence.format import PersistenceError
from repro.twemcache.async_server import AsyncTwemcacheServer
from repro.twemcache.engine import TwemcacheEngine

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.node",
        description="one CAMP cluster node (spawned by ClusterSupervisor)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port (printed in READY)")
    parser.add_argument("--memory-bytes", type=int, default=32 << 20)
    parser.add_argument("--eviction", choices=("lru", "camp"),
                        default="camp")
    parser.add_argument("--camp-precision", type=int, default=5)
    parser.add_argument("--snapshot", default=None,
                        help="snapshot path: loaded on start if present, "
                             "written on graceful shutdown and by the "
                             "protocol's save verb")
    return parser


async def _amain(args: argparse.Namespace) -> int:
    engine = TwemcacheEngine(args.memory_bytes, eviction=args.eviction,
                             camp_precision=args.camp_precision,
                             snapshot_path=args.snapshot)
    recovered = 0
    if args.snapshot and os.path.exists(args.snapshot):
        recovered = engine.load()
    server = AsyncTwemcacheServer(engine, args.host, args.port)
    await server.serve()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    host, port = server.address
    print(f"READY {host} {port} {recovered}", flush=True)
    await stop.wait()
    await server.aclose()
    if args.snapshot:
        try:
            engine.save()
        except PersistenceError:     # pragma: no cover - disk went away
            return 1
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    sys.exit(main())
