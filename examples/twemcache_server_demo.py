#!/usr/bin/env python3
"""Section 4 end to end: a CAMP-evicting memcached-style server over TCP.

Starts the slab-allocated engine behind a real socket server, connects a
client, exercises the IQ framework (iqget miss → compute → iqset with the
measured cost) and finally replays a trace to compare CAMP and LRU
server-side — the paper's Figure 9 setup in miniature.

Run:  python examples/twemcache_server_demo.py
"""

import time

from repro.twemcache import (
    AsyncTwemcacheServer,
    InProcessClient,
    IqSession,
    SocketClient,
    TwemcacheEngine,
    replay_trace,
)
from repro.workloads import three_cost_trace


def expensive_computation(key: str) -> bytes:
    """Stands in for the RDBMS query / ML job that produces a value."""
    time.sleep(0.05)
    return f"value-of-{key}".encode()


def main() -> None:
    engine = TwemcacheEngine(8 << 20, eviction="camp", slab_size=1 << 18)
    with AsyncTwemcacheServer(engine) as server:
        host, port = server.address
        print(f"server listening on {host}:{port} (CAMP eviction)\n")

        with SocketClient(server.address) as client:
            # --- the IQ framework measures recomputation cost live -----
            session = IqSession(client)
            value = session.iqget("report:42")
            assert value is None, "first access must miss"
            value = expensive_computation("report:42")
            session.iqset("report:42", value)   # cost = miss-to-set time
            print("iqget/iqset stored the pair with its measured cost:")
            print(f"  value={client.get('report:42').value!r}")
            stats = client.stats()
            print(f"  server stats: items={stats['items']} "
                  f"hits={stats['hits']} misses={stats['misses']}\n")

    # --- Figure 9 in miniature: replay one trace against both engines ---
    trace = three_cost_trace(n_keys=1_500, n_requests=25_000,
                             size_values=(200, 900, 3000), seed=5)
    print(f"replaying {len(trace)} requests in-process "
          f"(engine memory = 2 MiB):")
    print(f"{'eviction':<8} {'miss rate':>10} {'cost-miss':>10} "
          f"{'run seconds':>12}")
    for eviction in ("lru", "camp"):
        engine = TwemcacheEngine(2 << 20, eviction=eviction,
                                 slab_size=1 << 16)
        result = replay_trace(InProcessClient(engine), trace)
        print(f"{eviction:<8} {result.miss_rate:>10.4f} "
              f"{result.cost_miss_ratio:>10.4f} "
              f"{result.run_seconds:>12.3f}")
    print("\nCAMP pays a comparable run time to LRU but a far lower "
          "cost-miss ratio (Figures 9a/9b).")


if __name__ == "__main__":
    main()
