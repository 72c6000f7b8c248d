"""Live cluster tier: ClusterClient routing over real servers.

In-process :class:`AsyncTwemcacheServer` instances (threaded lifecycle)
stand in for the node fleet so these run in milliseconds; the
subprocess path (``repro.cluster.node`` + ``ClusterSupervisor``) gets
its own slower tests at the bottom.  Together they cover the
`CooperativeCluster` semantics reproduced over sockets: replica
writes, replica read on primary miss, read-repair toward the primary,
failover with backoff, bounded movement on membership change, and
warm rejoin.
"""

import asyncio

import pytest

from repro.cluster import ClusterClient, ClusterSupervisor
from repro.cluster.loadgen import cost_for, key_name, value_for
from repro.errors import ConfigurationError
from repro.twemcache import (
    AsyncSocketClient,
    AsyncTwemcacheServer,
    TwemcacheEngine,
)


def fresh_engine() -> TwemcacheEngine:
    return TwemcacheEngine(4 << 20, eviction="camp", slab_size=1 << 16)


def run(coro):
    return asyncio.run(coro)


class _Fleet:
    """Three threaded servers + address map, torn down reliably."""

    def __init__(self, names=("n0", "n1", "n2")):
        self.servers = {}
        for name in names:
            self.servers[name] = AsyncTwemcacheServer(fresh_engine()).start()
        self.addresses = {name: server.address
                          for name, server in self.servers.items()}

    def engine(self, name) -> TwemcacheEngine:
        return self.servers[name].engine

    def stop(self):
        for server in self.servers.values():
            server.stop()


@pytest.fixture()
def fleet():
    built = _Fleet()
    yield built
    built.stop()


def entries_for(count, size=40):
    return [(key_name(i), value_for(i, size), 0, 0, cost_for(i))
            for i in range(count)]


class TestRoutedOperations:
    def test_set_many_replicates_to_preference_list(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses, replicas=2) as client:
                stored = await client.set_many(entries_for(60))
                assert all(stored)
                for i in range(60):
                    holders = client.holders(key_name(i))
                    assert len(holders) == 2
                    for name in holders:
                        assert key_name(i) in fleet.engine(name)
                    for name in set(fleet.addresses) - set(holders):
                        assert key_name(i) not in fleet.engine(name)

        run(main())

    def test_get_many_round_trips_values_and_costs(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses, replicas=2) as client:
                await client.set_many(entries_for(60))
                found = await client.get_many(
                    [key_name(i) for i in range(60)])
                assert len(found) == 60
                for i in range(60):
                    assert found[key_name(i)].value == value_for(i, 40)
                    assert found[key_name(i)].cost == cost_for(i)
                assert client.counters["primary_hits"] == 60
                assert client.counters["misses"] == 0

        run(main())

    def test_single_key_surface_and_delete(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses, replicas=2) as client:
                assert await client.set("k", b"v", cost=3)
                got = await client.get("k")
                assert got is not None and got.value == b"v"
                assert await client.delete("k")
                assert await client.get("k") is None
                assert not await client.delete("k")

        run(main())

    def test_replica_read_repairs_primary(self, fleet):
        """`CooperativeCluster.get`'s "remote" outcome over sockets: a
        primary miss is served by the next holder and the pair is
        re-replicated toward the primary — with its real cost."""
        async def main():
            async with ClusterClient(fleet.addresses, replicas=2) as client:
                await client.set("pair", b"payload", cost=17)
                primary = client.holders("pair")[0]
                assert fleet.engine(primary).delete("pair")
                got = await client.get("pair")
                assert got is not None and got.value == b"payload"
                assert client.counters["replica_hits"] == 1
                assert client.counters["read_repairs"] == 1
                repaired = fleet.engine(primary).get("pair")
                assert repaired is not None
                assert repaired.cost == 17   # gets carried the cost over

        run(main())

    def test_requires_nodes_and_replicas(self):
        with pytest.raises(ConfigurationError):
            ClusterClient({})
        with pytest.raises(ConfigurationError):
            ClusterClient({"a": ("127.0.0.1", 1)}, replicas=0)


class TestFailover:
    def test_dead_node_degrades_to_replicas_without_errors(self, fleet):
        async def main():
            now = [0.0]
            client = ClusterClient(fleet.addresses, replicas=2, timeout=2,
                                   backoff_base=30.0, backoff_max=30.0,
                                   clock=lambda: now[0])
            try:
                keys = [key_name(i) for i in range(80)]
                assert all(await client.set_many(entries_for(80)))
                fleet.servers["n0"].stop()

                found = await client.get_many(keys)
                assert len(found) == 80          # replicas carried n0's keys
                assert client.counters["node_failures"] >= 1
                assert client.counters["replica_hits"] > 0
                assert "n0" in client.down_nodes()

                # inside the backoff window the dead node is not re-dialed:
                # the second sweep fails over silently, no new failures
                failures = client.counters["node_failures"]
                assert len(await client.get_many(keys)) == 80
                assert client.counters["node_failures"] == failures
                assert client.counters["failovers"] > 0

                # bounce the node (same port, empty engine), let the
                # backoff lapse: the probe revives it and read-repair
                # refills it on demand
                host, port = fleet.addresses["n0"]
                fleet.servers["n0"] = AsyncTwemcacheServer(
                    fresh_engine(), host, port).start()
                now[0] = 60.0
                assert len(await client.get_many(keys)) == 80
                assert client.down_nodes() == []
                n0_keys = [k for k in keys if client.holders(k)[0] == "n0"]
                repaired = [k for k in n0_keys
                            if k in fleet.engine("n0")]
                assert repaired, "read-repair never refilled the bounced node"
            finally:
                await client.close()

        run(main())

    def test_writes_survive_a_dead_holder(self, fleet):
        async def main():
            now = [0.0]
            client = ClusterClient(fleet.addresses, replicas=2, timeout=2,
                                   backoff_base=30.0, backoff_max=30.0,
                                   clock=lambda: now[0])
            try:
                fleet.servers["n1"].stop()
                stored = await client.set_many(entries_for(40))
                # every entry found at least one live holder (3-node ring,
                # 2 replicas: at most one holder was the dead node)
                assert all(stored)
                found = await client.get_many(
                    [key_name(i) for i in range(40)])
                assert len(found) == 40
            finally:
                await client.close()

        run(main())

    def test_all_holders_down_reports_false_not_raise(self):
        # ports with nothing listening: every dial fails
        import socket
        probes = [socket.socket() for _ in range(2)]
        addresses = {}
        for i, probe in enumerate(probes):
            probe.bind(("127.0.0.1", 0))
            addresses[f"d{i}"] = probe.getsockname()
        for probe in probes:
            probe.close()

        async def main():
            async with ClusterClient(addresses, replicas=2,
                                     timeout=1) as client:
                stored = await client.set_many(entries_for(4))
                assert stored == [False] * 4
                found = await client.get_many(
                    [key_name(i) for i in range(4)])
                assert found == {}
                assert client.counters["misses"] == 4

        run(main())


class TestMembership:
    def test_add_node_moves_bounded_keys_and_loses_none(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses, replicas=2) as client:
                keys = [key_name(i) for i in range(150)]
                await client.set_many(entries_for(150))
                before = {k: client.holders(k)[0] for k in keys}

                extra = AsyncTwemcacheServer(fresh_engine()).start()
                try:
                    client.add_node("n3", *extra.address)
                    n_nodes = 4
                    moved = [k for k in keys
                             if client.holders(k)[0] != before[k]]
                    assert len(moved) / len(keys) < 2 / n_nodes
                    assert moved, "a joined node should take some keys"
                    # nothing is lost: moved primaries fall through to
                    # their old holder (still on the preference list)
                    # and read-repair warms the new node
                    found = await client.get_many(keys)
                    assert len(found) == 150
                    assert any(k in extra.engine for k in moved)
                finally:
                    extra.stop()

        run(main())

    def test_remove_node_moves_bounded_keys(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses, replicas=2) as client:
                keys = [key_name(i) for i in range(150)]
                before = {k: client.holders(k)[0] for k in keys}
                await client.remove_node("n2")
                moved = [k for k in keys
                         if client.holders(k)[0] != before[k]]
                # only keys the removed node owned re-home
                assert all(before[k] == "n2" for k in moved)
                assert len(moved) / len(keys) < 2 / 3

        run(main())


class TestSupervisorSubprocesses:
    def test_stopped_killed_and_shut_down_nodes_close_their_pipes(
            self, tmp_path):
        supervisor = ClusterSupervisor(["a", "b"], memory_bytes=4 << 20,
                                       state_dir=str(tmp_path))

        def pipe(name):
            return supervisor._nodes[name].process.stdout

        with supervisor:
            stopped, killed = pipe("a"), pipe("b")
            supervisor.stop_node("a")
            supervisor.kill("b")
            assert stopped.closed and killed.closed
            supervisor.restart("a")
            restarted = pipe("a")
            assert not restarted.closed
        assert restarted.closed

    def test_graceful_bounce_rejoins_warm(self, tmp_path):
        supervisor = ClusterSupervisor(["solo"], memory_bytes=4 << 20,
                                       state_dir=str(tmp_path))
        with supervisor:
            address = supervisor.addresses()["solo"]
            assert supervisor.is_running("solo")
            assert (tmp_path / "cluster.json").exists()

            async def fill():
                async with AsyncSocketClient(address) as client:
                    for i in range(40):
                        assert await client.set(key_name(i), b"x" * 32,
                                                cost=cost_for(i))

            run(fill())
            supervisor.stop_node("solo")     # SIGTERM: drain + snapshot
            assert not supervisor.is_running("solo")
            assert (tmp_path / "solo.snapshot").exists()

            recovered = supervisor.restart("solo")
            assert recovered == 40
            assert supervisor.recovered_items("solo") == 40
            assert supervisor.addresses()["solo"] == address

            async def verify():
                async with AsyncSocketClient(address) as client:
                    found = await client.get_many(
                        [key_name(i) for i in range(40)], with_cost=True)
                    assert len(found) == 40
                    for i in range(40):
                        assert found[key_name(i)].cost == cost_for(i)

            run(verify())
