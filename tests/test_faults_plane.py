"""The fault-injection plane and the self-healing it exists to prove.

Unit coverage for :mod:`repro.faults` (plan semantics, the file shim,
transport faults), the ``digest`` anti-entropy verb end to end, hinted
handoff (:class:`~repro.cluster.hints.HintLog` and its replay), the
per-node circuit breaker and request deadlines in
:class:`~repro.cluster.ClusterClient`, restart pacing
(:class:`~repro.cluster.RestartBackoff`), and the
pause/resume (SIGSTOP) supervisor drill.  The full scripted storyline
lives in the ``cluster-chaos`` experiment (``benchmarks/test_chaos.py``).
"""

import asyncio
import errno
import time
import zlib

import pytest

from repro.cluster import ClusterClient, ClusterSupervisor, RestartBackoff
from repro.cluster.hints import HINT_MAGIC, HintLog
from repro.cluster.loadgen import cost_for, key_name, value_for
from repro.errors import ClusterError, ConfigurationError, ProtocolError
from repro.faults import Fault, FaultError, FaultPlan, fault_open, inject
from repro.persistence.format import PersistenceError
from repro.twemcache import (
    AsyncSocketClient,
    AsyncTwemcacheServer,
    TwemcacheEngine,
)
from repro.twemcache.protocol import (
    Command,
    execute_command,
    parse_command_line,
    render_digest,
)


def run(coro):
    return asyncio.run(coro)


def fresh_engine(clock=None) -> TwemcacheEngine:
    return TwemcacheEngine(4 << 20, eviction="camp", slab_size=1 << 16,
                           clock=clock)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_take_fires_on_the_scheduled_operation_only(self):
        plan = FaultPlan([Fault(kind="enospc", seam="file", at=2)])
        assert plan.take("file", "x") == []
        assert plan.take("file", "x") == []
        assert len(plan.take("file", "x")) == 1       # the 3rd op (at=2)
        assert plan.take("file", "x") == []
        assert plan.fired == 1

    def test_count_extends_over_consecutive_matches(self):
        plan = FaultPlan([Fault(kind="enospc", seam="file", at=1, count=2)])
        fired = [bool(plan.take("file", "x")) for _ in range(4)]
        assert fired == [False, True, True, False]
        assert not plan.pending("file")

    def test_counters_are_per_fault_and_target_substring_matched(self):
        plan = FaultPlan([
            Fault(kind="enospc", seam="file", target="aol", at=0),
            Fault(kind="enospc", seam="file", target="segment", at=0),
        ])
        # ops against the snapshot match neither counter
        assert plan.take("file", "snapshot-000001.snap.tmp") == []
        assert len(plan.take("file", "state/op.aol")) == 1
        assert len(plan.take("file", "tier/segment-000001.seg")) == 1

    def test_seams_do_not_cross(self):
        plan = FaultPlan([Fault(kind="reset", seam="read", at=0)])
        assert plan.take("file", "x") == []
        assert len(plan.take("read", "x")) == 1

    def test_process_events_are_step_keyed(self):
        plan = FaultPlan([
            Fault(kind="sigkill", seam="process", target="c0", at=1),
            Fault(kind="restart", seam="process", target="c0", at=4),
        ])
        assert plan.events_at(0) == []
        assert [f.kind for f in plan.events_at(1)] == ["sigkill"]
        assert plan.last_step() == 4
        assert FaultPlan().last_step() == -1

    def test_validation(self):
        with pytest.raises(FaultError):
            Fault(kind="enospc", seam="bogus")
        with pytest.raises(FaultError):
            Fault(kind="enospc", seam="file", at=-1)
        with pytest.raises(FaultError):
            Fault(kind="enospc", seam="file", count=0)


# ----------------------------------------------------------------------
# the file shim
# ----------------------------------------------------------------------
class TestFileShim:
    def test_enospc_persists_nothing(self, tmp_path):
        path = tmp_path / "victim.bin"
        plan = FaultPlan([Fault(kind="enospc", seam="file", at=1)])
        with inject(plan), fault_open(path, "wb") as handle:
            handle.write(b"first")
            with pytest.raises(OSError) as caught:
                handle.write(b"second")
            assert caught.value.errno == errno.ENOSPC
            handle.flush()
        assert path.read_bytes() == b"first"

    def test_short_write_keeps_a_prefix(self, tmp_path):
        path = tmp_path / "victim.bin"
        plan = FaultPlan([Fault(kind="short_write", seam="file",
                                keep_bytes=3)])
        with inject(plan), fault_open(path, "wb") as handle:
            with pytest.raises(OSError) as caught:
                handle.write(b"0123456789")
            assert caught.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"012"

    def test_torn_write_is_eio_with_a_prefix(self, tmp_path):
        path = tmp_path / "victim.bin"
        plan = FaultPlan([Fault(kind="torn_write", seam="file",
                                keep_bytes=4)])
        with inject(plan), fault_open(path, "wb") as handle:
            with pytest.raises(OSError) as caught:
                handle.write(b"0123456789")
            assert caught.value.errno == errno.EIO
        assert path.read_bytes() == b"0123"

    def test_injection_after_open_still_applies(self, tmp_path):
        # the shim checks active plans per write, so "the disk fills
        # while the log is already open" is expressible
        path = tmp_path / "victim.bin"
        handle = fault_open(path, "wb")
        handle.write(b"healthy")
        plan = FaultPlan([Fault(kind="enospc", seam="file")])
        with inject(plan):
            with pytest.raises(OSError):
                handle.write(b"doomed")
        handle.write(b"+recovered")
        handle.close()
        assert path.read_bytes() == b"healthy+recovered"

    def test_read_handles_pass_through_unwrapped(self, tmp_path):
        path = tmp_path / "victim.bin"
        path.write_bytes(b"payload")
        with inject(FaultPlan([Fault(kind="enospc", seam="file")])):
            with fault_open(path, "rb") as handle:
                assert handle.read() == b"payload"
        assert not hasattr(fault_open(path, "rb"), "_target")


# ----------------------------------------------------------------------
# transport faults
# ----------------------------------------------------------------------
class TestTransportFaults:
    def test_connect_refusal_is_deterministic(self):
        async def main():
            engine = fresh_engine()
            async with AsyncTwemcacheServer(engine) as server:
                plan = FaultPlan([Fault(kind="refuse", seam="connect",
                                        at=0)])
                client = AsyncSocketClient(server.address, pool_size=1,
                                           timeout=2, fault_plan=plan)
                try:
                    with pytest.raises(ConnectionRefusedError):
                        await client.set("k", b"v")
                    # the fault is spent: the retry dials through
                    assert await client.set("k", b"v", cost=5)
                finally:
                    await client.close()

        run(main())

    def test_server_response_stall_times_out_then_recovers(self):
        """A stalled response expires the client's wait_for; the broken
        connection is discarded (never re-pooled dirty) and the permit
        comes back, so the next call succeeds on a fresh dial."""
        async def main():
            engine = fresh_engine()
            engine.set("k", b"correct", cost=3)
            plan = FaultPlan([Fault(kind="stall", seam="write", at=0,
                                    delay=30.0)])
            server = AsyncTwemcacheServer(engine, fault_plan=plan)
            async with server:
                client = AsyncSocketClient(server.address, pool_size=1,
                                           timeout=0.3)
                try:
                    with pytest.raises(asyncio.TimeoutError):
                        await client.get_map(["k"])
                    # permit returned, connection not re-pooled
                    assert client._available._value == 1
                    assert client._idle == []
                    found = await client.get_map(["k"])
                    assert found["k"].value == b"correct"
                finally:
                    await client.close()

        run(main())

    def test_slightly_late_reply_never_poisons_the_next_call(self):
        """The dirty-reuse regression: a reply that arrives *after* the
        client gave up must not be read by the next operation.  If the
        timed-out connection were re-pooled, the second get would
        consume the first (stale) reply."""
        async def main():
            engine = fresh_engine()
            engine.set("stale", b"old-reply", cost=1)
            engine.set("fresh", b"new-reply", cost=2)
            plan = FaultPlan([Fault(kind="latency", seam="write", at=0,
                                    delay=0.6)])
            server = AsyncTwemcacheServer(engine, fault_plan=plan)
            async with server:
                client = AsyncSocketClient(server.address, pool_size=1,
                                           timeout=0.2)
                try:
                    with pytest.raises(asyncio.TimeoutError):
                        await client.get_map(["stale"])
                    await asyncio.sleep(0.6)   # the late reply lands now
                    found = await client.get_map(["fresh"])
                    assert set(found) == {"fresh"}
                    assert found["fresh"].value == b"new-reply"
                finally:
                    await client.close()

        run(main())

    def test_outer_cancellation_returns_the_pool_permit(self):
        """CancelledError is a BaseException: a deadline budget expiring
        mid-read must still discard the connection and hand the permit
        back, or the pool loses one slot per expiry."""
        async def main():
            engine = fresh_engine()
            plan = FaultPlan([Fault(kind="stall", seam="write", at=0,
                                    delay=30.0)])
            server = AsyncTwemcacheServer(engine, fault_plan=plan)
            async with server:
                client = AsyncSocketClient(server.address, pool_size=1,
                                           timeout=60)
                try:
                    task = asyncio.ensure_future(client.get_map(["k"]))
                    await asyncio.sleep(0.2)       # mid-read on the stall
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    assert client._available._value == 1
                    assert client._idle == []
                    # the pool still works (a leak would deadlock here)
                    await asyncio.wait_for(client.set("k", b"v"),
                                           timeout=5)
                finally:
                    await client.close()

        run(main())

    def test_fan_out_cancellation_returns_every_permit(self):
        async def main():
            engine = fresh_engine()
            # exactly one stalled response per pooled connection; the
            # liveness probe after the cancel must dial through clean
            plan = FaultPlan([Fault(kind="stall", seam="write", at=0,
                                    count=2, delay=30.0)])
            server = AsyncTwemcacheServer(engine, fault_plan=plan)
            async with server:
                client = AsyncSocketClient(server.address, pool_size=2,
                                           timeout=60)
                try:
                    task = asyncio.ensure_future(
                        client.get_many([f"k{i}" for i in range(8)]))
                    await asyncio.sleep(0.2)
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    assert client._available._value == 2
                    assert await asyncio.wait_for(
                        client.set("k", b"v"), timeout=5)
                finally:
                    await client.close()

        run(main())

    def test_stalled_batch_waits_one_timeout_not_one_per_shard(self):
        """A batch's shards run concurrently, each under the client's
        one timeout: a stalled node holds ``get_many`` about as long as
        a single ``get``, not ``pool_size`` times longer."""
        async def main():
            engine = fresh_engine()
            plan = FaultPlan([Fault(kind="stall", seam="write", at=0,
                                    count=2, delay=30.0)])
            server = AsyncTwemcacheServer(engine, fault_plan=plan)
            async with server:
                client = AsyncSocketClient(server.address, pool_size=2,
                                           timeout=1.0)
                try:
                    started = time.perf_counter()
                    with pytest.raises(asyncio.TimeoutError):
                        await client.get_many([f"k{i}" for i in range(8)])
                    assert time.perf_counter() - started < 1.8
                    assert client._available._value == 2
                    assert client._idle == []
                finally:
                    await client.close()

        run(main())

    def test_read_reset_discards_the_connection_and_redials(self):
        """The read seam fires once per expected reply: a multi-value
        reply long enough to span several socket reads is still one
        opportunity, so the reset lands on exactly the third call."""
        keys = [f"k{i}" for i in range(8)]

        async def main():
            engine = fresh_engine()
            for i, key in enumerate(keys):
                engine.set(key, bytes([65 + i]) * 30_000, cost=i)
            plan = FaultPlan([Fault(kind="reset", seam="read", at=2)])
            async with AsyncTwemcacheServer(engine) as server:
                client = AsyncSocketClient(server.address, pool_size=1,
                                           timeout=5, fault_plan=plan)
                try:
                    assert len(await client.get_map(keys)) == 8   # reply 0
                    assert await client.set("n", b"v")            # reply 1
                    with pytest.raises(ConnectionResetError):
                        await client.get_map(keys)                # reply 2
                    assert client._available._value == 1
                    assert client._idle == []
                    assert len(await client.get_map(keys)) == 8
                finally:
                    await client.close()
                return server.connections_served

        assert run(main()) == 2          # the call after the reset re-dialed

    def test_read_stall_times_out_with_the_same_pool_hygiene(self):
        async def main():
            engine = fresh_engine()
            engine.set("k", b"correct", cost=3)
            plan = FaultPlan([Fault(kind="stall", seam="read", at=0,
                                    delay=30.0)])
            async with AsyncTwemcacheServer(engine) as server:
                client = AsyncSocketClient(server.address, pool_size=1,
                                           timeout=0.3, fault_plan=plan)
                try:
                    with pytest.raises(asyncio.TimeoutError):
                        await client.get("k")
                    assert client._available._value == 1
                    assert client._idle == []
                    assert (await client.get("k")).value == b"correct"
                finally:
                    await client.close()
                return server.connections_served

        assert run(main()) == 2


# ----------------------------------------------------------------------
# the digest verb
# ----------------------------------------------------------------------
class TestDigestVerb:
    def test_engine_digest_is_cost_and_crc(self):
        engine = fresh_engine()
        engine.set("a1", b"alpha", cost=7)
        engine.set("b1", b"beta", cost=9)
        summary = engine.digest()
        assert summary == {"a1": (7, zlib.crc32(b"alpha")),
                           "b1": (9, zlib.crc32(b"beta"))}
        assert engine.digest("a") == {"a1": (7, zlib.crc32(b"alpha"))}

    def test_engine_digest_skips_expired(self):
        now = [0.0]
        engine = fresh_engine(clock=lambda: now[0])
        engine.set("ttl", b"gone", expire_after=5, cost=1)
        engine.set("keep", b"kept", cost=2)
        now[0] = 10.0
        assert set(engine.digest()) == {"keep"}

    def test_protocol_parse_and_render(self):
        request = parse_command_line(b"digest")
        assert request.command == "digest" and request.keys == []
        request = parse_command_line(b"digest pre")
        assert request.keys == ["pre"]
        with pytest.raises(ProtocolError):
            parse_command_line(b"digest a b")
        text = render_digest({"k2": (3, 99), "k1": (1.5, 7)}).decode()
        assert text.splitlines() == ["DIGEST k1 1.5 7", "DIGEST k2 3 99",
                                     "END"]

    def test_execute_against_engine_and_unsupporting_engine(self):
        engine = fresh_engine()
        engine.set("k", b"v", cost=4)
        reply = execute_command(engine,
                                Command(parse_command_line(b"digest")))
        assert f"DIGEST k 4 {zlib.crc32(b'v')}".encode() in reply.data

        class NoDigest:
            pass

        reply = execute_command(NoDigest(),
                                Command(parse_command_line(b"digest")))
        assert reply.data.startswith(b"SERVER_ERROR")

    def test_client_round_trip(self):
        async def main():
            engine = fresh_engine()
            engine.set("x1", b"one", cost=11)
            engine.set("y1", b"two", cost=13)
            async with AsyncTwemcacheServer(engine) as server:
                async with AsyncSocketClient(server.address) as client:
                    summary = await client.digest()
                    assert summary == {
                        "x1": (11, zlib.crc32(b"one")),
                        "y1": (13, zlib.crc32(b"two"))}
                    assert await client.digest("y") == {
                        "y1": (13, zlib.crc32(b"two"))}

        run(main())


# ----------------------------------------------------------------------
# the hint log
# ----------------------------------------------------------------------
class TestHintLog:
    def test_round_trip_preserves_cost_flags_ttl(self, tmp_path):
        log = HintLog(tmp_path / "n0.hints")
        log.append("k1", b"v1", flags=2, expire_after=30, cost=17)
        log.append("k2", b"v2", cost=3.5)
        entries = {e[0]: e for e in log.entries()}
        assert entries["k1"] == ("k1", b"v1", 2, 30.0, 17)
        assert entries["k2"] == ("k2", b"v2", 0, 0.0, 3.5)

    def test_newest_record_per_key_wins(self, tmp_path):
        log = HintLog(tmp_path / "n0.hints")
        log.append("k", b"old", cost=1)
        log.append("k", b"new", cost=2)
        assert log.entries() == [("k", b"new", 0, 0.0, 2)]

    def test_delete_tombstone_marks_value_none(self, tmp_path):
        log = HintLog(tmp_path / "n0.hints")
        log.append("k", b"v", cost=1)
        log.append_delete("k")
        assert log.entries() == [("k", None, 0, 0.0, 0)]

    def test_torn_tail_loses_only_the_tail(self, tmp_path):
        path = tmp_path / "n0.hints"
        log = HintLog(path)
        log.append("k1", b"v1", cost=1)
        log.append("k2", b"v2", cost=2)
        with open(path, "rb+") as handle:
            handle.truncate(path.stat().st_size - 3)
        assert [e[0] for e in log.entries()] == ["k1"]

    def test_foreign_magic_reads_as_empty(self, tmp_path):
        path = tmp_path / "n0.hints"
        path.write_bytes(b"NOTHINTS" + b"\x00" * 16)
        assert HintLog(path).entries() == []
        assert HINT_MAGIC != b"NOTHINTS"

    def test_clear_drops_the_file(self, tmp_path):
        log = HintLog(tmp_path / "n0.hints")
        log.append("k", b"v")
        log.clear()
        assert not log.path.exists()
        assert len(log) == 0
        log.clear()   # idempotent

    def test_append_under_enospc_raises_persistence_error(self, tmp_path):
        log = HintLog(tmp_path / "n0.hints")
        log.append("k1", b"v1")
        plan = FaultPlan([Fault(kind="enospc", seam="file",
                                target="hints")])
        with inject(plan):
            with pytest.raises(PersistenceError):
                log.append("k2", b"v2")
        # the failed hint vanished; the earlier one survives
        assert [e[0] for e in log.entries()] == ["k1"]


# ----------------------------------------------------------------------
# restart pacing
# ----------------------------------------------------------------------
class TestRestartBackoff:
    def test_waits_then_restarts_with_exponential_windows(self):
        now = [0.0]
        backoff = RestartBackoff(base=1.0, cap=30.0, quarantine_after=5,
                                 healthy_after=60.0, clock=lambda: now[0])
        assert backoff.decide("n") == "restart"    # first death: go now
        assert backoff.decide("n") == "wait"       # 1s window open
        now[0] = 1.0
        assert backoff.decide("n") == "restart"    # window lapsed
        now[0] = 2.5
        assert backoff.decide("n") == "wait"       # 2s window now
        now[0] = 3.0
        assert backoff.decide("n") == "restart"

    def test_crash_loop_quarantines_and_forgive_lifts(self):
        now = [0.0]
        backoff = RestartBackoff(base=0.1, cap=0.1, quarantine_after=3,
                                 healthy_after=60.0, clock=lambda: now[0])
        decisions = []
        for _ in range(8):
            decisions.append(backoff.decide("n"))
            now[0] += 1.0
        assert decisions[:3] == ["restart"] * 3
        assert set(decisions[3:]) == {"quarantine"}
        assert backoff.quarantined() == ["n"]
        backoff.forgive("n")
        assert backoff.decide("n") == "restart"

    def test_healthy_uptime_resets_the_streak(self):
        now = [0.0]
        backoff = RestartBackoff(base=1.0, cap=30.0, quarantine_after=3,
                                 healthy_after=60.0, clock=lambda: now[0])
        for _ in range(2):
            assert backoff.decide("n") == "restart"
            now[0] += 10.0
        now[0] += 120.0           # ran healthy well past healthy_after
        assert backoff.decide("n") == "restart"
        assert backoff.decide("n") == "wait"   # back on the 1s base window

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RestartBackoff(base=0)
        with pytest.raises(ConfigurationError):
            RestartBackoff(base=2.0, cap=1.0)
        with pytest.raises(ConfigurationError):
            RestartBackoff(quarantine_after=0)


# ----------------------------------------------------------------------
# the circuit breaker (no sockets needed: virtual clock, direct marks)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _client(self, now):
        return ClusterClient({"a": ("127.0.0.1", 1), "b": ("127.0.0.1", 2)},
                             replicas=2, backoff_base=10.0,
                             backoff_max=40.0, clock=lambda: now[0],
                             timeout=1.0, jitter_seed=7)

    def test_states_closed_open_half_open(self):
        now = [0.0]
        client = self._client(now)
        assert client.breaker_state("a") == "closed"
        client._mark_down("a")
        assert client.breaker_state("a") == "open"
        assert not client._admit("a")
        now[0] = 50.0                      # any jitter window has lapsed
        assert client.breaker_state("a") == "half_open"
        assert client._admit("a")          # the probe
        assert not client._admit("a")      # only one probe at a time
        client._mark_up("a")
        assert client.breaker_state("a") == "closed"
        assert client._admit("a") and client._admit("a")

    def test_failed_probe_reopens_wider(self):
        now = [0.0]
        client = self._client(now)
        client._mark_down("a")
        first_window = client._states["a"].down_until
        now[0] = 50.0
        assert client._admit("a")
        client._mark_down("a")             # the probe failed
        second_window = client._states["a"].down_until - now[0]
        assert second_window > first_window        # 2x base, jittered
        assert client.counters["node_failures"] == 2
        assert client.counters["probes"] == 1

    def test_jitter_stays_inside_half_to_full_window(self):
        # the live-cluster tests pin backoff_base=30/backoff_max=30 and
        # expect down at t=0 but lapsed by t=60: jitter must keep the
        # window inside [0.5, 1.0) of nominal
        now = [0.0]
        for seed in range(20):
            client = ClusterClient({"a": ("127.0.0.1", 1)}, replicas=1,
                                   backoff_base=30.0, backoff_max=30.0,
                                   clock=lambda: now[0], jitter_seed=seed)
            client._mark_down("a")
            window = client._states["a"].down_until
            assert 15.0 <= window < 30.0

    def test_abandoned_probe_lease_self_heals(self):
        now = [0.0]
        client = self._client(now)
        client._mark_down("a")
        now[0] = 50.0
        assert client._admit("a")          # probe claimed, then abandoned
        assert not client._admit("a")
        now[0] = 60.0                      # past the probe lease (2x timeout)
        assert client._admit("a")


# ----------------------------------------------------------------------
# live fleets: hinted handoff, anti-entropy, deadlines, pause/resume
# ----------------------------------------------------------------------
class _Fleet:
    """Three threaded in-process servers + address map."""

    def __init__(self, names=("n0", "n1", "n2")):
        self.servers = {}
        for name in names:
            self.servers[name] = AsyncTwemcacheServer(fresh_engine()).start()
        self.addresses = {name: server.address
                          for name, server in self.servers.items()}

    def engine(self, name) -> TwemcacheEngine:
        return self.servers[name].engine

    def bounce_empty(self, name):
        """Stop ``name`` and restart it empty on the same port."""
        host, port = self.addresses[name]
        self.servers[name].stop()
        self.servers[name] = AsyncTwemcacheServer(fresh_engine(), host,
                                                  port).start()

    def stop(self):
        for server in self.servers.values():
            server.stop()


@pytest.fixture()
def fleet():
    built = _Fleet()
    yield built
    built.stop()


class TestHintedHandoff:
    def test_writes_to_a_down_holder_park_and_replay(self, fleet, tmp_path):
        async def main():
            now = [0.0]
            client = ClusterClient(fleet.addresses, replicas=2, timeout=2,
                                   backoff_base=30.0, backoff_max=30.0,
                                   clock=lambda: now[0],
                                   hints_dir=str(tmp_path))
            try:
                fleet.servers["n1"].stop()
                entries = [(key_name(i), value_for(i, 32), 0, 0,
                            cost_for(i)) for i in range(60)]
                stored = await client.set_many(entries)
                assert all(stored)
                expected = [key_name(i) for i in range(60)
                            if "n1" in client.holders(key_name(i))]
                primaried = [key for key in expected
                             if client.holders(key)[0] == "n1"]
                assert expected and primaried, "ring placed nothing on n1?"
                assert client.counters["hints_written"] >= len(expected)
                assert (tmp_path / "n1.hints").exists()

                # bounce the node empty; lapse the breaker; the next op
                # that routes to n1 (a key it primaries) probes it, and
                # the successful probe auto-replays the parked hints
                fleet.bounce_empty("n1")
                now[0] = 60.0
                await client.get_many([primaried[0]])
                assert client.counters["hints_replayed"] >= len(expected)
                engine = fleet.engine("n1")
                for name in expected:
                    i = int(name[1:])
                    item = engine.get(name)
                    assert item is not None, f"{name} never replayed"
                    assert item.value == value_for(i, 32)
                    assert item.cost == cost_for(i)   # true CAMP cost
                assert not (tmp_path / "n1.hints").exists()
            finally:
                await client.close()

        run(main())

    def test_delete_hints_prevent_resurrection(self, fleet, tmp_path):
        async def main():
            now = [0.0]
            client = ClusterClient(fleet.addresses, replicas=2, timeout=2,
                                   backoff_base=30.0, backoff_max=30.0,
                                   clock=lambda: now[0],
                                   hints_dir=str(tmp_path))
            try:
                assert await client.set("zombie", b"brains", cost=5)
                victim = client.holders("zombie")[1]
                # the victim sleeps through the delete, holding its copy
                fleet.servers[victim].stop()
                assert await client.delete("zombie")
                host, port = fleet.addresses[victim]
                fleet.servers[victim].stop()
                server = AsyncTwemcacheServer(fresh_engine(), host, port)
                fleet.servers[victim] = server.start()
                server.engine.set("zombie", b"brains", cost=5)  # stale copy

                now[0] = 60.0
                await client.get_many(["unrelated"])   # probe + replay
                assert server.engine.get("zombie") is None, (
                    "delete hint failed: the stale copy survived rejoin")
                # and the cluster-wide read agrees
                assert await client.get("zombie") is None
            finally:
                await client.close()

        run(main())

    def test_replay_survives_a_second_death(self, fleet, tmp_path):
        """A replay interrupted by the node dying again keeps the hint
        file for the next revival."""
        async def main():
            now = [0.0]
            client = ClusterClient(fleet.addresses, replicas=2, timeout=2,
                                   backoff_base=30.0, backoff_max=30.0,
                                   clock=lambda: now[0],
                                   hints_dir=str(tmp_path))
            try:
                fleet.servers["n2"].stop()
                entries = [(key_name(i), value_for(i, 32), 0, 0,
                            cost_for(i)) for i in range(40)]
                await client.set_many(entries)
                hinted = client.counters["hints_written"]
                assert hinted > 0
                # node is still down: replay fails, hints survive
                now[0] = 60.0
                assert await client.replay_hints("n2") == 0
                assert (tmp_path / "n2.hints").exists()
                # revive it for real; second replay drains
                fleet.bounce_empty("n2")
                now[0] = 120.0
                assert await client.replay_hints("n2") > 0
                assert not (tmp_path / "n2.hints").exists()
            finally:
                await client.close()

        run(main())


class TestAntiEntropy:
    def test_sweep_repairs_a_missing_replica_copy(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses,
                                     replicas=2) as client:
                entries = [(key_name(i), value_for(i, 32), 0, 0,
                            cost_for(i)) for i in range(40)]
                await client.set_many(entries)
                # silently lose one replica copy (no read ever notices)
                victim_key = key_name(7)
                holder = client.holders(victim_key)[1]
                assert fleet.engine(holder).delete(victim_key)

                report = await client.anti_entropy()
                assert report["nodes_scanned"] == 3
                assert report["divergent_pairs"] == 1
                assert report["repaired"] == 1
                restored = fleet.engine(holder).get(victim_key)
                assert restored is not None
                assert restored.value == value_for(7, 32)
                assert restored.cost == cost_for(7)

                # converged: a second sweep finds nothing to do
                again = await client.anti_entropy()
                assert again["divergent_pairs"] == 0

        run(main())

    def test_sweep_resolves_value_divergence_primary_led(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses,
                                     replicas=2) as client:
                await client.set("split", b"authoritative", cost=9)
                primary, replica = client.holders("split")[:2]
                fleet.engine(replica).set("split", b"corrupted", cost=9)
                report = await client.anti_entropy()
                assert report["repaired"] >= 1
                fixed = fleet.engine(replica).get("split")
                assert fixed is not None
                assert fixed.value == b"authoritative"

        run(main())

    def test_prefix_limits_the_sweep(self, fleet):
        async def main():
            async with ClusterClient(fleet.addresses,
                                     replicas=2) as client:
                await client.set("inside:k", b"v", cost=1)
                await client.set("outside", b"v", cost=1)
                holder = client.holders("outside")[1]
                fleet.engine(holder).delete("outside")
                report = await client.anti_entropy(prefix="inside:")
                # the divergence lives outside the prefix: untouched
                assert report["divergent_pairs"] == 0
                assert fleet.engine(holder).get("outside") is None

        run(main())


class TestRequestDeadline:
    def test_budget_bounds_a_batch_and_degrades_to_misses(self, fleet):
        async def main():
            client = ClusterClient(fleet.addresses, replicas=2,
                                   timeout=5.0, request_deadline=0.001,
                                   backoff_base=30.0, backoff_max=30.0)
            try:
                keys = [key_name(i) for i in range(20)]
                # the budget (1ms) expires before any shard completes:
                # keys degrade to misses, never an exception
                found = await client.get_many(keys)
                assert isinstance(found, dict)
                assert client.counters["deadline_expirations"] >= 1
                assert client.counters["misses"] >= len(keys) - len(found)
            finally:
                await client.close()

        run(main())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterClient({"a": ("127.0.0.1", 1)}, request_deadline=0)


class TestSupervisorPauseResume:
    def test_sigstop_hangs_requests_until_sigcont(self, tmp_path):
        supervisor = ClusterSupervisor(["solo"], memory_bytes=4 << 20,
                                       state_dir=str(tmp_path))
        with supervisor:
            address = supervisor.addresses()["solo"]

            async def drill():
                async with AsyncSocketClient(address,
                                             timeout=0.4) as client:
                    assert await client.set("k", b"v", cost=1)
                    supervisor.pause("solo")
                    assert supervisor.is_running("solo")   # frozen, alive
                    with pytest.raises(asyncio.TimeoutError):
                        await client.get_map(["k"])
                    supervisor.resume("solo")
                    found = await client.get_map(["k"])
                    assert found["k"].value == b"v"

            run(drill())

    def test_pause_unknown_or_dead_node_raises(self, tmp_path):
        supervisor = ClusterSupervisor(["solo"], memory_bytes=4 << 20,
                                       state_dir=str(tmp_path))
        with supervisor:
            with pytest.raises(ClusterError):
                supervisor.pause("ghost")
            supervisor.kill("solo")
            with pytest.raises(ClusterError):
                supervisor.pause("solo")
            with pytest.raises(ClusterError):
                supervisor.resume("solo")
