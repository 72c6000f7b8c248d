"""TenantedEngine: per-tenant twemcache isolation, engine and protocol."""

import pytest

from repro.errors import ConfigurationError
from repro.tenancy import TenantedEngine
from repro.twemcache import AsyncTwemcacheServer, SocketClient


def make_engine(**kwargs):
    defaults = dict(memory_bytes=2 << 20,
                    tenant_shares={"a": 0.5, "b": 0.5},
                    eviction="camp", slab_size=1 << 16)
    defaults.update(kwargs)
    return TenantedEngine(**defaults)


class TestRouting:
    def test_set_get_routed_by_prefix(self):
        engine = make_engine()
        assert engine.set("a:k", b"va", cost=5)
        assert engine.set("b:k", b"vb", cost=7)
        assert engine.get("a:k").value == b"va"
        assert engine.get("b:k").value == b"vb"
        assert "a:k" in engine.engine("a")
        assert "a:k" not in engine.engine("b")
        assert len(engine) == 2

    def test_unroutable_key_refused_not_fatal(self):
        engine = make_engine()
        assert not engine.set("ghost:k", b"v")
        assert engine.get("ghost:k") is None
        assert not engine.delete("ghost:k")
        assert engine.rejected_unroutable >= 3

    def test_default_tenant_catches_unprefixed_keys(self):
        engine = make_engine(tenant_shares={"a": 0.5, "shared": 0.5},
                             default_tenant="shared")
        assert engine.set("plainkey", b"v")
        assert engine.get("plainkey").value == b"v"
        assert "plainkey" in engine.engine("shared")
        # membership uses the same default-tenant fallback as get/set
        assert "plainkey" in engine
        assert "missing" not in engine

    def test_share_below_one_slab_rejected_loudly(self):
        with pytest.raises(ConfigurationError):
            make_engine(memory_bytes=1 << 20,
                        tenant_shares={"a": 0.01, "b": 0.99},
                        slab_size=1 << 16)

    def test_incr_decr_touch_routed(self):
        engine = make_engine()
        engine.set("a:n", b"10")
        assert engine.incr("a:n", 5) == 15
        assert engine.decr("a:n", 20) == 0
        assert engine.touch("a:n", 100)
        assert engine.touch_cost("a:n", 3.5)
        assert engine.get("a:n").cost == 3.5
        assert engine.incr("ghost:n", 1) is None

    def test_flush_all_clears_every_tenant(self):
        engine = make_engine()
        engine.set("a:k", b"1")
        engine.set("b:k", b"2")
        engine.flush_all()
        assert len(engine) == 0

    def test_aggregate_and_per_tenant_stats(self):
        engine = make_engine()
        engine.set("a:k", b"1")
        engine.get("a:k")
        engine.get("b:missing")
        stats = engine.stats()
        assert stats["items"] == 1
        assert stats["a_items"] == 1
        assert stats["b_items"] == 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["tenants"] == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_engine(tenant_shares={})
        with pytest.raises(ConfigurationError):
            make_engine(tenant_shares={"a": 0.7, "b": 0.7})
        with pytest.raises(ConfigurationError):
            make_engine(tenant_shares={"a": 0.0})
        with pytest.raises(ConfigurationError):
            make_engine(default_tenant="nope")


class TestEngineIsolation:
    def test_flood_cannot_evict_other_tenant(self):
        """Tenant b churns far past its arena; tenant a loses nothing."""
        engine = make_engine(memory_bytes=1 << 20, slab_size=1 << 14)
        working_set = [f"a:w{index}" for index in range(20)]
        for key in working_set:
            assert engine.set(key, b"x" * 512, cost=10_000)
        for index in range(2000):
            engine.set(f"b:flood{index}", b"y" * 512, cost=1)
        for key in working_set:
            assert engine.get(key) is not None, f"{key} was evicted"
        assert engine.engine("b").evictions > 0
        engine.check_consistency()


@pytest.fixture()
def tenanted_server():
    engine = make_engine(memory_bytes=1 << 20, slab_size=1 << 14)
    server = AsyncTwemcacheServer(engine).start()
    yield server
    server.stop()


class TestProtocolIsolation:
    def test_two_prefixes_cannot_evict_each_other(self, tenanted_server):
        """The satellite claim, at the socket level: a flood of one prefix
        never pushes another prefix's working set below its floor — here
        the partition *is* the floor, so the victim set is empty."""
        with SocketClient(tenanted_server.address) as client:
            keep = {f"a:keep{index}": f"value-{index}".encode()
                    for index in range(25)}
            for key, value in keep.items():
                assert client.set(key, value + b"!" * 400, cost=10_000)
            for index in range(1500):
                client.set(f"b:junk{index}", b"z" * 500, cost=1)
            for key, value in keep.items():
                got = client.get(key)
                assert got is not None, f"{key} evicted by tenant b"
                assert got.value == value + b"!" * 400
        tenanted_server.engine.check_consistency()

    def test_round_trip_and_stats_over_sockets(self, tenanted_server):
        with SocketClient(tenanted_server.address) as client:
            assert client.set("a:x", b"1", cost=3)
            assert client.get("a:x").value == b"1"
            assert client.delete("a:x")
            stats = client.stats()
            assert stats["tenants"] == 2
            # unroutable keys degrade to miss/NOT_STORED, not errors
            assert not client.set("noprefix", b"v")
            assert client.get("noprefix") is None
