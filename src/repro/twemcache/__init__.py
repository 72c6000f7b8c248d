"""The section 4 implementation study: a Twemcache-like slab server.

Components: the slab allocator (with calcification + random slab
eviction), a buddy allocator alternative, the storage engine with per-class
LRU or CAMP, the IQ cost-measurement framework, a memcached-style text
protocol with an asyncio TCP server and clients over one sans-IO session
each side, and the trace replayer behind Figures 9a-9c.
"""

from __future__ import annotations

from repro.twemcache.async_client import AsyncSocketClient
from repro.twemcache.async_server import AsyncTwemcacheServer
from repro.twemcache.buddy import BuddyAllocator
from repro.twemcache.client import (InProcessClient, LoopbackClient,
                                    SocketClient)
from repro.twemcache.driver import ReplayResult, replay_trace
from repro.twemcache.engine import (
    ITEM_HEADER_SIZE,
    StoredItem,
    TwemcacheEngine,
)
from repro.twemcache.iq import IqSession, VirtualClock
from repro.twemcache.protocol import (
    ClientSession,
    Command,
    ProtocolSession,
    Reply,
    Request,
    ServerSession,
    Value,
    execute_command,
    parse_command_line,
)
from repro.twemcache.slab import (
    DEFAULT_GROWTH_FACTOR,
    DEFAULT_MIN_CHUNK,
    DEFAULT_SLAB_SIZE,
    ChunkRef,
    Slab,
    SlabAllocator,
    SlabClassInfo,
)

__all__ = [
    "SlabAllocator",
    "Slab",
    "SlabClassInfo",
    "ChunkRef",
    "DEFAULT_SLAB_SIZE",
    "DEFAULT_MIN_CHUNK",
    "DEFAULT_GROWTH_FACTOR",
    "BuddyAllocator",
    "TwemcacheEngine",
    "StoredItem",
    "ITEM_HEADER_SIZE",
    "IqSession",
    "VirtualClock",
    "Request",
    "Command",
    "Reply",
    "ProtocolSession",
    "ServerSession",
    "ClientSession",
    "Value",
    "execute_command",
    "parse_command_line",
    "AsyncTwemcacheServer",
    "SocketClient",
    "AsyncSocketClient",
    "InProcessClient",
    "LoopbackClient",
    "ReplayResult",
    "replay_trace",
]
