"""``ClusterSupervisor`` — spawn, monitor, and bounce the node fleet.

The deployment half of the live cluster tier: one
:mod:`repro.cluster.node` subprocess per member, each with a fixed
``(host, port)`` (so :class:`~repro.cluster.client.ClusterClient`
addresses stay valid across a bounce) and a per-node snapshot file
under ``state_dir`` (so a bounced node rejoins *warm*, CAMP priorities
intact).  A ``cluster.json`` manifest in ``state_dir`` records the
membership for out-of-band tooling (``repro.cli cluster kill-node``
reads it to find PIDs).

Failure drills the benchmark leans on:

* :meth:`kill` — SIGKILL, the crash case: no drain, no final
  snapshot; rejoin warmth comes from the last ``save`` verb.
* :meth:`stop_node` — SIGTERM, the deploy case: the node drains and
  snapshots before exiting.
* :meth:`restart` — respawn on the *same* port; returns how many items
  the node recovered from its snapshot.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError, ConfigurationError

__all__ = ["ClusterSupervisor", "RestartBackoff"]


def _free_port(host: str) -> int:
    """Ask the kernel for a currently-free port.

    There is a classic race between closing this probe socket and the
    node binding it, but the supervisor allocates all ports up front on
    one host, so collisions are effectively impossible in practice —
    and a collision surfaces loudly as a failed spawn.
    """
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class _Node:
    __slots__ = ("name", "host", "port", "snapshot", "log_path", "process",
                 "recovered")

    def __init__(self, name: str, host: str, port: int, snapshot: str,
                 log_path: str) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.snapshot = snapshot
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.recovered = 0            # items loaded at last (re)start


class RestartBackoff:
    """Per-node restart pacing with a crash-loop quarantine.

    The serve watch loop asks :meth:`decide` what to do about a dead
    node: ``"wait"`` while its backoff window is open, ``"restart"``
    when an attempt is due (the attempt is recorded), and
    ``"quarantine"`` once ``quarantine_after`` attempts have failed in
    quick succession — a node crashing on startup (corrupt snapshot
    dir, port stolen) must not be respawned in a tight loop while the
    rest of the fleet serves.  A node that stays up ``healthy_after``
    seconds between deaths has its streak forgiven.
    """

    def __init__(self, base: float = 1.0, cap: float = 30.0,
                 quarantine_after: int = 5, healthy_after: float = 60.0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if base <= 0 or cap < base:
            raise ConfigurationError(
                f"need 0 < base <= cap, got base={base} cap={cap}")
        if quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {quarantine_after}")
        self._base = base
        self._cap = cap
        self._quarantine_after = quarantine_after
        self._healthy_after = healthy_after
        self._clock = clock if clock is not None else time.monotonic
        self._attempts: Dict[str, int] = {}
        self._last_attempt: Dict[str, float] = {}
        self._quarantined: set = set()

    def decide(self, name: str) -> str:
        """What to do about ``name`` being down right now."""
        if name in self._quarantined:
            return "quarantine"
        now = self._clock()
        attempts = self._attempts.get(name, 0)
        last = self._last_attempt.get(name)
        if attempts and last is not None:
            if now - last >= self._healthy_after:
                # it ran healthily since the last respawn: clean slate
                attempts = 0
            else:
                delay = min(self._base * (2 ** (attempts - 1)), self._cap)
                if now - last < delay:
                    return "wait"
        if attempts >= self._quarantine_after:
            self._quarantined.add(name)
            return "quarantine"
        self._attempts[name] = attempts + 1
        self._last_attempt[name] = now
        return "restart"

    def quarantined(self) -> List[str]:
        return sorted(self._quarantined)

    def forgive(self, name: str) -> None:
        """Lift a quarantine (operator action after fixing the cause)."""
        self._quarantined.discard(name)
        self._attempts.pop(name, None)
        self._last_attempt.pop(name, None)


class ClusterSupervisor:
    """Own N node subprocesses: spawn, watch, bounce, tear down."""

    def __init__(self, names: Sequence[str], memory_bytes: int = 32 << 20,
                 eviction: str = "camp", camp_precision: int = 5,
                 host: str = "127.0.0.1",
                 state_dir: Optional[str] = None,
                 spawn_timeout: float = 30.0) -> None:
        if not names:
            raise ConfigurationError("at least one node name is required")
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be distinct")
        self._memory_bytes = memory_bytes
        self._eviction = eviction
        self._precision = camp_precision
        self._host = host
        self._spawn_timeout = spawn_timeout
        self._own_state_dir = state_dir is None
        self._state_dir = pathlib.Path(
            state_dir if state_dir is not None
            else tempfile.mkdtemp(prefix="repro-cluster-"))
        self._state_dir.mkdir(parents=True, exist_ok=True)
        self._nodes: Dict[str, _Node] = {}
        for name in names:
            self._add_entry(name)

    def _add_entry(self, name: str) -> _Node:
        node = _Node(name, self._host, _free_port(self._host),
                     str(self._state_dir / f"{name}.snapshot"),
                     str(self._state_dir / f"{name}.log"))
        self._nodes[name] = node
        return node

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def state_dir(self) -> pathlib.Path:
        return self._state_dir

    @property
    def names(self) -> List[str]:
        return list(self._nodes)

    def addresses(self) -> Dict[str, Tuple[str, int]]:
        """name -> (host, port) for every member, running or not (ports
        are stable across bounces, so clients keep these addresses)."""
        return {name: (node.host, node.port)
                for name, node in self._nodes.items()}

    def is_running(self, name: str) -> bool:
        node = self._node(name)
        return node.process is not None and node.process.poll() is None

    def recovered_items(self, name: str) -> int:
        """Items the node reported warm-loading at its last (re)start."""
        return self._node(name).recovered

    def _node(self, name: str) -> _Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterSupervisor":
        for name in self._nodes:
            if not self.is_running(name):
                self._spawn(self._nodes[name])
        self._write_manifest()
        return self

    def _spawn(self, node: _Node) -> None:
        env = dict(os.environ)
        # the child must resolve `repro` exactly like this process does,
        # regardless of how PYTHONPATH was (not) set for pytest
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        log = open(node.log_path, "ab")
        try:
            node.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster.node",
                 "--host", node.host, "--port", str(node.port),
                 "--memory-bytes", str(self._memory_bytes),
                 "--eviction", self._eviction,
                 "--camp-precision", str(self._precision),
                 "--snapshot", node.snapshot],
                stdout=subprocess.PIPE, stderr=log, env=env)
        finally:
            log.close()
        node.recovered = self._await_ready(node)

    def _await_ready(self, node: _Node) -> int:
        """Block until the child prints READY; returns recovered count."""
        process = node.process
        assert process is not None and process.stdout is not None
        deadline = time.monotonic() + self._spawn_timeout
        line = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._reap(node)
                raise ClusterError(
                    f"node {node.name!r} did not report READY within "
                    f"{self._spawn_timeout}s (see {node.log_path})")
            ready, _, _ = select.select([process.stdout], [], [],
                                        min(remaining, 0.5))
            if not ready:
                if process.poll() is not None:
                    raise ClusterError(
                        f"node {node.name!r} exited with "
                        f"{process.returncode} before READY "
                        f"(see {node.log_path})")
                continue
            chunk = process.stdout.readline()
            if not chunk:
                self._reap(node)
                raise ClusterError(
                    f"node {node.name!r} closed stdout before READY "
                    f"(see {node.log_path})")
            line = chunk.strip()
            break
        parts = line.decode().split()
        if len(parts) != 4 or parts[0] != "READY":
            self._reap(node)
            raise ClusterError(
                f"node {node.name!r} printed {line!r}, expected READY")
        return int(parts[3])

    def _reap(self, node: _Node) -> None:
        if node.process is not None:
            node.process.kill()
            node.process.wait(timeout=10)
            self._forget_process(node)

    @staticmethod
    def _forget_process(node: _Node) -> None:
        """Drop an exited node's process, closing its stdout pipe."""
        process = node.process
        node.process = None
        if process is not None and process.stdout is not None:
            process.stdout.close()

    # ------------------------------------------------------------------
    # drills
    # ------------------------------------------------------------------
    def kill(self, name: str) -> None:
        """SIGKILL: the crash drill — no drain, no goodbye snapshot."""
        node = self._node(name)
        if node.process is None:
            return
        node.process.kill()
        node.process.wait(timeout=10)
        self._forget_process(node)
        self._write_manifest()

    def stop_node(self, name: str, timeout: float = 15.0) -> None:
        """SIGTERM: graceful drain + snapshot, then exit."""
        node = self._node(name)
        if node.process is None:
            return
        node.process.terminate()
        try:
            node.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:   # pragma: no cover - stuck node
            node.process.kill()
            node.process.wait(timeout=10)
        self._forget_process(node)
        self._write_manifest()

    def pause(self, name: str) -> None:
        """SIGSTOP: the stall drill — the process freezes mid-flight
        (sockets stay open, requests hang) until :meth:`resume`."""
        node = self._node(name)
        if node.process is None or node.process.poll() is not None:
            raise ClusterError(f"node {name!r} is not running")
        node.process.send_signal(signal.SIGSTOP)

    def resume(self, name: str) -> None:
        """SIGCONT: wake a paused node; a no-op on one never paused."""
        node = self._node(name)
        if node.process is None or node.process.poll() is not None:
            raise ClusterError(f"node {name!r} is not running")
        node.process.send_signal(signal.SIGCONT)

    def restart(self, name: str) -> int:
        """(Re)spawn a stopped node on its original port; returns how
        many items it warm-loaded from its snapshot."""
        node = self._node(name)
        if self.is_running(name):
            raise ClusterError(f"node {name!r} is already running")
        self._spawn(node)
        self._write_manifest()
        return node.recovered

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Tuple[str, int]:
        """Provision and start one more member; returns its address."""
        if name in self._nodes:
            raise ClusterError(f"node {name!r} already exists")
        node = self._add_entry(name)
        self._spawn(node)
        self._write_manifest()
        return node.host, node.port

    def remove_node(self, name: str) -> None:
        """Gracefully retire a member and forget it."""
        self.stop_node(name)
        del self._nodes[name]
        self._write_manifest()

    # ------------------------------------------------------------------
    # teardown / manifest
    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        manifest = {name: {"host": node.host, "port": node.port,
                           "pid": (node.process.pid
                                   if node.process is not None else None),
                           "snapshot": node.snapshot}
                    for name, node in self._nodes.items()}
        path = self._state_dir / "cluster.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, path)

    def stop(self) -> None:
        """Drain every node, then drop a self-created state dir."""
        for name in list(self._nodes):
            node = self._nodes[name]
            if node.process is not None:
                node.process.terminate()
        for node in self._nodes.values():
            if node.process is not None:
                try:
                    node.process.wait(timeout=15)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    node.process.kill()
                    node.process.wait(timeout=10)
                self._forget_process(node)
        if self._own_state_dir:
            shutil.rmtree(self._state_dir, ignore_errors=True)

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
