"""Pieces every workload shares: inputs, statistics, process accounting.

The generator side of the benchmark lives here.  A workload's inputs are
a :class:`Tape` built from the seed by one of ``repro.workloads``'
generators; the program under test only ever sees the generated
``(key, size, cost)`` rows and the value bytes :func:`value_for` derives
from them — never the seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import gc
import hashlib
import os
import pathlib
import resource
import select
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def value_for(key: str, size: int) -> bytes:
    """The one value a key ever has: its own name repeated to ``size``
    bytes.  Cheap enough to rebuild at every check, distinct per key, so
    a value served under the wrong key or truncated never compares equal."""
    unit = key.encode() + b"|"
    return (unit * (size // len(unit) + 1))[:size]


@dataclass
class Tape:
    """One workload's generated request sequence plus what the checks
    and the cost accounting need to know about it."""

    rows: List[Tuple[str, int, float]]   # (key, size, cost) per request
    cold: bytearray                      # 1 where a key is first requested
    unique_bytes: int
    unique_keys: int
    digest: str                          # identifies the tape in provenance
    gen_s: float                         # what repro.workloads took

    def __len__(self) -> int:
        return len(self.rows)


def _rank_hash(rank: int) -> int:
    return zlib.crc32(rank.to_bytes(4, "little"))


def three_cost_price(sizes: Sequence[int],
                     costs: Sequence[int] = (1, 100, 10_000)) -> Callable:
    """The paper's primary shape: a size from ``sizes`` and a cost from
    ``costs``, each equiprobable, fixed per popularity rank."""
    def price(rank: int) -> Tuple[int, int]:
        mixed = _rank_hash(rank)
        return (sizes[mixed % len(sizes)],
                costs[(mixed >> 12) % len(costs)])
    return price


def log_uniform_price(size: int, low: int, high: int) -> Callable:
    """§3.2's other extreme: one size, costs log-uniform in [low, high]."""
    def price(rank: int) -> Tuple[int, int]:
        share = (_rank_hash(rank) & 0xFFFF) / 65536.0
        return size, int(round(low * (high / low) ** share))
    return price


def make_tape(generator: Callable, price: Callable, **kwargs) -> Tape:
    """Run one of ``repro.workloads``' generators and index its output.

    The generator, from the seed, decides *which key is requested when*.
    What a key weighs and costs is then set by ``price`` from the key's
    popularity rank in the tape, the same for every seed.  Drawn per seed
    as the generators do, the handful of hottest keys landing on cost
    1 or cost 10 000 moves ``cost_miss_ratio`` by 10-17 % from seed to
    seed; priced by rank, seeds differ by sampling noise only (3 %).
    """
    started = time.perf_counter()
    trace = generator(**kwargs)
    keys = [row[0] for row in trace.tape()]
    gen_s = time.perf_counter() - started
    first: Dict[str, int] = {}
    count: Dict[str, int] = {}
    cold = bytearray(len(keys))
    for i, key in enumerate(keys):
        if key not in first:
            first[key] = i
            count[key] = 0
            cold[i] = 1
        count[key] += 1
    ranked = sorted(first, key=lambda key: (-count[key], first[key]))
    priced = {key: price(rank) for rank, key in enumerate(ranked)}
    rows = [(key,) + priced[key] for key in keys]
    digest = hashlib.sha1()
    for key, i in first.items():
        digest.update(f"{i}:{key};".encode())
    return Tape(rows, cold, sum(size for size, _ in priced.values()),
                len(priced), digest.hexdigest()[:16], gen_s)


def poisson_arrivals(rate: float, seconds: float, seed: int) -> List[float]:
    """Seeded open-loop schedule: offsets (s) of arrivals at ``rate``/s."""
    import random
    rng = random.Random(seed)
    out: List[float] = []
    at = rng.expovariate(rate)
    while at < seconds:
        out.append(at)
        at += rng.expovariate(rate)
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def latency_summary(samples_ns: Sequence[int],
                    parts: int = 16) -> Dict[str, float]:
    """Latency of a stretch of requests, in µs.

    ``p50_us`` and ``p95_us`` are taken per slice over ``parts``
    consecutive slices, and the *first quartile* of the slices' values is
    reported.  This host is shared: for a second or a few, several times
    a minute, a neighbour takes cycles or cache and everything in that
    stretch is slower.  Such a disturbance only ever adds time and lands
    in some slices, while slower code moves them all — so the better
    quarter of the slices tells the code's latency, and over eight runs
    of one commit in a noisy hour it spread 6 % (p50) and 12 % (p95)
    where the median of slices spread 16 % and 30 % and the pooled
    percentile 21 % and 32 %.  The medians of slices and the pooled view
    follow for comparison: sample count, p50, p90, p95, p99 and the
    highest percentile that still has at least ten samples beyond it.
    """
    ordered = sorted(samples_ns)
    count = len(ordered)
    size = count // parts
    if size < 20:
        slices = [ordered]
    else:
        slices = [sorted(samples_ns[i * size:(i + 1) * size])
                  for i in range(parts)]
    p50s = quartiles([percentile(part, 0.50) / 1e3 for part in slices])
    p95s = quartiles([percentile(part, 0.95) / 1e3 for part in slices])
    top_share = 1.0 - 10.0 / count if count > 20 else 0.5
    return {
        "p50_us": p50s[0],
        "p95_us": p95s[0],
        "slices": len(slices),
        "median_of_slices_p50_us": p50s[1],
        "median_of_slices_p95_us": p95s[1],
        "count": count,
        "pooled_p50_us": percentile(ordered, 0.50) / 1e3,
        "pooled_p90_us": percentile(ordered, 0.90) / 1e3,
        "pooled_p95_us": percentile(ordered, 0.95) / 1e3,
        "pooled_p99_us": percentile(ordered, 0.99) / 1e3,
        "top_percentile": round(100.0 * top_share, 4),
        "top_us": percentile(ordered, top_share) / 1e3,
    }


def rate_summary(slice_ops: Sequence[int],
                 slice_ns: Sequence[int]) -> Dict[str, float]:
    """Throughput over equal-op slices: the quartiles of the slices'
    rates.  ``undisturbed``, the one reported, is the *third* quartile,
    for the reason :func:`latency_summary` gives."""
    rates = [ops * 1e9 / ns for ops, ns in zip(slice_ops, slice_ns) if ns > 0]
    q1, q2, q3 = quartiles(rates)
    return {"slices": len(rates), "q1": q1, "median": q2, "q3": q3,
            "undisturbed": q3}


#: a closed-loop throughput needs this many whole slices to be a median
MIN_SLICES = 10


class ClosedRun:
    """What one closed-loop stretch produced."""

    def __init__(self, units_per_step: int, at_least: int) -> None:
        self.units_per_step = units_per_step
        self.at_least = at_least
        self.lat_ns: List[int] = []       # filled by the step
        self.marks: List[float] = []      # clock at each slice boundary
        self.mark_steps: List[int] = []   # steps done at each boundary
        self.steps = 0
        self.ragged = False               # the last slice is a short one

    @property
    def units(self) -> int:
        return self.steps * self.units_per_step

    def rate(self) -> Dict[str, float]:
        """Units per second over the whole slices (over the short last
        one when it is all there is)."""
        marks, steps = self.marks, self.mark_steps
        if self.ragged and len(marks) > 2:
            marks, steps = marks[:-1], steps[:-1]
        return rate_summary(
            [(b - a) * self.units_per_step for a, b in zip(steps, steps[1:])],
            [int((b - a) * 1e9) for a, b in zip(marks, marks[1:])])

    def invalid(self) -> List[str]:
        """Why this stretch is not a measurement, if it is not."""
        reasons = []
        slices = self.rate()["slices"]
        if slices < MIN_SLICES:
            reasons.append(f"{slices} closed-loop slices, {MIN_SLICES} needed")
        if self.steps < self.at_least:
            reasons.append(f"{self.steps} of the {self.at_least} requests "
                           f"that give cost_miss_ratio got done")
        return reasons


async def closed_loop(step: Callable, callers: int, seconds: float,
                      slice_steps: int, units_per_step: int = 1,
                      at_least: int = 0,
                      limit: Optional[int] = None) -> ClosedRun:
    """``callers`` tasks each await ``step(run.lat_ns)`` again as soon as
    their last call returned, for ``seconds`` — and on, for at most as
    long again, until ``at_least`` steps are done — or until ``limit``
    steps are done; the clock is marked every ``slice_steps`` steps."""
    run = ClosedRun(units_per_step, at_least)
    deadline = time.perf_counter() + seconds
    last_call = deadline + seconds

    def mark() -> None:
        run.marks.append(time.perf_counter())
        run.mark_steps.append(run.steps)

    async def caller() -> None:
        while limit is None or run.steps < limit:
            now = time.perf_counter()
            if now >= last_call or (now >= deadline
                                    and run.steps >= at_least):
                break
            await step(run.lat_ns)
            run.steps += 1
            if run.steps % slice_steps == 0:
                mark()

    mark()
    await asyncio.gather(*(caller() for _ in range(callers)))
    if run.steps > run.mark_steps[-1]:
        mark()
        run.ragged = True
    return run


def latency_buffer(capacity: int) -> array:
    """A zero-filled, fully touched nanosecond buffer: its memory is
    resident before the timed region starts, so ``peak_rss_mb`` does not
    grow with the number of operations a faster run completes."""
    return array("q", bytes(8 * capacity))


def generator_loop() -> asyncio.AbstractEventLoop:
    """The load generator's event loop.  The default epoll selector
    rounds timers up to whole milliseconds, which would send every
    open-loop request up to a millisecond late; ``select()`` takes
    microseconds, and the generator holds only a handful of sockets."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


@contextlib.contextmanager
def generator_gc_quiet():
    """Keep the load generator's own garbage collector out of the served
    workloads' latencies: the tape and the value checks are long-lived
    objects of the *generator*, and a full collection walking them stalls
    every request in flight.  Frozen, they are skipped.  The in-process
    workloads do not use this: there the collector is the program's."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
# process accounting (Linux /proc)
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_io_bytes(pid="self") -> Tuple[int, int]:
    """Bytes a process has passed to read() and to write() so far —
    socket traffic and file appends alike."""
    counts = {}
    with open(f"/proc/{pid}/io", encoding="ascii") as handle:
        for line in handle:
            name, value = line.split(":")
            counts[name] = int(value)
    return counts["rchar"], counts["wchar"]


# ----------------------------------------------------------------------
# scratch space and server processes
# ----------------------------------------------------------------------
class WorkDir:
    """All on-disk state of one run; removed when the run ends."""

    def __init__(self, parent: pathlib.Path) -> None:
        self.path = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=parent))
        self._count = 0

    def fresh(self, label: str) -> str:
        """A new empty directory under the work dir."""
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return str(path)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Node:
    process: subprocess.Popen
    address: Tuple[str, int]

    @property
    def pid(self) -> int:
        return self.process.pid


def pin_generator() -> List[int]:
    """Give the generator the first CPU this process may use and return
    the rest, for the nodes.  Left to itself the kernel wakes a node on
    the CPU of the generator that wrote to it, where it then waits a
    scheduler slice (3-5 ms) for its turn; apart, neither disturbs the
    other.  With one CPU everything shares it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus
    os.sched_setaffinity(0, cpus[:1])
    return cpus[1:]


class Nodes:
    """The ``repro.cluster.node`` processes a run has started."""

    def __init__(self, workdir: WorkDir, cpus: Sequence[int]) -> None:
        self._workdir = workdir
        self._cpus = set(cpus)
        self._nodes: List[Node] = []
        self.pids: List[int] = []      # every pid ever spawned (for checks)

    def spawn(self, memory_bytes: int, ready_timeout: float = 30.0) -> Node:
        """Start one CAMP node on an ephemeral port; wait for READY."""
        directory = self._workdir.fresh("node")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        stderr = open(os.path.join(directory, "stderr.log"), "wb")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster.node", "--port", "0",
                 "--memory-bytes", str(memory_bytes), "--eviction", "camp"],
                stdout=subprocess.PIPE, stderr=stderr, cwd=directory,
                env=env, preexec_fn=self._in_child)
        finally:
            stderr.close()
        node = Node(process, ("", 0))
        self._nodes.append(node)
        self.pids.append(process.pid)
        ready, _, _ = select.select([process.stdout], [], [], ready_timeout)
        line = process.stdout.readline().decode().split() if ready else []
        if len(line) < 3 or line[0] != "READY":
            raise RuntimeError(
                f"node {process.pid} did not report READY: {line!r}")
        node.address = (line[1], int(line[2]))
        return node

    def _in_child(self) -> None:
        os.sched_setaffinity(0, self._cpus)
        # a generator killed outright (the driver's timeout) must not
        # leave nodes behind: the kernel sends SIGKILL when the parent goes
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)

    def live(self) -> List[Node]:
        return [node for node in self._nodes if node.process.poll() is None]

    def stop_all(self) -> None:
        """SIGTERM, then SIGKILL what has not exited; wait for each."""
        for node in self._nodes:
            if node.process.poll() is None:
                node.process.terminate()
        for node in self._nodes:
            try:
                node.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                node.process.kill()
                node.process.wait()
            node.process.stdout.close()
        self._nodes.clear()


def git_sha() -> str:
    """The commit under test, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
