"""The timed loop of the in-process workloads and its accounting.

A tape is replayed in *laps*: the region after the warm-up is run once in
full — the first lap, whose outcomes are kept and give the decision
metrics, identical for identical seeds — and then again from its start
until the run's seconds are used up, which only adds timing samples.
Every request is timed individually; throughput is taken over
equal-request slices (``common.rate_summary``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Callable, List, Sequence

from repro.cache.outcomes import Outcome

from .common import Tape, latency_buffer

__all__ = ["LapRun", "replay", "replay_timed", "run_laps", "Tally", "tally"]

#: latency samples kept per run; later requests are still counted in
#: the throughput slices
LATENCY_SAMPLES = 4_000_000


def replay(step: Callable, rows: Sequence, start: int, stop: int,
           outcomes: List, lat, filled: int) -> int:
    """Run ``rows[start:stop]`` through ``step``; returns the new fill
    level of the latency buffer."""
    now = perf_counter_ns
    room = len(lat)
    before = now()
    for i in range(start, stop):
        key, size, cost = rows[i]
        outcomes[i] = step(key, size, cost)
        after = now()
        if filled < room:
            lat[filled] = after - before
            filled += 1
        before = after
    return filled


def replay_timed(step: Callable, rows: Sequence, start: int, stop: int):
    """Run ``rows[start:stop]`` through ``step`` with one clock reading
    around the lot (the rungs of the traced runs); (outcomes by tape
    position, seconds)."""
    outcomes = [None] * len(rows)
    started = perf_counter()
    for i in range(start, stop):
        key, size, cost = rows[i]
        outcomes[i] = step(key, size, cost)
    return outcomes, perf_counter() - started


@dataclass
class LapRun:
    first_lap: List                      # outcome per tape position
    lat: object                          # array('q') of ns
    stop: int                            # end of the lap on the tape
    filled: int = 0
    slice_ops: List[int] = field(default_factory=list)
    slice_ns: List[int] = field(default_factory=list)
    laps: float = 0.0

    @property
    def ops(self) -> int:
        return sum(self.slice_ops)

    def samples(self):
        return self.lat[:self.filled]


def run_laps(step: Callable, tape: Tape, warm: int, seconds: float,
             slice_ops: int, samples: int = LATENCY_SAMPLES) -> LapRun:
    """Replay ``tape.rows[warm:]`` for ``seconds``, one full lap at least."""
    rows = tape.rows
    stop = warm + (len(rows) - warm) // slice_ops * slice_ops
    run = LapRun([None] * len(rows), latency_buffer(samples), stop)
    scratch = [None] * len(rows)
    now = perf_counter_ns
    deadline = now() + int(seconds * 1e9)
    outcomes = run.first_lap
    while True:
        for begin in range(warm, stop, slice_ops):
            started = now()
            run.filled = replay(step, rows, begin, begin + slice_ops,
                                outcomes, run.lat, run.filled)
            ended = now()
            run.slice_ops.append(slice_ops)
            run.slice_ns.append(ended - started)
            if outcomes is scratch and ended >= deadline:
                run.laps += (begin + slice_ops - warm) / (stop - warm)
                return run
        run.laps += 1.0
        outcomes = scratch
        if now() >= deadline:
            return run


@dataclass
class Tally:
    """What a stretch of outcomes cost, cold requests excluded."""

    counted: int = 0
    hits: int = 0
    misses: int = 0
    l2: int = 0
    wrong: int = 0                       # outcomes that cannot be right
    cost_total: float = 0.0
    cost_paid: float = 0.0

    def served(self, cost: float, hit: bool) -> None:
        """Count one request answered over the wire."""
        self.counted += 1
        self.cost_total += cost
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.cost_paid += cost

    @property
    def cost_miss_ratio(self) -> float:
        return self.cost_paid / self.cost_total if self.cost_total else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.counted if self.counted else 0.0


def tally(tape: Tape, outcomes: Sequence, start: int, stop: int,
          l2_factor: float = 0.0) -> Tally:
    """Σ cost paid ÷ Σ cost requested over ``outcomes[start:stop]``.

    A miss pays the pair's full cost, a disk-tier serve ``l2_factor`` of
    it.  A first-ever request that reports a hit, and any rejection (no
    pair of these tapes is too large to cache), counts as wrong.
    """
    out = Tally()
    rows, cold = tape.rows, tape.cold
    for i in range(start, stop):
        outcome = outcomes[i]
        if cold[i]:
            if outcome is Outcome.HIT:
                out.wrong += 1
            continue
        cost = rows[i][2]
        out.counted += 1
        out.cost_total += cost
        if outcome is Outcome.HIT:
            out.hits += 1
        elif outcome is Outcome.MISS_INSERTED:
            out.misses += 1
            out.cost_paid += cost
        elif outcome is Outcome.HIT_L2 or outcome is Outcome.MISS_PROMOTED:
            out.l2 += 1
            out.cost_paid += l2_factor * cost
        else:
            out.wrong += 1
    return out
