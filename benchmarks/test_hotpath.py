"""Hot-path regression gate (PR 5): simulate() throughput floors.

Two pipelines run the same trace at the same capacity:

* **reference** — the seed's per-request shape, preserved verbatim: a
  ``Store.access`` call per record (one ``AccessResult`` allocation per
  request), record-attribute loads in the loop, dict-probe outcome
  tallies, and — for CAMP — the frozen pre-optimization policy
  (:class:`repro.core.camp_reference.ReferenceCampPolicy`);
* **optimized** — today's ``simulate()``: precompiled trace tape,
  ``access_outcome`` (no per-request allocation), prebound outcome
  counters, and the rewritten :class:`~repro.core.camp.CampPolicy` with
  stats accounting off.

The gate enforces a speedup floor (the tentpole target is >= 1.8x for
CAMP at default scale) plus absolute ops/s floors, and pins decision
equivalence: the optimized CAMP must make byte-identical eviction
decisions to the reference on the full figure trace.  Results are
written to ``out/hotpath.txt``.
"""

import gc
import time

from conftest import bench_scale, run_once

from repro.analysis import Table
from repro.cache.kvs import KVS
from repro.core import CampPolicy, LruPolicy
from repro.core.camp_reference import ReferenceCampPolicy
from repro.experiments.data import primary_trace
from repro.sim import simulate

RATIO = 0.25
REPEATS = 3

#: speedup floors (reference seconds / optimized seconds); generous for
#: the tiny smoke scale, where a 5k-request run is timing-noise-bound
SPEEDUP_FLOORS = {"camp": {"tiny": 1.3, "default": 1.8, "full": 1.8},
                  "lru": {"tiny": 1.2, "default": 1.5, "full": 1.5}}

#: absolute optimized-simulate() floors, requests per second
OPS_FLOORS = {"camp": 50_000, "lru": 100_000}


def _best_seconds(fn, repeats=REPEATS):
    """Min wall time over repeats, cyclic GC off (as timeit does)."""
    best = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            seconds = fn()
            best = seconds if best is None else min(best, seconds)
    finally:
        if was_enabled:
            gc.enable()
    return best


class _SeedNoLock:
    """The seed's no-op lock: entered and exited on every request."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _seed_access(backend, metrics, lock, key, size, cost):
    """The seed's ``Store.access``, verbatim shape: lock ceremony on a
    no-op lock, keyword-built ``AccessResult`` per request (hit or
    miss), metrics fed through the same branch structure."""
    from repro.cache.outcomes import AccessResult, Outcome
    with lock:
        outcome = backend.lookup(key)
        hit = outcome is Outcome.HIT
        if metrics is not None:
            metrics.record(key, size, cost, hit)
        if hit:
            return AccessResult(key, outcome, size=size, cost=cost,
                                resident=True)
        expired = outcome is Outcome.EXPIRED
        outcome = backend.insert(key, size, cost, ttl=None)
        return AccessResult(key, outcome, size=size, cost=cost,
                            resident=outcome is Outcome.MISS_INSERTED,
                            expired=expired)


def _reference_simulate_seconds(policy, trace, capacity):
    """The seed simulate() pipeline, shape for shape: per-record
    attribute loads, the seed access path above, dict-probe tallies."""
    from repro.cache.metrics import SimulationMetrics
    kvs = KVS(capacity, policy)
    metrics = SimulationMetrics()
    lock = _SeedNoLock()
    tallies = {}
    started = time.perf_counter()
    for record in trace:
        result = _seed_access(kvs, metrics, lock, record.key, record.size,
                              record.cost)
        outcome = result.outcome
        tallies[outcome] = tallies.get(outcome, 0) + 1
    return time.perf_counter() - started


def _optimized_simulate_seconds(policy, trace, capacity):
    return simulate(KVS(capacity, policy), trace).wall_seconds


def _eviction_log(policy, trace, capacity):
    kvs = KVS(capacity, policy)
    log = []

    class _Recorder:
        def on_insert(self, item):
            pass

        def on_evict(self, item, explicit):
            log.append((item.key, explicit))

    kvs.add_listener(_Recorder())
    outcomes = [simulate(kvs, trace)]  # one full run through the store
    return log, outcomes[0]


def test_hotpath(benchmark, scale, save_tables):
    trace = primary_trace(scale)
    capacity = trace.capacity_for_ratio(RATIO)
    pipelines = (
        ("camp",
         lambda: ReferenceCampPolicy(precision=5),
         lambda: CampPolicy(precision=5, stats=False)),
        ("lru", LruPolicy, LruPolicy),
    )

    def measure():
        rows = []
        for name, reference_factory, optimized_factory in pipelines:
            reference = _best_seconds(
                lambda: _reference_simulate_seconds(
                    reference_factory(), trace, capacity))
            optimized = _best_seconds(
                lambda: _optimized_simulate_seconds(
                    optimized_factory(), trace, capacity))
            ops = len(trace) / optimized
            rows.append((name, reference, optimized,
                         reference / optimized, ops, OPS_FLOORS[name],
                         SPEEDUP_FLOORS[name][bench_scale()]))
        return rows

    rows = run_once(benchmark, measure)
    table = Table(
        "Hot path — seed-shaped pipeline vs optimized simulate() "
        "(ratio %.2f, best of %d, GC off)" % (RATIO, REPEATS),
        ["policy", "reference_s", "optimized_s", "speedup", "ops_per_s",
         "ops_floor", "speedup_floor"])
    for row in rows:
        table.add_row(*row)
    save_tables("hotpath", [table])

    for name, reference, optimized, speedup, ops, ops_floor, floor in rows:
        assert speedup >= floor, (
            f"{name}: optimized simulate() is only {speedup:.2f}x the "
            f"seed-shaped pipeline (floor {floor}x)")
        assert ops >= ops_floor, (
            f"{name}: {ops:.0f} ops/s under the {ops_floor} floor")


def test_hotpath_decision_equivalence(scale):
    """Optimized CAMP evicts byte-identically to the frozen seed CAMP
    on the full figure trace (>= 10k requests at default scale)."""
    trace = primary_trace(scale)
    capacity = trace.capacity_for_ratio(RATIO)
    for stats in (False, True):
        optimized_log, optimized_result = _eviction_log(
            CampPolicy(precision=5, stats=stats), trace, capacity)
        reference_log, reference_result = _eviction_log(
            ReferenceCampPolicy(precision=5), trace, capacity)
        assert optimized_log == reference_log
        assert optimized_result.outcomes == reference_result.outcomes
        assert optimized_result.miss_rate == reference_result.miss_rate
