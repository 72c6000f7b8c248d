"""Hot-path decision gate: the optimized CAMP evicts like the seed CAMP.

The rewritten :class:`~repro.core.camp.CampPolicy` (inlined hit path,
lazily invalidated ``heapq`` queue-head index, stats mirror), driven
through today's ``simulate()`` — a precompiled tape into the fused
``Store.access_outcome`` path — must make byte-identical eviction
decisions to the frozen pre-optimization policy
(:class:`repro.core.camp_reference.ReferenceCampPolicy`) on the full
figure trace, stats on and off.

How fast that path runs is measured by the ``policy_replay`` workload
of ``bench/`` (``python3 bench/run.py --workload policy_replay``), not
gated here: a throughput floor in a pytest gate only passes on the host
it was tuned on.
"""

from repro.cache.kvs import KVS
from repro.core import CampPolicy
from repro.core.camp_reference import ReferenceCampPolicy
from repro.experiments.data import primary_trace
from repro.sim import simulate

RATIO = 0.25


def _eviction_log(policy, trace, capacity):
    """One full ``simulate()`` run; (victims in order, its result).

    Victims are recorded by wrapping the instance's ``evict`` — the
    residency call the KVS makes for every victim, CAMP's own records
    and the reference's base adapter alike — not by a KVS listener, so
    the run stays on the fused path ``simulate()`` takes in production.
    A hook the KVS no longer called would leave the log empty, so its
    length must match the store's eviction count, and be positive."""
    log = []
    evict = policy.evict

    def recording_evict(incoming=None):
        victim = evict(incoming)
        log.append(victim.key)
        return victim

    policy.evict = recording_evict
    kvs = KVS(capacity, policy)
    result = simulate(kvs, trace)
    assert len(log) == kvs.eviction_count > 0
    return log, result


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
