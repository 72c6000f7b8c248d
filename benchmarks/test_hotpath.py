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

    Victims are recorded by wrapping the instance's ``pop_victim``, not
    by a KVS listener, so the run stays on the fused path ``simulate()``
    takes in production."""
    log = []
    pop_victim = policy.pop_victim

    def recording_pop_victim(incoming=None):
        victim = pop_victim(incoming)
        log.append(victim)
        return victim

    policy.pop_victim = recording_pop_victim
    return log, simulate(KVS(capacity, policy), trace)


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
