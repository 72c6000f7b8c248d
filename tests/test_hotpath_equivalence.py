"""Decision equivalence: optimized CAMP vs the frozen seed CAMP (PR 5).

The hot-path rewrites (inlined ratio arithmetic, direct link splices,
queue recycling, multiplier-change reround skip, the lazily invalidated
``heapq`` queue-head index, the stats mirror) must not move a single
eviction: every (outcome sequence, eviction sequence, final residency,
L, seq) produced by :class:`CampPolicy` — stats accounting on and off —
must be byte-identical to
:class:`repro.core.camp_reference.ReferenceCampPolicy`, the seed
implementation kept verbatim for exactly this comparison.

Every case runs through both request entry points: ``KVS.lookup`` +
``insert``, and ``Store.access_outcome`` — the fused lookup-or-insert
path that ``simulate()`` and the ``policy_replay`` benchmark drive.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.kvs import KVS
from repro.cache.outcomes import Outcome
from repro.cache.store import StoreConfig
from repro.core.camp import CampPolicy
from repro.core.camp_reference import ReferenceCampPolicy

_COSTS = st.one_of(
    st.integers(min_value=0, max_value=20_000),
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)

_REQUESTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60),   # key id
              st.integers(min_value=1, max_value=400),  # size
              _COSTS),
    min_size=20, max_size=400)

#: the request entry points every case is driven through
ENTRY_POINTS = ("kvs", "store")


def _drive(policy, requests, capacity, entry):
    """Replay lookup/insert-on-miss through ``entry``; return every
    observable decision.

    Victims are recorded by wrapping the instance's ``evict`` — the
    residency call the KVS makes for every victim, whether the policy
    owns its records (CAMP) or runs on the base adapter (the reference)
    — rather than by a KVS listener, because a listener would move the
    ``store`` entry point off its fused fast path.
    """
    evictions = []
    evict = policy.evict

    def recording_evict(incoming=None):
        victim = evict(incoming)
        evictions.append(victim.key)
        return victim

    policy.evict = recording_evict
    outcomes = []
    if entry == "kvs":
        kvs = KVS(capacity, policy)
        for key_id, size, cost in requests:
            key = f"k{key_id}"
            outcome = kvs.lookup(key)
            outcomes.append(outcome)
            if outcome is not Outcome.HIT:
                outcomes.append(kvs.insert(key, size, cost))
    else:
        store = StoreConfig(capacity).policy(policy).build()
        kvs = store.kvs
        for key_id, size, cost in requests:
            outcomes.append(store.access_outcome(f"k{key_id}", size, cost))
    kvs.check_consistency()
    # a hook the KVS no longer calls would leave both logs empty, and equal
    assert len(evictions) == kvs.eviction_count
    resident = sorted(item.key for item in kvs.resident_items())
    return outcomes, evictions, resident, policy


class TestOptimizedMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(requests=_REQUESTS,
           capacity=st.integers(min_value=200, max_value=8_000),
           precision=st.sampled_from([1, 3, 5, None]),
           reround=st.booleans(),
           stats=st.booleans())
    def test_decisions_identical(self, requests, capacity, precision,
                                 reround, stats):
        for entry in ENTRY_POINTS:
            optimized = _drive(
                CampPolicy(precision=precision, reround_on_hit=reround,
                           stats=stats), requests, capacity, entry)
            reference = _drive(
                ReferenceCampPolicy(precision=precision,
                                    reround_on_hit=reround),
                requests, capacity, entry)
            assert optimized[0] == reference[0]      # outcome sequence
            assert optimized[1] == reference[1]      # eviction sequence
            assert optimized[2] == reference[2]      # final residency
            assert optimized[3].inflation == reference[3].inflation
            assert optimized[3]._seq == reference[3]._seq
            optimized[3].check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(requests=_REQUESTS,
           capacity=st.integers(min_value=200, max_value=8_000))
    def test_stats_accounting_identical_when_enabled(self, requests,
                                                     capacity):
        """With stats on, even the measurement counters must agree."""
        for entry in ENTRY_POINTS:
            optimized = _drive(CampPolicy(precision=5, stats=True),
                               requests, capacity, entry)
            reference = _drive(ReferenceCampPolicy(precision=5),
                               requests, capacity, entry)
            assert optimized[3].stats() == reference[3].stats()

    def test_long_trace_equivalence(self):
        """>= 10k requests, deterministic — the PR's headline pin."""
        rng = random.Random(1729)
        requests = []
        for _ in range(12_000):
            requests.append((rng.randint(0, 500),
                             rng.randint(1, 2_000),
                             rng.choice([1, 100, 10_000,
                                         rng.random() * 250.0])))
        for entry in ENTRY_POINTS:
            for stats in (False, True):
                optimized = _drive(CampPolicy(precision=5, stats=stats),
                                   requests, 60_000, entry)
                reference = _drive(ReferenceCampPolicy(precision=5),
                                   requests, 60_000, entry)
                assert optimized[0] == reference[0]
                assert optimized[1] == reference[1]
                assert optimized[2] == reference[2]
                optimized[3].check_invariants()
            assert len(optimized[1]) > 1_000, "trace must exercise eviction"
