"""Eviction policies: CAMP, and the baselines its figures compare it with.

The paper's comparisons need LRU, GDS (and its size-blind ancestor,
Greedy Dual) and Pooled LRU; the ablations add GDSF, GD-Wheel and the
clairvoyant Belady/offline-greedy.
The registry (:func:`~repro.core.policy.make_policy`) builds policies by
name with the store capacity, which Pooled LRU needs for its budgets:

>>> from repro.core import make_policy
>>> camp = make_policy("camp", capacity=1 << 20, precision=5)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.admission import (
    AdmissionController,
    AlwaysAdmit,
    ProbabilisticAdmission,
    SecondHitAdmission,
    TinyLfuAdmission,
)
from repro.core.camp import CampPolicy
from repro.core.concurrent import ShardedCampPolicy, ThreadSafePolicy
from repro.core.gd_wheel import GdWheelPolicy
from repro.core.gds import GdsPolicy
from repro.core.gdsf import GdsfPolicy
from repro.core.greedy_dual import GreedyDualPolicy
from repro.core.lru import LruPolicy
from repro.core.opt import BeladyPolicy, OfflineGreedyPolicy, next_use_schedule
from repro.core.policy import (
    CacheItem,
    EvictionPolicy,
    Resident,
    make_policy,
    policy_names,
    register_policy,
)
from repro.core.pooled_lru import (
    PooledLruPolicy,
    PoolSpec,
    cost_proportional_fractions,
    pools_from_cost_ranges,
    pools_from_cost_values,
)
from repro.core.rounding import (
    RatioConverter,
    distinct_value_bound,
    epsilon_for_precision,
    precision_for_epsilon,
    regular_rounding,
    round_to_precision,
)

__all__ = [
    "CacheItem",
    "EvictionPolicy",
    "Resident",
    "register_policy",
    "make_policy",
    "policy_names",
    "CampPolicy",
    "GdsPolicy",
    "GreedyDualPolicy",
    "GdsfPolicy",
    "GdWheelPolicy",
    "LruPolicy",
    "PooledLruPolicy",
    "PoolSpec",
    "pools_from_cost_values",
    "pools_from_cost_ranges",
    "cost_proportional_fractions",
    "BeladyPolicy",
    "OfflineGreedyPolicy",
    "next_use_schedule",
    "ThreadSafePolicy",
    "ShardedCampPolicy",
    "AdmissionController",
    "AlwaysAdmit",
    "ProbabilisticAdmission",
    "SecondHitAdmission",
    "TinyLfuAdmission",
    "RatioConverter",
    "round_to_precision",
    "regular_rounding",
    "epsilon_for_precision",
    "precision_for_epsilon",
    "distinct_value_bound",
]


# ----------------------------------------------------------------------
# registry population — factories take (capacity, **kwargs)
# ----------------------------------------------------------------------
def _default_pools(capacity: int,
                   pools: Optional[Sequence[PoolSpec]] = None,
                   **kwargs: object) -> PooledLruPolicy:
    if pools is None:
        # the paper's section 3.2 default: ranges [1,100), [100,10K),
        # [10K,∞) with budgets proportional to each range's lowest cost
        pools = pools_from_cost_ranges(
            [(0, 100), (100, 10_000), (10_000, float("inf"))])
    return PooledLruPolicy(capacity, pools)


register_policy("camp", lambda capacity, **kw: CampPolicy(**kw))
register_policy("gds", lambda capacity, **kw: GdsPolicy(**kw))
register_policy("greedy-dual", lambda capacity, **kw: GreedyDualPolicy(**kw))
register_policy("gdsf", lambda capacity, **kw: GdsfPolicy(**kw))
register_policy("gd-wheel", lambda capacity, **kw: GdWheelPolicy(**kw))
register_policy("lru", lambda capacity, **kw: LruPolicy(**kw))
register_policy("pooled-lru", _default_pools)
register_policy("camp-sharded", lambda capacity, **kw: ShardedCampPolicy(**kw))
# Belady / offline-greedy need the whole trace in advance, so they are not
# registered; build them with BeladyPolicy.from_trace(trace).
