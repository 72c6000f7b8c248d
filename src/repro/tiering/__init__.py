"""``repro.tiering`` — a DRAM-over-disk victim tier that holds real values.

The paper's section 6 names a hierarchical cache ("using SSD, hard disk,
or both") as CAMP's natural extension; this package implements it:

* :class:`~repro.tiering.disk_tier.DiskTier` — an append-only on-disk
  store of demoted values: segment files reusing the CRC-framed record
  format from :mod:`repro.persistence.format`, an in-memory
  key→(segment, offset) index, segment-granularity garbage collection,
  and a crash-recovery scan that rebuilds the index from healthy frames.
* :mod:`~repro.tiering.filter` — demotion filters in TierBase's
  cost-optimization spirit: demote only when an item's recompute cost
  per byte beats a threshold, so cheap-to-recompute values are dropped
  rather than paid for twice (once in write bandwidth, once in space).
* :class:`~repro.tiering.backend.TieredBackend` — the production face: a
  Store backend stacking a DRAM :class:`~repro.cache.kvs.KVS` (L1) over
  a DiskTier (L2).  L1 evictions pass the demotion filter before being
  written to disk; misses probe the disk tier before any loader; L2 hits
  promote back to DRAM and surface as the structured outcomes
  ``Outcome.HIT_L2`` / ``Outcome.MISS_PROMOTED`` with discounted charged
  costs.

Build one with :meth:`repro.cache.store.StoreConfig.tiered`.
"""

from repro.tiering.backend import TieredBackend
from repro.tiering.disk_tier import DiskTier, SEGMENT_MAGIC, TierRecord
from repro.tiering.filter import (AlwaysDemote, CostDensityFilter,
                                  DemotionFilter, NeverDemote)

__all__ = [
    "DiskTier",
    "TierRecord",
    "SEGMENT_MAGIC",
    "TieredBackend",
    "DemotionFilter",
    "CostDensityFilter",
    "AlwaysDemote",
    "NeverDemote",
]
