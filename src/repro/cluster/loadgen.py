"""The shared key universe of the cluster drills.

The kill drill, the warm-rejoin check, the chaos drill and their tests
all need to agree on what every key's name, value bytes and CAMP cost
are, so the mapping lives in module functions (:func:`key_name`,
:func:`value_for`, :func:`cost_for`), next to the nearest-rank
:func:`percentile` the chaos drill reports latencies with.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["key_name", "value_for", "cost_for", "percentile"]


def key_name(i: int) -> str:
    return f"k{i}"


def value_for(i: int, size: int) -> bytes:
    """Deterministic value bytes: key-dependent so misreads surface."""
    seed = str(i).encode()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


def cost_for(i: int) -> int:
    """Deterministic non-uniform CAMP cost — the warm-rejoin check
    reads costs back (``gets``) and compares against this."""
    return 1 + (i * 7) % 23


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]
