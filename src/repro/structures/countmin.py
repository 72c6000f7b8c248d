"""Count-min sketch with periodic aging — TinyLFU's frequency estimator.

A fixed-size probabilistic counter array: ``estimate`` never undercounts
(within the aging window) and overcounts with probability bounded by the
sketch geometry.  ``add`` also drives the *reset* mechanism from the
TinyLFU paper: once ``sample_window`` increments have been observed, every
counter is halved, so stale popularity decays and the sketch tracks the
recent request distribution.

Used by :class:`repro.core.admission.TinyLfuAdmission`; exposed here
because it is a generally useful substrate (hot-key detection, cluster
load stats).
"""

from __future__ import annotations

import random
import zlib
from typing import List

from repro.errors import ConfigurationError

__all__ = ["CountMinSketch"]


class CountMinSketch:
    """``depth`` rows of ``width`` 4-bit-spirit counters (ints, capped)."""

    def __init__(self,
                 width: int = 1024,
                 depth: int = 4,
                 sample_window: int = 16_384,
                 max_count: int = 15,
                 seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise ConfigurationError("width and depth must be >= 1")
        if sample_window < 1:
            raise ConfigurationError("sample_window must be >= 1")
        if max_count < 1:
            raise ConfigurationError("max_count must be >= 1")
        self._width = width
        self._depth = depth
        self._window = sample_window
        self._max = max_count
        rng = random.Random(seed)
        # per-row hash mixers (odd multipliers for a multiply-shift hash)
        self._salts: List[int] = [rng.randrange(1, 2 ** 61) | 1
                                  for _ in range(depth)]
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self._additions = 0
        self._resets = 0

    # ------------------------------------------------------------------
    def _indices(self, key: str) -> List[int]:
        # CRC-32, not the built-in hash: that one is salted per process,
        # so the same stream would count (and admit) differently in
        # every process
        base = zlib.crc32(key.encode("utf-8"))
        return [((base * salt) >> 32) % self._width for salt in self._salts]

    def add(self, key: str) -> None:
        """Count one occurrence (conservative update: only minimal rows)."""
        indices = self._indices(key)
        current = min(row[i] for row, i in zip(self._rows, indices))
        if current < self._max:
            for row, i in zip(self._rows, indices):
                if row[i] == current:
                    row[i] += 1
        self._additions += 1
        if self._additions >= self._window:
            self._age()

    def estimate(self, key: str) -> int:
        """Approximate recent frequency of ``key`` (never negative)."""
        indices = self._indices(key)
        return min(row[i] for row, i in zip(self._rows, indices))

    def _age(self) -> None:
        """TinyLFU reset: halve every counter."""
        for row in self._rows:
            for i, value in enumerate(row):
                if value:
                    row[i] = value >> 1
        self._additions = 0
        self._resets += 1

    # ------------------------------------------------------------------
    @property
    def resets(self) -> int:
        return self._resets

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth
