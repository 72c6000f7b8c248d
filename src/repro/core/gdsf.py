"""GDSF — Greedy Dual Size with Frequency (the Squid-cache variant).

``H(p) = L + freq(p) * cost(p)/size(p)``: popular pairs inflate their
priority with each hit, correcting GDS's blindness to frequency.  Included
as a related-work extension (the paper's section 5 situates CAMP among the
GDS family; GDSF is the most widely deployed member).
"""

from __future__ import annotations

from typing import Dict, Union

from repro.core.gds import GdsPolicy
from repro.core.policy import CacheItem
from repro.errors import MissingKeyError

__all__ = ["GdsfPolicy"]

Number = Union[int, float]


class GdsfPolicy(GdsPolicy):
    """GDS with a per-item resident frequency multiplier."""

    name = "gdsf"

    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._freq: Dict[str, int] = {}

    def _ratio(self, item: CacheItem) -> Number:
        base = super()._ratio(item)
        return self._freq.get(item.key, 1) * base

    def on_insert(self, key: str, size: int, cost: Number) -> None:
        self._freq[key] = 1
        super().on_insert(key, size, cost)

    def on_hit(self, key: str) -> None:
        if key not in self._freq:
            raise MissingKeyError(key)
        self._freq[key] += 1
        super().on_hit(key)

    def pop_victim(self, incoming=None) -> str:
        key = super().pop_victim(incoming)
        del self._freq[key]
        return key

    def on_remove(self, key: str) -> None:
        super().on_remove(key)
        del self._freq[key]

    def frequency_of(self, key: str) -> int:
        if key not in self._freq:
            raise MissingKeyError(key)
        return self._freq[key]

    # ------------------------------------------------------------------
    # durable state (snapshot/restore hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """GDS state with each row's resident frequency counter folded in
        as a sixth column: ``[key, size, cost, H, seq, freq]``."""
        state = super().export_state()
        freq = self._freq
        for row in state["entries"]:
            row.append(freq[row[0]])
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        freq = self._freq

        def rows():
            # one pass: a row's counter is kept once GDS has taken it
            for row in state["entries"]:
                yield row
                freq[row[0]] = row[5]

        try:
            super().import_state({**state, "entries": rows()})
        except BaseException:
            freq.clear()
            raise
