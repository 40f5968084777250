"""The one budgeted LRU store behind the host memos.

A batched GPU keeps three process-wide, content-keyed memos: the
geometry memo (:mod:`repro.pipeline.gpu`), the raster memo
(:mod:`repro.pipeline.rasterizer`) and the tile memo
(:mod:`repro.pipeline.tile_scheduler`).  Each is a :class:`MemoStore`:
entries carry a cost, and a ``put`` that takes the retained cost over
the budget evicts least recently used entries until it fits again.
The newest entry always stays, so a budget smaller than one entry
evicts on every ``put`` but still serves the entry just stored.

The memos are execution-speed caches only: a hit replays exactly what a
miss computes, so neither a hit nor an eviction changes simulated state.
"""

from __future__ import annotations


class MemoStore:
    """A budgeted LRU map with hit, miss and eviction counters."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._entries: dict = {}
        self.retained = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value stored under ``key``, now the most recently used,
        or ``None``."""
        entries = self._entries
        item = entries.pop(key, None)
        if item is None:
            self.misses += 1
            return None
        entries[key] = item
        self.hits += 1
        return item[0]

    def put(self, key, value, cost: int) -> None:
        """Store ``value`` under ``key`` at ``cost``, then evict the
        least recently used entries while over budget."""
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self.retained -= old[1]
        entries[key] = (value, cost)
        self.retained += cost
        while self.retained > self.budget and len(entries) > 1:
            _, evicted_cost = entries.pop(next(iter(entries)))
            self.retained -= evicted_cost
            self.evictions += 1
