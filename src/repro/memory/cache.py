"""Set-associative cache simulation.

Models the on-chip caches of Table I (vertex, texture, tile, L2) with LRU
replacement.  Every cache starts each frame empty (see
:mod:`repro.memory.hierarchy`), so a cache is simulated one whole frame
at a time: :meth:`Cache.access_run` takes the frame's line-address
stream and returns which accesses missed.  The functional pipeline
reduces its per-batch address streams to line granularity (see
:func:`line_addresses`); misses feed the L2, the DRAM model and the
traffic counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import CacheConfig


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0


class Cache:
    """One set-associative LRU cache."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self.line_bytes = config.line_bytes
        self.num_sets = config.num_sets
        self.ways = config.ways

    def access_run(self, line_addrs) -> np.ndarray:
        """Access one frame's line stream, in order, starting from an
        empty cache; returns the boolean miss mask, one entry per access.

        LRU has the stack property: a set holds the ``ways`` most
        recently used distinct lines of that set.  So an access hits iff
        its line was touched before and fewer than ``ways`` distinct
        other lines of its set were touched since.  That is decided for
        the whole stream at once, grouped by set.
        """
        lines = np.asarray(line_addrs, dtype=np.int64)
        count = lines.size
        self.stats.accesses += count
        if count == 0:
            return np.zeros(0, dtype=bool)
        ways = self.ways
        sets = lines % self.num_sets
        if self.num_sets <= 1 << 16:
            sets = sets.astype(np.uint16)  # radix-sortable
        # Group by set, keeping program order within each set.
        by_set = np.argsort(sets, kind="stable")
        grouped = lines[by_set]
        # prev[i]: grouped index of the previous touch of line i, or -1.
        by_line = np.argsort(grouped, kind="stable")
        ordered = grouped[by_line]
        repeat = np.flatnonzero(ordered[1:] == ordered[:-1]) + 1
        prev = np.full(count, -1, dtype=np.int64)
        prev[by_line[repeat]] = by_line[repeat - 1]
        miss = prev < 0
        # Fewer than ``ways`` accesses since the previous touch is a hit
        # whatever they were; only longer windows need their distinct
        # lines counted.  The window (prev[i], i) lies inside one set's
        # group, and a position x in it holds a line new to the window
        # iff prev[x] <= prev[i].
        todo = np.flatnonzero(prev < np.arange(-ways, count - ways))
        todo = todo[prev[todo] >= 0]
        if todo.size:
            last = prev[todo]
            distinct = np.zeros(todo.size, dtype=np.int64)
            offset, width = 1, 2 * ways
            while todo.size:
                window = last[:, None] + np.arange(offset, offset + width)
                inside = window < todo[:, None]
                np.minimum(window, count - 1, out=window)
                new = prev[window] <= last[:, None]
                new &= inside
                distinct += new.sum(axis=1)
                evicted = distinct >= ways
                miss[todo[evicted]] = True
                offset += width
                open_ = ~evicted & (last + offset < todo)
                todo, last, distinct = todo[open_], last[open_], distinct[open_]
                width *= 2
        out = np.empty(count, dtype=bool)
        out[by_set] = miss
        misses = int(np.count_nonzero(out))
        self.stats.misses += misses
        self.stats.hits += count - misses
        return out

    def access_many(self, line_addrs) -> int:
        """:meth:`access_run`, returning only the miss count."""
        return int(np.count_nonzero(self.access_run(line_addrs)))

    def state_dict(self) -> dict:
        """Cumulative stats only: a cache is empty at every frame
        boundary, so it has no contents to carry."""
        return {"stats": dataclasses.asdict(self.stats)}

    def load_state_dict(self, state: dict) -> None:
        # Checkpoints written before the write path was removed also
        # carry a ``writebacks`` count; it feeds nothing, so it is skipped.
        for field in dataclasses.fields(self.stats):
            setattr(self.stats, field.name, int(state["stats"][field.name]))


def line_addresses(byte_addresses: np.ndarray, line_bytes: int) -> np.ndarray:
    """Reduce a byte-address stream to its ordered unique line addresses.

    Repeated accesses to a line are collapsed (they would hit
    trivially); the caller keeps the full access count for energy
    accounting and feeds only this reduced stream through the cache
    model.  Lines keep first-occurrence order, the temporal order the
    cache model needs: the one-segment case of
    :func:`segment_line_addresses`.
    """
    addresses = np.asarray(byte_addresses, dtype=np.int64)
    return segment_line_addresses(
        addresses, np.zeros(addresses.size, dtype=np.int8), line_bytes
    )[0]


def segment_line_addresses(byte_addresses: np.ndarray, segments: np.ndarray,
                           line_bytes: int) -> tuple:
    """Reduce every segment of a byte-address stream to its own ordered
    unique line addresses, each in first-occurrence order.

    ``segments`` labels each address with its segment and never
    decreases along the stream.  Returns ``(lines, labels)``: each
    segment's lines, segment after segment, and the segment label of
    each line.  An access that repeats the line just before it in its
    segment is dropped first; that keeps every first occurrence and
    leaves far fewer accesses to sort.
    """
    lines = np.asarray(byte_addresses, dtype=np.int64) // line_bytes
    segments = np.asarray(segments)
    if lines.size == 0:
        return lines, segments
    fresh = np.empty(lines.size, dtype=bool)
    fresh[0] = True
    np.not_equal(lines[1:], lines[:-1], out=fresh[1:])
    fresh[1:] |= segments[1:] != segments[:-1]
    lines, segments = lines[fresh], segments[fresh]
    # Group equal (segment, line) pairs; each group's first access, the
    # smallest position in it, is the one kept.
    order = np.lexsort((lines, segments))
    grouped_lines, grouped_segments = lines[order], segments[order]
    starts = np.flatnonzero(np.concatenate((
        [True],
        (grouped_lines[1:] != grouped_lines[:-1])
        | (grouped_segments[1:] != grouped_segments[:-1]),
    )))
    first = np.sort(np.minimum.reduceat(order, starts))
    return lines[first], segments[first]
