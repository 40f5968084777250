"""The memory hierarchy of Table I, resolved one frame at a time.

Four stages touch memory: the vertex fetcher, the Polygon List Builder
(Parameter-Buffer writes), the Tile Scheduler (Parameter-Buffer reads and
Color-Buffer flushes) and the fragment processors (texel fetches).  They
append their accesses, in program order, to this module's frame log, and
:meth:`MemoryHierarchy.resolve` runs the whole log through the caches and
DRAM once per frame.  Only this module knows the topology:

==================  =================================================  ==========
entry               path                                               stream
==================  =================================================  ==========
vertex fetch        vertex cache -> one DRAM read of all its misses    vertices
PB write            one DRAM write per primitive                       parameter_write
PB fetch            tile cache -> L2 -> one DRAM read per L2 miss      primitives
texel fetch         texture cache -> L2 -> one DRAM read per L2 miss   texels
color flush         one DRAM write                                     colors
==================  =================================================  ==========

Each entry's stall cycles are charged to the stats object its producer
passed.  Resolving a frame at once is exact, not an approximation: every
cache starts the frame empty, so its misses depend only on the frame's
line stream in order, and the L2 sees the tile- and texture-cache misses
merged in log order; DRAM charges every transaction in log order.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..config import GpuConfig
from .cache import Cache, line_addresses
from .dram import Dram
from .traffic import ALL_STREAMS, TrafficCounters

#: Log entry kinds.
VERTEX, PB_WRITE, PB_FETCH, TEXEL, FLUSH = range(5)

#: Per kind: the DRAM traffic stream, as an index into ALL_STREAMS.
_STREAM = np.array([
    ALL_STREAMS.index(name) for name in
    ("vertices", "parameter_write", "primitives", "texels", "colors")
])

#: Per kind: whether its DRAM transactions are writes.
_WRITE = np.array([False, True, False, False, True])

#: Parameter-Buffer lines live in their own L2 address region.
PB_L2_OFFSET = 1 << 40


class MemoryHierarchy:
    """The vertex, texture, tile and L2 caches, DRAM, and the frame log."""

    def __init__(self, config: GpuConfig) -> None:
        self.traffic = TrafficCounters()
        self.dram = Dram(config, self.traffic)
        self.caches = {
            "vertex": Cache(config.vertex_cache),
            "texture": Cache(config.texture_cache),
            "tile": Cache(config.tile_cache),
            "l2": Cache(config.l2_cache),
        }
        self.clear()

    def clear(self) -> None:
        """Drop every access logged since the last :meth:`resolve`."""
        self._kinds = []
        self._payers = {}
        self._vertex_lines = []
        self._pb_writes = []
        self._pb_ranges = []
        self._texel_lines = []
        self._flushes = []

    # --- Producers: append one entry each, in program order -------------
    def fetch_vertices(self, addresses: np.ndarray, stats) -> None:
        """A drawcall's vertex reads, as byte addresses in fetch order."""
        self._kinds.append(VERTEX)
        self._payers[VERTEX] = stats
        self._vertex_lines.append(
            line_addresses(addresses, self.caches["vertex"].line_bytes)
        )

    def write_parameters(self, sizes: list, stats) -> None:
        """One Parameter-Buffer write per primitive, of these sizes."""
        self._kinds.append(PB_WRITE)
        self._payers[PB_WRITE] = stats
        self._pb_writes.append(sizes)

    def fetch_parameters(self, offsets: list, sizes: list, stats) -> None:
        """A tile's polygon-list reads: one byte range per primitive."""
        self._kinds.append(PB_FETCH)
        self._payers[PB_FETCH] = stats
        self._pb_ranges.append((offsets, sizes))

    def texel_lines(self, addresses: np.ndarray) -> np.ndarray:
        """Texel byte addresses as the texture cache's line stream."""
        return line_addresses(addresses, self.caches["texture"].line_bytes)

    def fetch_texels(self, lines: np.ndarray, stats) -> None:
        """A batch's texel reads, as a :meth:`texel_lines` stream."""
        self._kinds.append(TEXEL)
        self._payers[TEXEL] = stats
        self._texel_lines.append(lines)

    def write_colors(self, nbytes: int, stats) -> None:
        """One Color-Buffer flush of ``nbytes``."""
        self._kinds.append(FLUSH)
        self._payers[FLUSH] = stats
        self._flushes.append(nbytes)

    # --- Resolution -------------------------------------------------------
    def resolve(self) -> None:
        """Run the logged accesses through caches and DRAM, charge each
        entry's stall cycles to its payer, and empty the log."""
        kinds = np.asarray(self._kinds, dtype=np.int64)
        entries = {kind: np.flatnonzero(kinds == kind) for kind in range(5)}
        caches = self.caches
        # DRAM transactions as (kind, log positions, bytes) triples.
        txn = []

        lines, owner = _line_stream(self._vertex_lines, entries[VERTEX])
        missed = caches["vertex"].access_run(lines)
        per_entry = np.bincount(owner[missed],
                                minlength=kinds.size)[entries[VERTEX]]
        txn.append((VERTEX, entries[VERTEX],
                    per_entry * caches["vertex"].line_bytes))

        txn.append((PB_WRITE,
                    np.repeat(entries[PB_WRITE],
                              [len(s) for s in self._pb_writes]),
                    _flatten(self._pb_writes)))

        # L2 traffic: tile-cache misses (in their own address region)
        # and texture-cache misses, merged in log order.
        pb_lines, pb_owner = _pb_line_stream(
            self._pb_ranges, entries[PB_FETCH], caches["tile"].line_bytes
        )
        pb_missed = caches["tile"].access_run(pb_lines)
        tex_lines, tex_owner = _line_stream(self._texel_lines,
                                            entries[TEXEL])
        tex_missed = caches["texture"].access_run(tex_lines)
        owner = np.concatenate([pb_owner[pb_missed], tex_owner[tex_missed]])
        from_pb = np.zeros(owner.size, dtype=bool)
        from_pb[:np.count_nonzero(pb_missed)] = True
        order = np.argsort(owner, kind="stable")
        owner, from_pb = owner[order], from_pb[order]
        l2_lines = np.concatenate([pb_lines[pb_missed] + PB_L2_OFFSET,
                                   tex_lines[tex_missed]])[order]
        l2_missed = caches["l2"].access_run(l2_lines)
        for kind, source, line_bytes in (
                (PB_FETCH, from_pb, caches["tile"].line_bytes),
                (TEXEL, ~from_pb, caches["l2"].line_bytes)):
            reads = owner[l2_missed & source]
            txn.append((kind, reads,
                        np.full(reads.size, line_bytes, dtype=np.int64)))

        txn.append((FLUSH, entries[FLUSH],
                    np.asarray(self._flushes, dtype=np.int64)))

        positions = np.concatenate([pos for _, pos, _ in txn])
        order = np.argsort(positions, kind="stable")
        kind_of = np.repeat([kind for kind, pos, _ in txn],
                            [pos.size for _, pos, _ in txn])[order]
        stalls = self.dram.charge(
            np.concatenate([nbytes for _, _, nbytes in txn])[order],
            _WRITE[kind_of], _STREAM[kind_of],
        )
        for kind, payer in self._payers.items():
            payer.stall_cycles += int(stalls[kind_of == kind].sum())
        self.clear()

    # --- Metrics and checkpoints -----------------------------------------
    def register_metrics(self, registry) -> None:
        """``traffic.<stream>`` bytes and ``cache.<name>.accesses`` /
        ``.misses`` counters."""
        for stream in ALL_STREAMS:
            registry.register(
                f"traffic.{stream}",
                (lambda counters=self.traffic, s=stream: counters.bytes(s)),
            )
        for name, cache in self.caches.items():
            registry.register(
                f"cache.{name}.accesses",
                (lambda stats=cache.stats: stats.accesses),
            )
            registry.register(
                f"cache.{name}.misses",
                (lambda stats=cache.stats: stats.misses),
            )

    def state_dict(self) -> dict:
        """DRAM pressure and totals, traffic and cache totals.  The log
        is empty between frames, and caches have no contents then."""
        return {
            "dram": self.dram.state_dict(),
            "traffic": self.traffic.state_dict(),
            "caches": {
                name: cache.state_dict()
                for name, cache in self.caches.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self.clear()
        self.dram.load_state_dict(state["dram"])
        self.traffic.load_state_dict(state["traffic"])
        for name, cache in self.caches.items():
            cache.load_state_dict(state["caches"][name])


def _concat(arrays: list) -> np.ndarray:
    if not arrays:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(arrays)


def _flatten(lists) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64)


def _line_stream(chunks: list, positions: np.ndarray) -> tuple:
    """Concatenated line stream, and each line's entry log position."""
    lengths = [chunk.size for chunk in chunks]
    return _concat(chunks), np.repeat(positions, lengths)


def _pb_line_stream(ranges: list, positions: np.ndarray,
                    line_bytes: int) -> tuple:
    """Every line of every primitive's byte range, in fetch order, and
    each line's entry log position."""
    offsets = _flatten(o for o, _ in ranges)
    sizes = _flatten(s for _, s in ranges)
    owner = np.repeat(positions, [len(o) for o, _ in ranges])
    first = offsets // line_bytes
    count = (offsets + sizes - 1) // line_bytes - first + 1
    skip = np.cumsum(count) - count  # lines before each range
    lines = np.repeat(first - skip, count) + np.arange(int(count.sum()))
    return lines, np.repeat(owner, count)
