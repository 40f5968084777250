"""Tiling Engine: the Polygon List Builder and the Parameter Buffer.

The Polygon List Builder (PLB) sorts each assembled primitive into the
screen tiles its bounding box overlaps and stores its attributes in the
Parameter Buffer, a main-memory region written through DRAM.  Binning is
conservative (bounding-box): a primitive may be listed in a tile its
edges never actually cross.  That conservatism is *shared* by the
Signature Unit — it observes exactly the (primitive, tiles) pairs emitted
here — so Rendering Elimination stays correct: a tile's signature covers
a superset of what the rasterizer will consume for that tile, and the
superset is the same function of the frame's geometry every frame.

A drawcall is binned as a whole, with array operations over its
:class:`~repro.geometry.primitives.PrimitiveBatch`.  Listeners (the RE
Signature Unit, or nothing for the baseline) receive
``on_draw_state(state)`` and then one ``on_drawcall(batch, prims,
tiles)`` with every (primitive, tile) pair the drawcall produced: the
events the paper's hardware taps, one drawcall at a time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from ..engine.stage import Stage
from ..geometry.primitives import Primitive, PrimitiveBatch
from ..memory.hierarchy import MemoryHierarchy
# Unused here; bench/layers.py traces these two by this module's path.
from .rasterizer import coverage_mask, covers_rect  # noqa: F401

#: Bytes of the per-tile polygon-list pointer entry written per
#: (primitive, tile) pair.
TILE_POINTER_BYTES = 4


@dataclasses.dataclass
class TilingStats:
    primitives_binned: int = 0
    tile_entries: int = 0          # (primitive, tile) pairs
    parameter_bytes_written: int = 0
    stall_cycles: int = 0


class ParameterBuffer:
    """Per-tile polygon lists plus the primitives' attribute storage.

    Next to each tile's list it keeps each listed primitive's byte range
    in the buffer (offset and size), which the Tile Scheduler fetches.
    """

    def __init__(self, num_tiles: int) -> None:
        self.num_tiles = num_tiles
        self.clear()

    def extend(self, tile_id: int, prims, offsets, sizes) -> None:
        """Append primitives, with their byte ranges, to one tile's list."""
        self.bins[tile_id].extend(prims)
        self.offsets[tile_id].extend(offsets)
        self.sizes[tile_id].extend(sizes)

    def insert(self, prim: Primitive, tile_ids) -> None:
        size = prim.parameter_buffer_bytes()
        for tile_id in tile_ids:
            self.extend(tile_id, (prim,), (prim.pb_offset,), (size,))

    def tile_primitives(self, tile_id: int) -> list:
        return self.bins[tile_id]

    def tile_ranges(self, tile_id: int) -> tuple:
        """The tile's primitives' Parameter-Buffer offsets and sizes."""
        return self.offsets[tile_id], self.sizes[tile_id]

    def tile_bytes(self, tile_id: int) -> int:
        """Bytes the Tile Scheduler fetches to render this tile."""
        return (
            sum(self.sizes[tile_id])
            + TILE_POINTER_BYTES * len(self.bins[tile_id])
        )

    def occupied_tiles(self):
        """Tile ids that contain at least one primitive, in raster order."""
        return [i for i, bin_ in enumerate(self.bins) if bin_]

    def clear(self) -> None:
        # New lists, not cleared ones: the memory log holds the range
        # lists of fetched tiles until it resolves.
        self.bins = [[] for _ in range(self.num_tiles)]
        self.offsets = [[] for _ in range(self.num_tiles)]
        self.sizes = [[] for _ in range(self.num_tiles)]


class PolygonListBuilder(Stage):
    """Bins primitives into tiles and feeds the Parameter Buffer."""

    metrics_group = "tiling"

    def __init__(self, config: GpuConfig, memory: MemoryHierarchy,
                 listeners=()) -> None:
        self.config = config
        self.memory = memory
        self.listeners = list(listeners)
        self.parameter_buffer = ParameterBuffer(config.num_tiles)
        self.stats = TilingStats()
        self._pb_cursor = 0
        self._grid = (config.tile_size, config.tiles_x, config.tiles_y)

    def overlaps(self, batch: PrimitiveBatch) -> tuple:
        """A drawcall's (primitive, tile) pairs, as ``(binned, counts,
        tiles)``: the batch rows of the primitives that overlap a tile,
        how many tiles each overlaps, and the tile ids of all the pairs,
        primitive after primitive.

        A primitive overlaps the tiles whose area meets its bounding box,
        clamped to the screen, listed row-major.
        """
        size, tiles_x, tiles_y = self._grid
        x0, y0, x1, y1 = batch.bounds.T
        tx0 = np.maximum(x0 // size, 0)
        ty0 = np.maximum(y0 // size, 0)
        cols = np.minimum((x1 - 1) // size, tiles_x - 1) - tx0 + 1
        rows = np.minimum((y1 - 1) // size, tiles_y - 1) - ty0 + 1
        binned = np.flatnonzero((cols > 0) & (rows > 0))
        counts = (cols * rows)[binned]
        # Each pair's primitive, and its position among that one's tiles.
        pair = np.repeat(binned, counts)
        within = np.arange(len(pair)) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        width = cols[pair]
        tiles = (ty0[pair] + within // width) * tiles_x + (
            tx0[pair] + within % width
        )
        return binned, counts, tiles

    def bin_drawcall(self, state, batch: PrimitiveBatch) -> None:
        """Sort one drawcall's primitives into tiles.

        Each binned primitive takes the next slot of the Parameter
        Buffer, and each touched tile's list gets its primitives in
        program order in one ``extend``.
        """
        for listener in self.listeners:
            listener.on_draw_state(state)
        binned, counts, tiles = self.overlaps(batch)
        size = batch.parameter_buffer_bytes
        offsets = self._pb_cursor + size * np.arange(len(binned))
        self._pb_cursor += size * len(binned)
        handles = batch.primitives
        binned_prims = [handles[i] for i in binned.tolist()]
        for prim, offset in zip(binned_prims, offsets.tolist()):
            prim.pb_offset = offset

        # Each pair's slot among the binned primitives.  Sorting the
        # pairs stably by tile keeps each tile's run in program order.
        slots = np.repeat(np.arange(len(binned)), counts)
        by_tile = slots[np.argsort(tiles, kind="stable")]
        pair_prims = [binned_prims[slot] for slot in by_tile.tolist()]
        pair_offsets = offsets[by_tile].tolist()
        per_tile = np.bincount(tiles)
        touched = np.flatnonzero(per_tile)
        ends = np.cumsum(per_tile[touched])
        extend = self.parameter_buffer.extend
        for tile_id, start, end in zip(touched.tolist(),
                                       (ends - per_tile[touched]).tolist(),
                                       ends.tolist()):
            extend(tile_id, pair_prims[start:end], pair_offsets[start:end],
                   [size] * (end - start))

        written = size + TILE_POINTER_BYTES * counts
        self.stats.primitives_binned += len(binned)
        self.stats.tile_entries += len(tiles)
        self.stats.parameter_bytes_written += int(written.sum())
        self.memory.write_parameters(written.tolist(), self.stats)
        prims = binned[slots]
        for listener in self.listeners:
            listener.on_drawcall(batch, prims, tiles)

    def begin_frame(self, ctx=None) -> None:
        self.parameter_buffer.clear()
        self._pb_cursor = 0
