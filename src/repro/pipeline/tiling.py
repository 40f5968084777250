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

Listeners (the RE Signature Unit, or nothing for the baseline) receive
``on_draw_state(state)`` before a drawcall's primitives and
``on_primitive(prim, tile_ids)`` per binned primitive — the same events
the paper's hardware taps.
"""

from __future__ import annotations

import dataclasses

from ..config import GpuConfig
from ..engine.stage import Stage
from ..geometry.primitives import Primitive
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
    """Per-tile polygon lists plus the primitives' attribute storage."""

    def __init__(self, num_tiles: int) -> None:
        self.bins: list = [[] for _ in range(num_tiles)]

    def insert(self, prim: Primitive, tile_ids) -> None:
        for tile_id in tile_ids:
            self.bins[tile_id].append(prim)

    def tile_primitives(self, tile_id: int) -> list:
        return self.bins[tile_id]

    def tile_bytes(self, tile_id: int) -> int:
        """Bytes the Tile Scheduler fetches to render this tile."""
        return sum(
            prim.parameter_buffer_bytes() + TILE_POINTER_BYTES
            for prim in self.bins[tile_id]
        )

    def occupied_tiles(self):
        """Tile ids that contain at least one primitive, in raster order."""
        return [i for i, bin_ in enumerate(self.bins) if bin_]

    def clear(self) -> None:
        for bin_ in self.bins:
            bin_.clear()


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

    def overlapped_tiles(self, prim: Primitive) -> list:
        """Tile ids whose area intersects the primitive's bounding box,
        clamped to the screen."""
        x0, y0, x1, y1 = prim.bounds()
        size = self.config.tile_size
        tx0 = max(0, x0 // size)
        ty0 = max(0, y0 // size)
        tx1 = min(self.config.tiles_x - 1, (x1 - 1) // size)
        ty1 = min(self.config.tiles_y - 1, (y1 - 1) // size)
        if tx1 < tx0 or ty1 < ty0:
            return []
        return [
            ty * self.config.tiles_x + tx
            for ty in range(ty0, ty1 + 1)
            for tx in range(tx0, tx1 + 1)
        ]

    def bin_drawcall(self, state, primitives) -> None:
        """Sort one drawcall's primitives into tiles."""
        for listener in self.listeners:
            listener.on_draw_state(state)
        written = []
        for prim in primitives:
            tile_ids = self.overlapped_tiles(prim)
            if not tile_ids:
                continue
            prim.pb_offset = self._pb_cursor
            self._pb_cursor += prim.parameter_buffer_bytes()
            self.parameter_buffer.insert(prim, tile_ids)
            nbytes = (
                prim.parameter_buffer_bytes()
                + TILE_POINTER_BYTES * len(tile_ids)
            )
            written.append(nbytes)
            self.stats.primitives_binned += 1
            self.stats.tile_entries += len(tile_ids)
            self.stats.parameter_bytes_written += nbytes
            for listener in self.listeners:
                listener.on_primitive(prim, tile_ids)
        self.memory.write_parameters(written, self.stats)

    def begin_frame(self, ctx=None) -> None:
        self.parameter_buffer.clear()
        self._pb_cursor = 0
