"""Tile Scheduler + Raster Pipeline: render tiles one at a time.

For each tile the scheduler fetches the tile's primitive data from the
Parameter Buffer (through the Tile Cache and L2 — a primitive binned to
many tiles is re-fetched per tile, and the 128-KB Tile Cache is what
makes those re-fetches cheap), then runs the classic raster sequence:
rasterize, early-Z, fragment shade, blend, and finally flush the on-chip
Color Buffer to the Frame Buffer in DRAM.

Technique hooks:

* ``should_skip_tile(tile_id)`` — consulted *before* any raster work;
  Rendering Elimination answers True for redundant tiles, which bypasses
  the entire sequence including the flush (Fig. 3).
* ``should_flush_tile(tile_id, colors)`` — consulted after rendering;
  Transaction Elimination answers False for tiles whose color signature
  matched, saving only the flush traffic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from ..engine.stage import Stage
from ..memory.hierarchy import MemoryHierarchy
from .blending import BlendStage
from .depth import DepthStage
from .fragment_stage import FragmentStage
from .framebuffer import FrameBuffer, TileBuffers
from .rasterizer import RasterMemo, TiledRaster, rasterize
from .tiling import TILE_POINTER_BYTES, ParameterBuffer


class TileMemo:
    """Cross-frame memo of whole-tile render results, keyed by content.

    A tile's colors and every activity counter it produces are a pure
    function of its primitive list (screen positions, depths, attributes,
    bound state), the tile rect and the clear color.  Frame-coherent
    workloads re-render identical tiles every frame; on a hit the memo
    re-applies the recorded stat deltas and appends the recorded texel
    line streams to the frame's memory log, so cache behaviour, DRAM
    pressure and all counters evolve exactly as a recomputation.  Purely
    an execution-speed cache — the scalar reference path never uses it —
    bounded by retained colors + replay lines with LRU eviction.

    Entries pin their shader objects: shader ``id`` participates in the
    key, so the ids must stay unrecycled while an entry lives.
    """

    def __init__(self, element_budget: int = 24_000_000) -> None:
        self.element_budget = element_budget
        self._entries: dict = {}
        self._retained = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            # Re-insert to mark as most recently used.
            del self._entries[key]
            self._entries[key] = entry
        else:
            self.misses += 1
        return entry

    def put(self, key: tuple, entry: tuple, cost: int) -> None:
        entries = self._entries
        entries[key] = entry + (cost,)
        self._retained += cost
        while self._retained > self.element_budget and len(entries) > 1:
            evicted = entries.pop(next(iter(entries)))
            self._retained -= evicted[-1]


#: Process-wide tile memo: keys are content-stable (tile rect included),
#: so hits are exact across independent Gpu instances.
_SHARED_TILE_MEMO = TileMemo()


def shared_tile_memo() -> TileMemo:
    """The process-wide :class:`TileMemo` used by batched-mode GPUs."""
    return _SHARED_TILE_MEMO


@dataclasses.dataclass
class RasterStats:
    tiles_scheduled: int = 0
    tiles_rendered: int = 0
    tiles_skipped: int = 0        # bypassed whole pipeline (RE)
    flushes_suppressed: int = 0   # rendered but not written back (TE)
    fragments_rasterized: int = 0
    interp_attr_fragments: int = 0   # fragments x attributes interpolated
    prim_tile_pairs: int = 0
    pb_bytes_fetched: int = 0
    flush_bytes: int = 0
    stall_cycles: int = 0


class RasterPipeline(Stage):
    """Renders a frame's tiles from a filled Parameter Buffer."""

    metrics_group = "raster"

    def __init__(self, config: GpuConfig, memory: MemoryHierarchy,
                 framebuffer: FrameBuffer, fragment_stage: FragmentStage,
                 batched: bool = True, raster_memo: RasterMemo = None,
                 tile_memo: TileMemo = None) -> None:
        self.config = config
        self.memory = memory
        self.framebuffer = framebuffer
        self.fragment_stage = fragment_stage
        self.depth_stage = DepthStage()
        self.blend_stage = BlendStage()
        self.buffers = TileBuffers(config.tile_size)
        self.stats = RasterStats()
        # Batched mode rasterizes each primitive once for the whole
        # screen and slices per tile (bit-identical to per-tile calls;
        # see rasterizer.TiledRaster).  The scalar path remains the
        # reference semantics and never touches the memo.
        self.batched = batched
        self._memo = raster_memo
        self._tile_memo = tile_memo
        self._screen_rect = (0, 0, config.screen_width, config.screen_height)
        self._tiles_x = config.tiles_x
        self._frame_rasters: dict = {}
        self._state_keys: dict = {}

    def register_metrics(self, registry) -> None:
        """Register raster counters plus the owned depth/blend stages."""
        super().register_metrics(registry)
        self.depth_stage.register_metrics(registry)
        self.blend_stage.register_metrics(registry)

    def reset(self) -> None:
        """Counter reset cascades to the owned depth/blend stages, the
        same ownership :meth:`register_metrics` declares."""
        super().reset()
        self.depth_stage.reset()
        self.blend_stage.reset()

    def begin_frame(self, ctx=None) -> None:
        """Drop the per-frame ``id()``-keyed memo dicts.  Fresh dicts,
        not ``.clear()``: entries are keyed by primitive/state object
        identity, and ids can be recycled once a frame's objects die."""
        self._frame_rasters = {}
        self._state_keys = {}
        self.depth_stage.begin_frame(ctx)
        self.blend_stage.begin_frame(ctx)

    def _tile_fragments(self, prim, tile_id: int):
        """Batched-path fragments of ``prim`` inside ``tile_id``."""
        tiled = self._frame_rasters.get(id(prim))
        if tiled is None:
            if self._memo is not None:
                tiled = self._memo.get(prim, self._screen_rect)
            else:
                tiled = TiledRaster(
                    rasterize(prim, self._screen_rect),
                    self.config.tile_size, self._tiles_x,
                )
            self._frame_rasters[id(prim)] = tiled
        return tiled.tile(prim, tile_id)

    def _fetch_tile_primitives(self, tile_id: int,
                               parameter_buffer: ParameterBuffer) -> list:
        """Simulate Parameter-Buffer reads for one tile's polygon list."""
        prims = parameter_buffer.tile_primitives(tile_id)
        sizes = [prim.parameter_buffer_bytes() for prim in prims]
        self.memory.fetch_parameters(
            [prim.pb_offset for prim in prims], sizes, self.stats
        )
        self.stats.pb_bytes_fetched += (
            sum(sizes) + TILE_POINTER_BYTES * len(prims)
        )
        return prims

    def _state_key(self, state) -> tuple:
        """Content key of a DrawState's shading-relevant bindings, cached
        per state instance for the pipeline's lifetime (one frame)."""
        key = self._state_keys.get(id(state))
        if key is None:
            key = (
                id(state.shader),
                tuple(
                    t.content_token if t is not None else None
                    for t in state.textures
                ),
                state.constants_bytes(),
                state.depth_test,
                state.depth_write,
            )
            self._state_keys[id(state)] = key
        return key

    def _tile_key(self, prims: list, rect: tuple, clear_color) -> tuple:
        parts = [rect, np.asarray(clear_color, dtype=np.float32).tobytes()]
        for prim in prims:
            parts.append(prim.screen.tobytes() + prim.depth.tobytes())
            parts.append(prim.attribute_bytes())
            parts.append(self._state_key(prim.state))
        return tuple(parts)

    #: Counter fields snapshotted around a tile render; the delta is what
    #: a TileMemo hit re-applies.  Texture cache accesses and texture
    #: stall cycles are excluded — those come from appending the recorded
    #: line streams to the memory log.
    def _stats_snapshot(self) -> tuple:
        rs, ds = self.stats, self.depth_stage.stats
        fs, bs = self.fragment_stage.stats, self.blend_stage.stats
        return (
            rs.prim_tile_pairs, rs.fragments_rasterized,
            rs.interp_attr_fragments,
            ds.fragments_tested, ds.fragments_passed, ds.fragments_culled,
            fs.fragments_shaded, fs.fragments_memoized,
            fs.shader_instructions, fs.texture_fetches,
            bs.fragments_blended, bs.alpha_blends,
        )

    def _apply_stats_delta(self, delta: tuple) -> None:
        rs, ds = self.stats, self.depth_stage.stats
        fs, bs = self.fragment_stage.stats, self.blend_stage.stats
        rs.prim_tile_pairs += delta[0]
        rs.fragments_rasterized += delta[1]
        rs.interp_attr_fragments += delta[2]
        ds.fragments_tested += delta[3]
        ds.fragments_passed += delta[4]
        ds.fragments_culled += delta[5]
        fs.fragments_shaded += delta[6]
        fs.fragments_memoized += delta[7]
        fs.shader_instructions += delta[8]
        fs.texture_fetches += delta[9]
        bs.fragments_blended += delta[10]
        bs.alpha_blends += delta[11]

    def render_tile(self, tile_id: int, parameter_buffer: ParameterBuffer,
                    clear_color) -> np.ndarray:
        """Render one tile; returns its final on-chip colors (h, w, 4)."""
        rect = self.framebuffer.tile_rect(tile_id)
        prims = self._fetch_tile_primitives(tile_id, parameter_buffer)
        x0, y0, x1, y1 = rect

        # Whole-tile memo (batched mode only; disabled whenever a
        # stateful memo filter must observe every batch).
        memo = (
            self._tile_memo
            if self.batched and self.fragment_stage.memo_filter is None
            else None
        )
        key = None
        if memo is not None:
            key = self._tile_key(prims, rect, clear_color)
            entry = memo.get(key)
            if entry is not None:
                colors, delta, traffic, _pins, _cost = entry
                self._apply_stats_delta(delta)
                fetch = self.fragment_stage.fetch_texels
                for raw_count, lines in traffic:
                    fetch(raw_count, lines)
                self.stats.tiles_rendered += 1
                return colors
            self.fragment_stage.traffic_log = []

        self.buffers.clear(color=clear_color)
        snapshot = self._stats_snapshot() if memo is not None else None

        batched = self.batched
        for prim in prims:
            self.stats.prim_tile_pairs += 1
            if batched:
                batch = self._tile_fragments(prim, tile_id)
            else:
                batch = rasterize(prim, rect)
            if batch.count == 0:
                continue
            self.stats.fragments_rasterized += batch.count
            self.stats.interp_attr_fragments += (
                batch.count * prim.num_attributes
            )
            local_xs = batch.xs - x0
            local_ys = batch.ys - y0
            pass_mask = self.depth_stage.test(
                self.buffers.depth, local_xs, local_ys, batch.depth,
                depth_test=prim.state.depth_test,
                depth_write=prim.state.depth_write,
            )
            if not pass_mask.any():
                continue
            colors = self.fragment_stage.shade(batch, pass_mask)
            self.blend_stage.blend(
                self.buffers.color,
                local_xs[pass_mask], local_ys[pass_mask], colors,
                alpha=prim.state.shader.uses_alpha_blend,
            )
        self.stats.tiles_rendered += 1
        colors = self.buffers.color[: y1 - y0, : x1 - x0]
        if memo is not None:
            after = self._stats_snapshot()
            delta = tuple(b - a for a, b in zip(snapshot, after))
            traffic = tuple(self.fragment_stage.traffic_log)
            self.fragment_stage.traffic_log = None
            colors = colors.copy()
            pins = tuple({id(p.state.shader): p.state.shader
                          for p in prims}.values())
            cost = colors.size + sum(len(lines) for _, lines in traffic)
            memo.put(key, (colors, delta, traffic, pins), cost)
        return colors

    def flush_tile(self, tile_id: int, tile_colors: np.ndarray) -> None:
        nbytes = self.framebuffer.write_tile(tile_id, tile_colors)
        self.stats.flush_bytes += nbytes
        self.memory.write_colors(nbytes, self.stats)
