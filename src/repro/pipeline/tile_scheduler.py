"""Tile Scheduler + Raster Pipeline: render a frame's tiles.

For each tile the scheduler fetches the tile's primitive data from the
Parameter Buffer (through the Tile Cache and L2 — a primitive binned to
many tiles is re-fetched per tile, and the 128-KB Tile Cache is what
makes those re-fetches cheap), then runs the classic raster sequence:
rasterize, early-Z, fragment shade, blend, and finally flush the on-chip
Color Buffer to the Frame Buffer in DRAM.

A tile's primitives are rows of the drawcall batches the Parameter
Buffer lists for it, one run ``(batch, rows)`` per drawcall in program
order.  The host simulates the raster sequence in one of two ways, with
identical colors, counters and memory traffic:

* :meth:`RasterPipeline.render_tile` renders one tile on its own, one
  (primitive, tile) batch at a time, rasterizing each row against the
  tile rect.  It is the reference, and the path of
  ``Gpu(batched=False)`` and of a technique that installs a fragment
  memo filter, which must observe every such batch.
* :meth:`RasterPipeline.render_drawcalls` renders all of a frame's
  rendered tiles together, one drawcall at a time over screen-sized
  buffers; :meth:`RasterPipeline.render_tile` then issues each tile's
  memory traffic in tile order, as the hardware would.

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
from .framebuffer import DEFAULT_CLEAR_DEPTH, FrameBuffer, TileBuffers
from .memo import MemoStore
from .rasterizer import RasterMemo, rasterize
from .tiling import ParameterBuffer


#: The tile memo's budget, in retained color elements plus replayed
#: texel lines.
TILE_MEMO_BUDGET = 24_000_000

#: Process-wide tile memo: keys are content-stable (tile rect included),
#: so hits are exact across independent Gpu instances.
_SHARED_TILE_MEMO = MemoStore(TILE_MEMO_BUDGET)


def shared_tile_memo() -> MemoStore:
    """The process-wide tile memo used by batched-mode GPUs (see
    :meth:`RasterPipeline.render_drawcalls`)."""
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
                 raster_memo: RasterMemo = None,
                 tile_memo: MemoStore = None) -> None:
        self.config = config
        self.memory = memory
        self.framebuffer = framebuffer
        self.fragment_stage = fragment_stage
        self.depth_stage = DepthStage()
        self.blend_stage = BlendStage()
        self.buffers = TileBuffers(config.tile_size)
        self.stats = RasterStats()
        # The per-drawcall path, which needs both memos, rasterizes each
        # drawcall once for the whole screen (bit-identical to per-tile
        # calls; see rasterizer.DrawcallRaster).  render_tile rasterizes
        # per tile and never touches either memo.
        self._memo = raster_memo
        self._tile_memo = tile_memo
        # Screen-sized color, depth and pixel-stamp scratch of the
        # per-drawcall path, allocated on its first frame.
        self._screen = None
        self.begin_frame()

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
        """Drop the tiles the last :meth:`render_drawcalls` left
        unemitted."""
        self._pending = {}
        self.depth_stage.begin_frame(ctx)
        self.blend_stage.begin_frame(ctx)

    def _fetch_tile_runs(self, tile_id: int,
                         parameter_buffer: ParameterBuffer) -> list:
        """Simulate Parameter-Buffer reads for one tile's polygon list."""
        offsets, sizes = parameter_buffer.tile_ranges(tile_id)
        self.memory.fetch_parameters(offsets, sizes, self.stats)
        self.stats.pb_bytes_fetched += parameter_buffer.tile_bytes(tile_id)
        return parameter_buffer.runs[tile_id]

    def _apply_stats_delta(self, delta: tuple) -> None:
        """Re-apply a tile memo entry's counter delta, laid out as
        :data:`TILE_DELTA_KEYS`.  Texture cache accesses and texture
        stall cycles are not in it: those come from replaying its texel
        lines."""
        rs, ds = self.stats, self.depth_stage.stats
        fs, bs = self.fragment_stage.stats, self.blend_stage.stats
        rs.prim_tile_pairs += delta[0]
        rs.fragments_rasterized += delta[1]
        rs.interp_attr_fragments += delta[2]
        ds.fragments_tested += delta[3]
        ds.fragments_passed += delta[4]
        ds.fragments_culled += delta[5]
        fs.fragments_shaded += delta[6]
        fs.shader_instructions += delta[7]
        fs.texture_fetches += delta[8]
        bs.fragments_blended += delta[9]
        bs.alpha_blends += delta[10]

    # ------------------------------------------------------------------
    # Tile by tile: the reference path, and the issue of rendered tiles
    # ------------------------------------------------------------------
    def render_tile(self, tile_id: int, parameter_buffer: ParameterBuffer,
                    clear_color) -> np.ndarray:
        """Render one tile; returns its final on-chip colors (h, w, 4).

        A tile that :meth:`render_drawcalls` rendered this frame is only
        issued here (see :meth:`_emit_tile`).  Any other tile is rendered
        on its own, one (primitive, tile) batch at a time: the reference
        path.
        """
        if tile_id in self._pending:
            return self._emit_tile(tile_id, parameter_buffer)
        rect = self.framebuffer.tile_rect(tile_id)
        runs = self._fetch_tile_runs(tile_id, parameter_buffer)
        x0, y0, x1, y1 = rect
        self.buffers.clear(color=clear_color)
        fragment_stage = self.fragment_stage
        for batch, rows in runs:
            state = batch.state
            for row in rows.tolist():
                self.stats.prim_tile_pairs += 1
                frags = rasterize(batch.screen[row], batch.depth[row], rect)
                if frags.count == 0:
                    continue
                self.stats.fragments_rasterized += frags.count
                self.stats.interp_attr_fragments += (
                    frags.count * batch.num_attributes
                )
                local_xs = frags.xs - x0
                local_ys = frags.ys - y0
                pass_mask = self.depth_stage.test(
                    self.buffers.depth, local_xs, local_ys, frags.depth,
                    depth_test=state.depth_test,
                    depth_write=state.depth_write,
                )
                passed = int(np.count_nonzero(pass_mask))
                if not passed:
                    continue
                colors, texels = fragment_stage.shade(
                    state,
                    {name: values[row:row + 1]
                     for name, values in batch.varyings.items()},
                    (passed,), frags.xs[pass_mask], frags.ys[pass_mask],
                    frags.bary[pass_mask],
                )
                if texels.size:
                    fragment_stage.fetch_texels(
                        texels.size, self.memory.texel_lines(texels)
                    )
                self.blend_stage.blend(
                    self.buffers.color,
                    local_xs[pass_mask], local_ys[pass_mask], colors,
                    alpha=state.shader.uses_alpha_blend,
                )
        self.stats.tiles_rendered += 1
        return self.buffers.color[: y1 - y0, : x1 - x0]

    # ------------------------------------------------------------------
    # Per-drawcall path
    # ------------------------------------------------------------------
    def render_drawcalls(self, tile_ids: list,
                         parameter_buffer: ParameterBuffer,
                         clear_color) -> None:
        """Render the tiles ``tile_ids`` one drawcall at a time, for
        :meth:`render_tile` to hand out in tile order.

        Each tile is first looked up in the tile memo.  A tile's colors
        and every activity counter it produces are a pure function of
        its primitive list (screen positions, depths, attributes, bound
        state), the tile rect and the clear color, and its texel line
        streams also of the texture cache's line size; the key holds all
        of them.  A hit re-applies the recorded counter delta and
        appends the recorded texel lines to the frame's memory log, so
        cache behaviour, DRAM pressure and all counters evolve exactly
        as a recomputation.  Entries pin their shader objects: shader
        ``id`` is in the key, so the ids must stay unrecycled while an
        entry lives.

        The tiles that miss are then rendered together, drawcall by
        drawcall in program order, into screen-sized depth and color
        buffers: a drawcall's fragments inside those tiles come from its
        full-screen raster, and early-Z, shading and blending run once
        per ordered pass of the drawcall (see :meth:`_render_drawcall`).
        Tiles are disjoint, so this equals rendering each tile alone.
        Nothing reaches the memory log here.
        """
        memo = self._tile_memo
        clear = np.asarray(clear_color, dtype=np.float32)
        # Besides the rect, every key holds the clear color and the
        # texture-cache line size, which cuts the texel line streams an
        # entry replays; then, per run, the drawcall's state key and
        # each row's bytes, the objects the batch shares with all keys.
        head = (clear.tobytes(), self.memory.caches["texture"].line_bytes)
        state_keys = {
            batch: _state_key(batch.state)
            for batch, _, _ in parameter_buffer.drawcalls
        }
        tile_rect = self.framebuffer.tile_rect
        pending = self._pending = {}
        missed = []
        for tile_id in tile_ids:
            parts = [tile_rect(tile_id), *head]
            for batch, rows in parameter_buffer.runs[tile_id]:
                parts.append(state_keys[batch])
                row_bytes = batch.row_bytes
                for row in rows.tolist():
                    parts += row_bytes[row]
            key = tuple(parts)
            entry = memo.get(key)
            if entry is not None:
                pending[tile_id] = (entry, None, None, None)
                continue
            pending[tile_id] = (None, key, None, None)
            missed.append(tile_id)
            self.stats.prim_tile_pairs += parameter_buffer.pairs(tile_id)
        if missed:
            self._render_missed(missed, parameter_buffer, clear)

    def _render_missed(self, missed: list, parameter_buffer: ParameterBuffer,
                       clear: np.ndarray) -> None:
        """Render the tile-memo-missed tiles and record, per tile, its
        counter delta and texel line stream."""
        if self._screen is None:
            height, width = self.config.screen_height, self.config.screen_width
            self._screen = (
                np.empty((height, width, 4), dtype=np.float32),
                np.empty((height, width), dtype=np.float32),
                np.empty(height * width, dtype=np.int64),
            )
        self._screen[0][:] = clear
        self._screen[1].fill(DEFAULT_CLEAR_DEPTH)
        in_missed = np.zeros(self.config.num_tiles, dtype=bool)
        in_missed[missed] = True
        segments, texels = [], []
        for batch, _, tiles in parameter_buffer.drawcalls:
            if in_missed[tiles].any():
                self._render_drawcall(batch, in_missed, segments, texels)

        # Per tile: counters from its (primitive, tile) segments, and its
        # texel lines, segment after segment in bin order.
        per_tile = np.zeros((6, self.config.num_tiles), dtype=np.int64)
        for tiles, counts in segments:
            np.add.at(per_tile, (slice(None), tiles), counts)
        rasterized, interp, passed, instructions, alpha, fetches = (
            per_tile.tolist()
        )
        if texels:
            line_tiles = np.concatenate([tiles for tiles, _ in texels])
            order = np.argsort(line_tiles, kind="stable")
            lines = np.concatenate([lines for _, lines in texels])[order]
            ends = np.searchsorted(line_tiles[order], missed, side="right")
            starts = np.searchsorted(line_tiles[order], missed)
        pending = self._pending
        for i, tile_id in enumerate(missed):
            drawn, shaded = rasterized[tile_id], passed[tile_id]
            delta = (
                parameter_buffer.pairs(tile_id),
                drawn, interp[tile_id],
                drawn, shaded, drawn - shaded,
                shaded, instructions[tile_id], fetches[tile_id],
                shaded, alpha[tile_id],
            )
            traffic = ()
            if fetches[tile_id]:
                traffic = (
                    (fetches[tile_id], lines[starts[i]:ends[i]].copy()),
                )
            pending[tile_id] = (None, pending[tile_id][1], delta, traffic)

    def _render_drawcall(self, batch, in_missed: np.ndarray,
                         segments: list, texels: list) -> None:
        """Render the batch's fragments inside the missed tiles.

        The fragments are its full-screen raster's (row, tile) segments
        in the missed tiles, picked with one mask: row by row in program
        order, within a row tile by tile, row-major inside each tile.
        Fragments at the same pixel are split into ordered passes: pass
        r holds each pixel's r-th fragment, so per-pixel order is
        program order and no pass writes a pixel twice, which is what
        early-Z and blending need to run vectorized.  Appends the
        segments' tiles and six counts per segment -- fragments,
        fragments x attributes, fragments passing early-Z, their shader
        instructions, alpha blends and texel fetches -- to ``segments``,
        and their texel lines with each line's tile to ``texels``.
        """
        state = batch.state
        raster = self._memo.get(batch)
        keep = in_missed[raster.seg_tiles]
        if not keep.any():
            return
        if keep.all():
            xs, ys = raster.xs, raster.ys
            depth, bary = raster.depth, raster.bary
            seg_row, seg_tile = raster.seg_rows, raster.seg_tiles
            seg_size = raster.seg_sizes
        else:
            seg_row, seg_tile = raster.seg_rows[keep], raster.seg_tiles[keep]
            seg_size = raster.seg_sizes[keep]
            frags = _ranges(raster.seg_starts[keep], seg_size)
            xs, ys = raster.xs[frags], raster.ys[frags]
            depth, bary = raster.depth[frags], raster.bary[frags]
        # The rows with fragments here, and where each row's fragments
        # end.
        last = np.append(seg_row[1:] != seg_row[:-1], True)
        users = seg_row[last]
        prim_ends = np.cumsum(seg_size)[last]
        attributes = batch.num_attributes
        varyings = {
            name: values[users] for name, values in batch.varyings.items()
        }
        count = len(xs)
        self.stats.fragments_rasterized += count
        self.stats.interp_attr_fragments += count * attributes

        color_buffer, depth_buffer, stamp = self._screen
        ranks = None
        if len(users) > 1:
            ranks = _pass_ranks(
                ys.astype(np.int64) * self.config.screen_width + xs, stamp
            )
        passes = (
            [None] if ranks is None
            else [np.flatnonzero(ranks == r) for r in range(ranks.max() + 1)]
        )
        passed = np.zeros(count, dtype=bool)
        shaded_rows, shaded_texels = [], []
        for rows in passes:
            if rows is None:
                mask = self.depth_stage.test(
                    depth_buffer, xs, ys, depth,
                    depth_test=state.depth_test,
                    depth_write=state.depth_write,
                )
                at = np.flatnonzero(mask)
            else:
                mask = self.depth_stage.test(
                    depth_buffer, xs[rows], ys[rows], depth[rows],
                    depth_test=state.depth_test,
                    depth_write=state.depth_write,
                )
                at = rows[mask]
            if not at.size:
                continue
            passed[at] = True
            at_xs, at_ys = xs[at], ys[at]
            colors, fetched = self.fragment_stage.shade(
                state, varyings,
                np.diff(np.searchsorted(at, prim_ends), prepend=0),
                at_xs, at_ys, bary[at],
            )
            self.blend_stage.blend(
                color_buffer, at_xs, at_ys, colors,
                alpha=state.shader.uses_alpha_blend,
            )
            shaded_rows.append(at)
            shaded_texels.append(fetched.reshape(-1, at.size))

        # Per segment: fragments passing early-Z, then counters.
        bounds = np.concatenate(([0], np.cumsum(seg_size)))
        passing = np.concatenate(([0], np.cumsum(passed)))[bounds]
        seg_passed = np.diff(passing)
        fetches = shaded_texels[0].shape[0] if shaded_texels else 0
        segments.append((seg_tile, np.stack([
            seg_size, seg_size * attributes, seg_passed,
            seg_passed * state.shader.fragment_instructions,
            seg_passed * int(state.shader.uses_alpha_blend),
            seg_passed * fetches,
        ])))
        if not fetches:
            return
        if len(shaded_rows) == 1:
            addresses = shaded_texels[0]
        else:
            order = np.argsort(np.concatenate(shaded_rows))
            addresses = np.concatenate(shaded_texels, axis=1)[:, order]
        # A segment's texel stream is each fetch's addresses for its
        # passing fragments, fetch after fetch, as the per-tile path
        # shades it; each segment is deduplicated to lines on its own.
        seg_of = np.repeat(np.arange(len(seg_size)), seg_passed)
        if fetches == 1:
            stream, stream_seg = addresses[0], seg_of
        else:
            stream_seg = np.tile(seg_of, fetches)
            order = np.argsort(stream_seg, kind="stable")
            stream, stream_seg = addresses.ravel()[order], stream_seg[order]
        lines, line_seg = self.memory.texel_segment_lines(stream, stream_seg)
        texels.append((seg_tile[line_seg], lines))

    # ------------------------------------------------------------------
    def _emit_tile(self, tile_id: int,
                   parameter_buffer: ParameterBuffer) -> np.ndarray:
        """Issue one tile that :meth:`render_drawcalls` rendered, as the
        per-tile path would have: its Parameter-Buffer fetch, then its
        texel lines; returns its final colors.

        A tile memo miss is recorded into the memo here.  Its entry holds
        the colors, the counter delta laid out as
        :data:`TILE_DELTA_KEYS`, the texel line streams as
        ``(raw_count, lines)`` pairs, and the shaders it pins.
        """
        runs = self._fetch_tile_runs(tile_id, parameter_buffer)
        entry, key, delta, traffic = self._pending.pop(tile_id)
        if entry is not None:
            colors, delta, traffic = entry[:3]
            self._apply_stats_delta(delta)
        else:
            x0, y0, x1, y1 = self.framebuffer.tile_rect(tile_id)
            colors = self._screen[0][y0:y1, x0:x1].copy()
            # The entry pins the shader objects whose ids are in the key.
            pins = tuple({id(batch.state.shader): batch.state.shader
                          for batch, _ in runs}.values())
            cost = colors.size + sum(len(lines) for _, lines in traffic)
            self._tile_memo.put(key, (colors, delta, traffic, pins), cost)
        for raw_count, lines in traffic:
            self.fragment_stage.fetch_texels(raw_count, lines)
        self.stats.tiles_rendered += 1
        return colors

    def flush_tile(self, tile_id: int, tile_colors: np.ndarray) -> None:
        nbytes = self.framebuffer.write_tile(tile_id, tile_colors)
        self.stats.flush_bytes += nbytes
        self.memory.write_colors(nbytes, self.stats)


#: The registry counters a tile memo entry's delta holds, in order.  A
#: missed tile's delta is built from its segments' counts, not read from
#: the stages, so summed over a frame's missed tiles it must equal what
#: the stages counted (``tests/pipeline/test_drawcall_path.py``).
TILE_DELTA_KEYS = (
    "raster.prim_tile_pairs", "raster.fragments_rasterized",
    "raster.interp_attr_fragments", "depth.fragments_tested",
    "depth.fragments_passed", "depth.fragments_culled",
    "fragment.fragments_shaded", "fragment.shader_instructions",
    "fragment.texture_fetches", "blend.fragments_blended",
    "blend.alpha_blends",
)


def _state_key(state) -> tuple:
    """Content key of a DrawState's shading-relevant bindings."""
    return (
        id(state.shader),
        tuple(t.content_token if t is not None else None
              for t in state.textures),
        state.constants_bytes(),
        state.depth_test,
        state.depth_write,
    )


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The row indices of the runs ``starts[i]:starts[i] + sizes[i]``,
    concatenated."""
    skip = np.cumsum(sizes) - sizes   # rows before each run
    return np.repeat(starts - skip, sizes) + np.arange(int(sizes.sum()))


def _pass_ranks(pixels: np.ndarray, stamp: np.ndarray):
    """Each fragment's rank among the fragments at its pixel, in array
    order, or ``None`` when no pixel repeats.

    ``stamp`` is pixel-indexed scratch.  Writing every fragment's
    position into it leaves one position per pixel, so some fragment
    reads back another's position exactly when its pixel repeats.
    """
    positions = np.arange(len(pixels))
    stamp[pixels] = positions
    if np.array_equal(stamp[pixels], positions):
        return None
    order = np.argsort(pixels, kind="stable")
    ordered = pixels[order]
    firsts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ranks = np.empty(len(pixels), dtype=np.int64)
    ranks[order] = positions - np.repeat(
        firsts, np.diff(np.r_[firsts, len(pixels)])
    )
    return ranks
