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
the paper's hardware taps.  Occlusion culling (below) truncates bins
only *after* the listeners have observed a primitive, so signatures are
computed over the identical (primitive, tiles) stream whether or not
culling is enabled.

When ``GpuConfig.occlusion_culling`` is set, the PLB additionally runs
an opaque-tile occlusion pass.  Primitives that are opaque (no alpha
blending), write depth and are depth-safe — guaranteed to pass the LESS
test at every pixel they cover, either because they don't depth-test at
all or because their maximum vertex depth clears, by a margin, the
per-pixel minimum of everything written beneath them — join the tile's
*occluding set*.  Once the set's union covers every pixel center, the
bin is truncated before the set's first member: everything older is
unreachable behind it, because the members rewrite every color (opaque
= REPLACE blend) and every depth, so the tile's end state is
bit-identical with or without the buried primitives (argued in full in
DESIGN.md).

The pass keeps dense per-frame state: a per-pixel depth bound and a
per-pixel occluding-set mask, both padded to whole tiles and viewed as
``(tiles_y, T, tiles_x, T)``, plus each tile's set-start bin index.
:meth:`PolygonListBuilder.bin_drawcall` evaluates coverage once per
drawcall, before its insert loop, over every (primitive, tile) pair it
bins: :func:`~repro.pipeline.rasterizer.covers_rect` settles the fully
covered pairs, :func:`~repro.pipeline.rasterizer.coverage_mask` computes
pixel masks for the rest, and the depth-bound fold runs vectorized over
the drawcall.  The occluding-set fold (union, completion, truncation)
then runs per inserted primitive in the original order, so bins,
``TilingStats`` and the order of ``occlusion_events`` do not depend on
the batching.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from ..config import GpuConfig
from ..engine.stage import Stage
from ..geometry.primitives import Primitive
from ..memory.hierarchy import MemoryHierarchy
from .framebuffer import DEFAULT_CLEAR_DEPTH
from .rasterizer import coverage_mask, covers_rect, iteration_bounds

#: Bytes of the per-tile polygon-list pointer entry written per
#: (primitive, tile) pair.
TILE_POINTER_BYTES = 4

#: Slack the occlusion pass demands between an occluder's maximum vertex
#: depth and the running minimum written beneath it.  float32
#: interpolation of depths in [0, 1] errs by ~1e-7 per fragment; a 1e-5
#: margin makes the depth-safety proof immune to that rounding, at the
#: cost of (only) forgoing culls between nearly coplanar layers.
OCCLUSION_DEPTH_MARGIN = 1e-5

#: Pairs the depth-bound fold takes at once: bounds its float32
#: temporaries to 4 MB each for 16x16 tiles, however large the drawcall.
_FOLD_PAIRS = 4096


@dataclasses.dataclass
class TilingStats:
    primitives_binned: int = 0
    tile_entries: int = 0          # (primitive, tile) pairs
    parameter_bytes_written: int = 0
    stall_cycles: int = 0
    # Occlusion-culling pass (zero unless GpuConfig.occlusion_culling)
    tiles_fully_covered: int = 0   # distinct tiles per frame, summed
    prims_occlusion_culled: int = 0
    fragments_avoided: int = 0     # raster-iteration pixels not visited


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

    def truncate_bin(self, tile_id: int, keep_from: int) -> list:
        """Drop the bin entries older than index ``keep_from`` (the
        first primitive of the occluding set); returns the dropped
        primitives, oldest first."""
        bin_ = self.bins[tile_id]
        dropped = bin_[:keep_from]
        if dropped:
            del bin_[:keep_from]
        return dropped

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
        self.occlusion_culling = bool(
            getattr(config, "occlusion_culling", False)
        )
        #: (tile_id, prims_dropped, fragments_avoided) per truncation
        #: this frame, for the tracer's instant events.
        self.occlusion_events: list = []
        if self.occlusion_culling:
            self._init_occlusion_state()

    def _init_occlusion_state(self) -> None:
        """Allocate the occlusion pass's dense per-frame arrays.

        Pixel arrays are padded to the whole tile grid and viewed as
        ``(tiles_y, T, tiles_x, T)``, so ``a[ty, :, tx, :]`` is tile
        ``(tx, ty)``'s ``T x T`` block; pixels past the screen's right
        and bottom edges exist only as padding.
        """
        config = self.config
        size = config.tile_size
        shape = (config.tiles_y * size, config.tiles_x * size)
        grid = (config.tiles_y, size, config.tiles_x, size)
        #: Per-pixel lower bound on any depth the prims inserted so far
        #: can have written there: the min over covering depth-writing
        #: prims' minimum vertex depth, seeded with the clear depth each
        #: frame.  Per-pixel (not a tile scalar) so that coplanar
        #: tessellated layers — whose triangles are disjoint and never
        #: depth-fight each other — can still qualify as occluders.
        #: Every value is a float32 vertex depth or the clear depth, so
        #: float32 holds it exactly.
        self._depth_bound = np.empty(shape, dtype=np.float32)
        self._depth_bound_tiles = self._depth_bound.reshape(grid)
        #: Accumulated coverage of each tile's current occluding set.
        #: Padding pixels are held True, so a set is complete exactly
        #: when its tile block is all True.
        self._occluder = np.empty(shape, dtype=bool)
        self._padding = np.ones(shape, dtype=bool)
        self._padding[:config.screen_height, :config.screen_width] = False
        self._padding_tiles = self._padding.reshape(grid)
        occluder_tiles = self._occluder.reshape(grid)
        #: Each tile's block of the occluder mask, by tile id.
        self._occluder_blocks = [
            occluder_tiles[tile_id // config.tiles_x, :,
                           tile_id % config.tiles_x, :]
            for tile_id in range(config.num_tiles)
        ]
        #: A complete set's block, as bytes: comparing a block's bytes
        #: with it is several times cheaper than a numpy reduction.
        self._complete_block = np.ones((size, size), dtype=bool).tobytes()
        #: Per tile: bin index of the current occluding set's first
        #: member, or -1 when the tile has no set.
        self._set_start: list = []
        #: Per tile: whether an occluding set completed this frame.
        self._covered: list = []
        self._reset_occlusion_state()

    def _reset_occlusion_state(self) -> None:
        self._depth_bound.fill(DEFAULT_CLEAR_DEPTH)
        np.copyto(self._occluder, self._padding)
        self._set_start = [-1] * self.config.num_tiles
        self._covered = [False] * self.config.num_tiles

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
        tile_lists = [self.overlapped_tiles(prim) for prim in primitives]
        occlusion = (self._occlusion_pass(primitives, tile_lists)
                     if self.occlusion_culling else None)
        written = []
        for index, prim in enumerate(primitives):
            tile_ids = tile_lists[index]
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
            if occlusion is not None:
                self._occlusion_update(prim, tile_ids, occlusion, index)
        self.memory.write_parameters(written, self.stats)

    def _tile_rect(self, tile_id: int) -> tuple:
        """Pixel rect (x0, y0, x1, y1) of a tile, clipped to the screen
        (matches ``FrameBuffer.tile_rect``)."""
        size = self.config.tile_size
        tx = tile_id % self.config.tiles_x
        ty = tile_id // self.config.tiles_x
        x0, y0 = tx * size, ty * size
        return (
            x0, y0,
            min(x0 + size, self.config.screen_width),
            min(y0 + size, self.config.screen_height),
        )

    def _occlusion_pass(self, primitives, tile_lists):
        """Coverage and depth safety of every (depth-writing primitive,
        tile) pair the drawcall bins, in one batched evaluation.

        Pairs are numbered in binning order.  :func:`covers_rect`
        settles the fully covered pairs with its corner test, and
        :func:`coverage_mask` evaluates pixels only for the rest.  The
        depth bounds are folded for the whole drawcall here (see
        :meth:`_fold_depth_bounds`); only the occluding-set fold is left
        to :meth:`_occlusion_update`, per inserted primitive.

        Returns ``None`` when there is no such pair, else ``(starts,
        masks, full, safe)``: ``starts[i]`` numbers primitive ``i``'s
        first pair; ``masks`` is each pair's coverage of its tile's
        ``T x T`` block (padding pixels False); ``full`` says per pair
        whether the mask holds every on-screen pixel of the tile, and
        ``safe`` whether the pair joins the tile's occluding set.
        """
        # A primitive that does not write depth can neither occlude (it
        # must rewrite depth everywhere) nor lower any stored depth, so
        # it is invisible to this pass.
        counts = [
            len(tile_ids) if prim.state.depth_write else 0
            for prim, tile_ids in zip(primitives, tile_lists)
        ]
        starts = list(itertools.accumulate(counts, initial=0))
        pairs = starts[-1]
        if not pairs:
            return None
        tiles = np.fromiter(
            itertools.chain.from_iterable(
                itertools.compress(tile_lists, counts)
            ),
            dtype=np.int64, count=pairs,
        )
        rows = np.repeat(np.arange(len(primitives)), counts)
        screens = np.stack([prim.screen for prim in primitives])[rows]
        depths = np.stack([prim.depth for prim in primitives])[rows]
        size = self.config.tile_size
        ty, tx = np.divmod(tiles, self.config.tiles_x)
        x0, y0 = tx * size, ty * size
        rects = np.stack([
            x0, y0,
            np.minimum(x0 + size, self.config.screen_width),
            np.minimum(y0 + size, self.config.screen_height),
        ], axis=1)
        on_screen = ~self._padding_tiles[ty, :, tx, :]
        covered = covers_rect(screens, rects)
        masks = on_screen.copy()
        rest = np.flatnonzero(~covered)
        if len(rest):
            masks[rest] = coverage_mask(screens[rest], rects[rest], size)
        full = (masks == on_screen).all(axis=(1, 2))

        # A pair covering no pixel neither lowers a bound nor joins a set.
        hits = masks.any(axis=(1, 2))
        hit = np.flatnonzero(hits)
        min_depth = depths.min(axis=1)
        beneath = np.full(pairs, np.inf, dtype=np.float32)
        # Consecutive chunks fold exactly as one would: the bound array
        # carries the fold from each chunk to the next.
        for lo in range(0, len(hit), _FOLD_PAIRS):
            chunk = hit[lo:lo + _FOLD_PAIRS]
            beneath[chunk] = self._fold_depth_bounds(
                tiles[chunk], masks[chunk], min_depth[chunk]
            )
        top = depths.max(axis=1).astype(np.float64) + OCCLUSION_DEPTH_MARGIN
        states = [prim.state for prim in primitives]
        opaque = np.array(
            [not state.shader.uses_alpha_blend for state in states]
        )[rows]
        tested = np.array([state.depth_test for state in states])[rows]
        # Depth-safe: passes the LESS test at every pixel it covers — no
        # test at all, or strictly above everything that can have been
        # written beneath those pixels.
        safe = hits & opaque & (~tested | (top < beneath))
        return starts, masks, full.tolist(), safe.tolist()

    def _fold_depth_bounds(self, tiles, masks, min_depth) -> np.ndarray:
        """Lower each pair's covered pixels of the depth bound to its
        primitive's minimum depth, as the pairs would one after another,
        and return per pair the minimum bound over its covered pixels
        just before its own update.

        Each primitive lists a tile at most once, so the pairs of one
        tile, in order, are the fold's sequence for that tile: a stable
        sort by tile makes them contiguous rows, and a running minimum
        down each tile's rows gives every pair the bound left by the
        pairs before it.  The running minimum advances all tiles at
        once, one step per position in the longest sequence.  ``min`` is
        exact, so every value is the sequential fold's, bit for bit.
        """
        order = np.argsort(tiles, kind="stable")
        tiles = tiles[order]
        ty, tx = np.divmod(tiles, self.config.tiles_x)
        # -inf on each pair's mask, +inf off it: np.maximum(x, veil) is
        # x where the pair covers and +inf elsewhere, a select far
        # cheaper than a masked one.
        veil = np.float32(1) - np.float32(2) * masks[order]
        veil *= np.inf
        written = np.maximum(veil, min_depth[order][:, None, None])
        # bound[j]: the tile's bound just before pair j.
        bound = self._depth_bound_tiles[ty, :, tx, :]
        first = np.append(True, tiles[1:] != tiles[:-1])
        position = np.arange(len(tiles))
        position -= np.maximum.accumulate(np.where(first, position, 0))
        by_position = np.argsort(position, kind="stable")
        ends = np.cumsum(np.bincount(position))
        for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist()):
            rows = by_position[lo:hi]
            bound[rows] = np.minimum(bound[rows - 1], written[rows - 1])
        beneath = np.empty(len(order), dtype=np.float32)
        beneath[order] = np.maximum(bound, veil).min(axis=(1, 2))
        last = np.append(first[1:], True)
        self._depth_bound_tiles[ty[last], :, tx[last], :] = np.minimum(
            bound[last], written[last]
        )
        return beneath

    def _occlusion_update(self, prim: Primitive, tile_ids, occlusion,
                          index: int) -> None:
        """Fold the just-inserted primitive (drawcall index ``index``)
        into the occluding set of each tile it may join, and truncate
        bins whose set now covers every pixel center."""
        starts, masks, full, safe = occlusion
        bins = self.parameter_buffer.bins
        set_start = self._set_start
        # A primitive that does not write depth owns no pairs.
        pairs = range(starts[index], starts[index + 1])
        for pair, tile_id in zip(pairs, tile_ids):
            if not safe[pair]:
                continue
            newest = len(bins[tile_id]) - 1
            first = set_start[tile_id]
            if full[pair]:
                # A single full-cover primitive occludes on its own,
                # irrespective of any set accumulated so far — truncate
                # everything older than it.
                if first >= 0:
                    self._end_set(tile_id)
                self._complete_cover(tile_id, newest)
                continue
            occluder = self._occluder_blocks[tile_id]
            occluder |= masks[pair]
            if first < 0:
                # The set's first member is the primitive just appended.
                set_start[tile_id] = newest
            elif occluder.tobytes() == self._complete_block:
                self._end_set(tile_id)
                self._complete_cover(tile_id, first)

    def _end_set(self, tile_id: int) -> None:
        self._set_start[tile_id] = -1
        ty, tx = divmod(tile_id, self.config.tiles_x)
        np.copyto(self._occluder_blocks[tile_id],
                  self._padding_tiles[ty, :, tx, :])

    def _complete_cover(self, tile_id: int, keep_from: int) -> None:
        """Record a fully-covered tile and drop the buried prefix."""
        if not self._covered[tile_id]:
            self._covered[tile_id] = True
            self.stats.tiles_fully_covered += 1
        dropped = self.parameter_buffer.truncate_bin(tile_id, keep_from)
        if not dropped:
            return
        rect = self._tile_rect(tile_id)
        avoided = 0
        for buried in dropped:
            bounds = iteration_bounds(buried, rect)
            if bounds is not None:
                avoided += (
                    (bounds[2] - bounds[0]) * (bounds[3] - bounds[1])
                )
        self.stats.prims_occlusion_culled += len(dropped)
        self.stats.fragments_avoided += avoided
        self.occlusion_events.append((tile_id, len(dropped), avoided))

    def begin_frame(self, ctx=None) -> None:
        self.parameter_buffer.clear()
        self._pb_cursor = 0
        if self.occlusion_culling:
            self._reset_occlusion_state()
        self.occlusion_events.clear()
