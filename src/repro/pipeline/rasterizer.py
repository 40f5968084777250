"""Rasterizer: primitives to fragments via vectorized edge functions.

Coverage uses the top-left fill rule so that triangles sharing an edge
(every quad's diagonal in the 2D workloads) cover each pixel exactly
once — double-shading would both inflate fragment counts and break alpha
blending.

Coordinates are y-down screen space with pixel centers at half-integers.
Triangles are oriented to positive signed area before testing, so the
rule is applied uniformly regardless of submitted winding.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..geometry.primitives import Primitive

#: Strict margin for the full-tile coverage test: an edge function must
#: clear every corner pixel center by at least this much before a
#: primitive counts as covering the tile.  Coverage then holds at every
#: interior center under *either* fill-rule inclusivity, so the answer
#: never depends on top-left tie-breaking.
_COVER_EPS = 1e-6


@dataclasses.dataclass
class FragmentBatch:
    """Fragments one primitive produced inside one tile."""

    prim: Primitive
    xs: np.ndarray        # (m,) int32 absolute pixel x
    ys: np.ndarray        # (m,) int32 absolute pixel y
    depth: np.ndarray     # (m,) float32 interpolated depth
    bary: np.ndarray      # (m, 3) float32 barycentric weights

    @property
    def count(self) -> int:
        return len(self.xs)

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        """Interpolate per-vertex ``(3, k)`` values to ``(m, k)``."""
        return (self.bary @ np.asarray(values, dtype=np.float32)).astype(
            np.float32
        )


def _edge(ax, ay, bx, by, px, py):
    """Signed edge function: positive when p is left of a->b (y-down)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _is_top_left(ax, ay, bx, by) -> bool:
    """Top-left rule for a positively-oriented triangle in y-down space:
    'top' edges run right-to-left horizontally; 'left' edges go upward
    (decreasing y)."""
    dx = bx - ax
    dy = by - ay
    if dy == 0:
        return dx < 0
    return dy < 0


def iteration_bounds(prim: Primitive, rect: tuple):
    """The half-open pixel box :func:`rasterize` iterates for ``prim``
    inside ``rect``, or ``None`` when it is empty.

    A pixel can only be covered when its center ``x + 0.5`` lies within
    the triangle's coordinate range, so the box keeps exactly the pixels
    with ``min <= x + 0.5 <= max`` per axis — every excluded pixel
    center sits strictly outside the bounding box and would fail some
    edge test strictly, making the tightening coverage-neutral.
    """
    v0x, v0y = float(prim.screen[0, 0]), float(prim.screen[0, 1])
    v1x, v1y = float(prim.screen[1, 0]), float(prim.screen[1, 1])
    v2x, v2y = float(prim.screen[2, 0]), float(prim.screen[2, 1])
    x0 = max(rect[0], int(np.ceil(min(v0x, v1x, v2x) - 0.5)))
    y0 = max(rect[1], int(np.ceil(min(v0y, v1y, v2y) - 0.5)))
    x1 = min(rect[2], int(np.floor(max(v0x, v1x, v2x) - 0.5)) + 1)
    y1 = min(rect[3], int(np.floor(max(v0y, v1y, v2y) - 0.5)) + 1)
    if x1 <= x0 or y1 <= y0:
        return None
    return x0, y0, x1, y1


def _oriented_edges(screen: np.ndarray) -> tuple:
    """Edge endpoints ``(ax, ay, bx, by)`` of each row's triangle, each
    ``(3, n)``, and twice its area, after :func:`rasterize`'s
    orientation swap.

    ``screen`` is ``(n, 3, 2)``.  Edge ``e`` is the one opposite vertex
    ``e`` (``w0``, ``w1``, ``w2``), and every value is the float64 that
    :func:`rasterize` computes as a scalar for that row, by the same
    elementwise expressions, so each row matches it bit for bit.
    """
    s = np.asarray(screen, dtype=np.float64)
    area2 = _edge(s[:, 0, 0], s[:, 0, 1], s[:, 1, 0], s[:, 1, 1],
                  s[:, 2, 0], s[:, 2, 1])
    s = np.where((area2 < 0)[:, None, None], s[:, [0, 2, 1]], s)
    vx, vy = s[:, :, 0].T, s[:, :, 1].T
    a, b = [1, 2, 0], [2, 0, 1]
    return vx[a], vy[a], vx[b], vy[b], np.abs(area2)


def covers_rect(screen: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Per row: whether triangle ``screen[i]`` covers every pixel center
    of the half-open pixel box ``rects[i] = (x0, y0, x1, y1)``.

    Tests the three (positively-oriented) edge functions at the four
    corner pixel centers only: edge functions are affine in screen
    space, so their minimum over the rectangle of centers is attained at
    a corner.  Requiring ``w >= _COVER_EPS`` at all corners therefore
    guarantees strict interiority at every center, independent of the
    top-left tie-breaking that :func:`rasterize` applies on ``w == 0``.
    ``screen`` is ``(n, 3, 2)``, ``rects`` is ``(n, 4)`` integers; the
    result is a ``(n,)`` bool array.
    """
    ax, ay, bx, by, area2 = _oriented_edges(screen)
    rects = np.asarray(rects)
    lox, loy = rects[:, 0] + 0.5, rects[:, 1] + 0.5
    hix, hiy = rects[:, 2] - 0.5, rects[:, 3] - 0.5
    # Every (edge, corner) at once: (3, 1, n) edges by (4, n) corners.
    w = _edge(ax[:, None], ay[:, None], bx[:, None], by[:, None],
              np.stack([lox, hix, lox, hix]), np.stack([loy, loy, hiy, hiy]))
    return ((area2 != 0) & (hix >= lox) & (hiy >= loy)
            & ~(w < _COVER_EPS).any(axis=(0, 1)))


#: Rows :func:`coverage_mask` evaluates at once: bounds its float64
#: edge values to 1.5 MB for 16x16 tiles.
_MASK_ROWS = 256


def coverage_mask(screen: np.ndarray, rects: np.ndarray,
                  size: int) -> np.ndarray:
    """Per row: the pixels of ``rects[i]`` that triangle ``screen[i]``
    covers, as a ``(n, size, size)`` bool array.

    Mask element ``[i, r, c]`` is pixel ``(rects[i, 0] + c,
    rects[i, 1] + r)``; pixels outside the rect are ``False``, so a rect
    clipped by the screen edge pads its mask.  Evaluates the *same*
    oriented edge functions, fill rule and :func:`iteration_bounds`
    clipping as :func:`rasterize` at the same absolute pixel centers, so
    each mask is bit-exact with the fragments the rasterizer would emit.
    """
    screen = np.asarray(screen, dtype=np.float64)
    rects = np.asarray(rects, dtype=np.int64)
    ax, ay, bx, by, area2 = _oriented_edges(screen)
    dx, dy = bx - ax, by - ay
    # Top-left edges (see _is_top_left) also cover w == 0.
    top_left = np.where(dy == 0, dx < 0, dy < 0)
    # iteration_bounds, per row: pixel x is iterated iff
    # ceil(min x - 0.5) <= x < floor(max x - 0.5) + 1, inside the rect.
    xs, ys = screen[:, :, 0], screen[:, :, 1]
    offsets = np.arange(size)
    px = rects[:, 0, None] + offsets                          # (n, size)
    py = rects[:, 1, None] + offsets
    x_in = ((px < rects[:, 2, None])
            & (px >= np.ceil(xs.min(axis=1) - 0.5)[:, None])
            & (px < (np.floor(xs.max(axis=1) - 0.5) + 1)[:, None]))
    y_in = ((py < rects[:, 3, None])
            & (py >= np.ceil(ys.min(axis=1) - 0.5)[:, None])
            & (py < (np.floor(ys.max(axis=1) - 0.5) + 1)[:, None]))
    masks = np.zeros((len(rects), size, size), dtype=bool)
    # Degenerate triangles and empty iteration boxes cover nothing; the
    # edge functions are evaluated for the other rows only.
    live = np.flatnonzero(x_in.any(axis=1) & y_in.any(axis=1) & (area2 != 0))
    for lo in range(0, len(live), _MASK_ROWS):
        rows = live[lo:lo + _MASK_ROWS]
        # Pixel centers as (1, k, 1, size) columns and (1, k, size, 1)
        # rows, against (3, k, 1, 1) edges: the float64 values
        # rasterize's open grids hold, all three edges at once.
        cx = (px[rows] + 0.5)[None, :, None, :]
        cy = (py[rows] + 0.5)[None, :, :, None]
        edge = (slice(None), rows, None, None)
        w = dx[edge] * (cy - ay[edge]) - dy[edge] * (cx - ax[edge])
        inside = ((w > 0) | ((w == 0) & top_left[edge])).all(axis=0)
        inside &= y_in[rows, :, None] & x_in[rows, None, :]
        masks[rows] = inside
    return masks


def rasterize(prim: Primitive, rect: tuple) -> FragmentBatch:
    """Rasterize ``prim`` within ``rect = (x0, y0, x1, y1)`` (pixels,
    half-open).  Returns a possibly-empty :class:`FragmentBatch`."""
    v0x, v0y = float(prim.screen[0, 0]), float(prim.screen[0, 1])
    v1x, v1y = float(prim.screen[1, 0]), float(prim.screen[1, 1])
    v2x, v2y = float(prim.screen[2, 0]), float(prim.screen[2, 1])

    area2 = _edge(v0x, v0y, v1x, v1y, v2x, v2y)
    order = (0, 1, 2)
    if area2 < 0:
        # Reorder to positive orientation so one fill rule applies.
        v1x, v1y, v2x, v2y = v2x, v2y, v1x, v1y
        area2 = -area2
        order = (0, 2, 1)
    if area2 == 0:
        return _empty_batch(prim)

    # Clip the iteration region to the pixels whose centers can fall
    # inside the triangle's bounding box.
    bounds = iteration_bounds(prim, rect)
    if bounds is None:
        return _empty_batch(prim)
    x0, y0, x1, y1 = bounds

    # Pixel centers as open grids, broadcast through the edge functions
    # (cheaper than materializing a meshgrid).  w0 opposes v0 (edge
    # v1->v2), w1 opposes v1, w2 opposes v2; a top-left edge also
    # covers the centers it passes through (w == 0).
    px = np.arange(x0, x1, dtype=np.float64)[None, :] + 0.5
    py = np.arange(y0, y1, dtype=np.float64)[:, None] + 0.5
    w0 = _edge(v1x, v1y, v2x, v2y, px, py)
    w1 = _edge(v2x, v2y, v0x, v0y, px, py)
    w2 = _edge(v0x, v0y, v1x, v1y, px, py)
    inside = (w0 >= 0) if _is_top_left(v1x, v1y, v2x, v2y) else (w0 > 0)
    inside &= (w1 >= 0) if _is_top_left(v2x, v2y, v0x, v0y) else (w1 > 0)
    inside &= (w2 >= 0) if _is_top_left(v0x, v0y, v1x, v1y) else (w2 > 0)

    if not inside.any():
        return _empty_batch(prim)

    lam0 = (w0[inside] / area2).astype(np.float32)
    lam1 = (w1[inside] / area2).astype(np.float32)
    lam2 = (w2[inside] / area2).astype(np.float32)

    # Write barycentrics straight into original-vertex order, undoing
    # the orientation swap via ``order``.
    bary = np.empty((len(lam0), 3), dtype=np.float32)
    bary[:, order[0]] = lam0
    bary[:, order[1]] = lam1
    bary[:, order[2]] = lam2

    ys_grid, xs_grid = np.nonzero(inside)
    xs = (xs_grid + x0).astype(np.int32)
    ys = (ys_grid + y0).astype(np.int32)
    # Elementwise interpolation (not a matmul): per-pixel float32 values
    # are then independent of the batch shape, so rasterizing the full
    # screen and slicing per tile is bit-identical to per-tile calls.
    d = prim.depth.astype(np.float32)
    depth = bary[:, 0] * d[0] + bary[:, 1] * d[1] + bary[:, 2] * d[2]
    return FragmentBatch(prim=prim, xs=xs, ys=ys, depth=depth, bary=bary)


def _empty_batch(prim: Primitive) -> FragmentBatch:
    return FragmentBatch(
        prim=prim,
        xs=np.empty(0, np.int32),
        ys=np.empty(0, np.int32),
        depth=np.empty(0, np.float32),
        bary=np.empty((0, 3), np.float32),
    )


class TiledRaster:
    """One primitive's full-screen raster output, grouped by tile.

    The per-drawcall raster path rasterizes each primitive *once*
    against the whole screen and takes each tile's slice of the fragment
    arrays.  Because every per-pixel quantity in :func:`rasterize` is
    computed elementwise from absolute pixel coordinates, each slice is
    bit-exact with what a per-tile :func:`rasterize` call would have
    produced.

    The fragment arrays are stored sorted by tile id; the sort is stable,
    so fragments keep their row-major order within each tile.  Tile
    ``tiles[i]`` owns rows ``starts[i]:starts[i + 1]``.

    Holds no reference to the primitive: fragment geometry depends only
    on the screen positions and depths, so the same ``TiledRaster`` can
    serve look-alike primitives from later frames (see
    :class:`RasterMemo`).
    """

    __slots__ = ("xs", "ys", "depth", "bary", "fragment_count", "tiles",
                 "starts")

    def __init__(self, batch: FragmentBatch, tile_size: int,
                 tiles_x: int) -> None:
        self.fragment_count = len(batch.xs)
        tile_ids = (
            (batch.ys // tile_size).astype(np.int64) * tiles_x
            + batch.xs // tile_size
        )
        order = np.argsort(tile_ids, kind="stable")
        self.xs = batch.xs[order]
        self.ys = batch.ys[order]
        self.depth = batch.depth[order]
        self.bary = batch.bary[order]
        self.tiles, starts = np.unique(tile_ids[order], return_index=True)
        self.starts = np.append(starts, self.fragment_count)

    def tile(self, prim: Primitive, tile_id: int) -> FragmentBatch:
        """The fragments of ``prim`` that fall inside ``tile_id``."""
        i = int(np.searchsorted(self.tiles, tile_id))
        if i == len(self.tiles) or self.tiles[i] != tile_id:
            return _empty_batch(prim)
        lo, hi = self.starts[i], self.starts[i + 1]
        return FragmentBatch(
            prim=prim,
            xs=self.xs[lo:hi],
            ys=self.ys[lo:hi],
            depth=self.depth[lo:hi],
            bary=self.bary[lo:hi],
        )


class RasterMemoStore:
    """Retained-fragment accounting shared by every :class:`RasterMemo`
    bound to it.

    Entries from all bound memos live in one insertion-ordered dict, so
    the fragment budget and its LRU eviction apply *globally*: a
    long-lived process sweeping many screen geometries can no longer pin
    one full-budget memo per configuration (the former unbounded
    ``_SHARED_RASTER_MEMOS`` leak) — cold configurations age out as hot
    ones insert.
    """

    def __init__(self, fragment_budget: int = 4_000_000) -> None:
        self.fragment_budget = fragment_budget
        self._entries: "dict[tuple, TiledRaster]" = {}
        self._retained_fragments = 0
        self.evictions = 0

    @property
    def retained_fragments(self) -> int:
        return self._retained_fragments

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        entries = self._entries
        tiled = entries.get(key)
        if tiled is not None:
            # Re-insert to mark as most recently used.
            del entries[key]
            entries[key] = tiled
        return tiled

    def put(self, key: tuple, tiled: TiledRaster) -> None:
        entries = self._entries
        self._retained_fragments += tiled.fragment_count
        entries[key] = tiled
        while (self._retained_fragments > self.fragment_budget
               and len(entries) > 1):
            evicted = entries.pop(next(iter(entries)))
            self._retained_fragments -= evicted.fragment_count
            self.evictions += 1


class RasterMemo:
    """Cross-frame raster memo, keyed by primitive *content*.

    Frame-coherent workloads resubmit geometrically identical primitives
    every frame; their coverage and barycentrics are pure functions of
    the screen-space positions and depths, so the rasterization can be
    reused.  Entries live in a :class:`RasterMemoStore` (private unless
    one is passed in) whose retained-fragment budget evicts LRU-first.
    Purely an execution-speed cache: it changes no simulated state, and
    the scalar reference path never consults it.
    """

    def __init__(self, tile_size: int, tiles_x: int,
                 fragment_budget: int = 4_000_000,
                 store: RasterMemoStore = None) -> None:
        self.tile_size = tile_size
        self.tiles_x = tiles_x
        self.store = (store if store is not None
                      else RasterMemoStore(fragment_budget))
        self.hits = 0
        self.misses = 0

    def _key(self, prim: Primitive, screen_rect: tuple) -> tuple:
        # The grid geometry and clip rect are part of the key: memos
        # sharing one store must never hand each other fragments tiled
        # for a different grid or clipped to a different screen.
        return (self.tile_size, self.tiles_x, screen_rect,
                prim.geometry_bytes())

    def get(self, prim: Primitive, screen_rect: tuple) -> TiledRaster:
        """The primitive's :class:`TiledRaster`, computed or reused."""
        key = self._key(prim, screen_rect)
        tiled = self.store.get(key)
        if tiled is not None:
            self.hits += 1
            return tiled
        self.misses += 1
        tiled = TiledRaster(
            rasterize(prim, screen_rect), self.tile_size, self.tiles_x
        )
        self.store.put(key, tiled)
        return tiled


#: Process-wide fragment pool behind every shared memo: one budget, one
#: LRU order, however many (tile grid, screen rect) configurations the
#: process touches.
_SHARED_RASTER_STORE = RasterMemoStore()

#: Process-wide raster memos, one per (tile grid, screen rect): content
#: keys make hits exact across independent Gpu instances of equal
#: configuration.  All of them share ``_SHARED_RASTER_STORE``, so the
#: per-config memo objects (cheap counters + a store reference) are the
#: only thing retained per configuration.
_SHARED_RASTER_MEMOS: dict = {}


def shared_raster_memo(tile_size: int, tiles_x: int,
                       screen_rect: tuple) -> RasterMemo:
    """The process-wide :class:`RasterMemo` for one screen geometry."""
    key = (tile_size, tiles_x, screen_rect)
    memo = _SHARED_RASTER_MEMOS.get(key)
    if memo is None:
        memo = RasterMemo(tile_size, tiles_x, store=_SHARED_RASTER_STORE)
        _SHARED_RASTER_MEMOS[key] = memo
    return memo
