"""Rasterization: coverage, fill rule, interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DrawState, Primitive, mat4
from repro.pipeline import rasterizer
from repro.pipeline.rasterizer import (
    coverage_mask,
    covers_rect,
    iteration_bounds,
    rasterize,
)
from repro.shaders import FLAT_COLOR, pack_constants

STATE = DrawState(FLAT_COLOR, pack_constants(mat4.identity()))


def prim(points, depth=(0.5, 0.5, 0.5), varyings=None):
    return Primitive(
        screen=np.asarray(points, dtype=np.float32),
        depth=np.asarray(depth, dtype=np.float32),
        clip=np.zeros((3, 4), dtype=np.float32),
        varyings=varyings or {},
        state=STATE,
    )


def coverage(prims, size=16):
    grid = np.zeros((size, size), dtype=int)
    for p in prims:
        batch = rasterize(p.screen, p.depth, (0, 0, size, size))
        for x, y in zip(batch.xs, batch.ys):
            grid[y, x] += 1
    return grid


class TestCoverage:
    def test_full_square_quad_covers_exactly_once(self):
        t1 = prim([[0, 0], [16, 0], [16, 16]])
        t2 = prim([[0, 0], [16, 16], [0, 16]])
        grid = coverage([t1, t2])
        assert np.all(grid == 1)

    def test_reversed_winding_also_exact(self):
        t1 = prim([[0, 0], [16, 16], [16, 0]])
        t2 = prim([[0, 0], [0, 16], [16, 16]])
        assert np.all(coverage([t1, t2]) == 1)

    def test_adjacent_quads_share_edge_without_double_cover(self):
        quads = [
            prim([[0, 0], [8, 0], [8, 16]]),
            prim([[0, 0], [8, 16], [0, 16]]),
            prim([[8, 0], [16, 0], [16, 16]]),
            prim([[8, 0], [16, 16], [8, 16]]),
        ]
        assert np.all(coverage(quads) == 1)

    def test_offscreen_triangle_is_empty(self):
        t = prim([[100, 100], [110, 100], [100, 110]])
        batch = rasterize(t.screen, t.depth, (0, 0, 16, 16))
        assert batch.count == 0

    def test_degenerate_triangle_is_empty(self):
        t = prim([[0, 0], [8, 8], [16, 16]])
        batch = rasterize(t.screen, t.depth, (0, 0, 16, 16))
        assert batch.count == 0

    def test_sub_pixel_triangle_between_centers_is_empty(self):
        t = prim([[0.6, 0.6], [0.9, 0.6], [0.6, 0.9]])
        batch = rasterize(t.screen, t.depth, (0, 0, 16, 16))
        assert batch.count == 0

    def test_rect_clips_coverage(self):
        t = prim([[0, 0], [16, 0], [0, 16]])
        batch = rasterize(t.screen, t.depth, (0, 0, 4, 4))
        assert batch.count == 16
        assert batch.xs.max() < 4 and batch.ys.max() < 4

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 16, allow_nan=False),
                      st.floats(0, 16, allow_nan=False)),
            min_size=3, max_size=3, unique=True,
        )
    )
    def test_coverage_within_bbox_and_count_consistent(self, points):
        p = prim(points)
        batch = rasterize(p.screen, p.depth, (0, 0, 16, 16))
        if batch.count:
            x0, y0, x1, y1 = p.bounds()
            assert batch.xs.min() >= max(0, x0)
            assert batch.ys.max() <= min(16, y1)
            # Barycentric weights sum to 1.
            assert np.allclose(batch.bary.sum(axis=1), 1.0, atol=1e-4)


class TestIterationBounds:
    def test_tight_box_excludes_outside_row_and_column(self):
        # Vertex coordinates land exactly on pixel boundaries: no pixel
        # center at x == 16 (center 16.5) can be covered, so the box
        # stops at 16 — the former ceil(max) + 1 bound iterated a
        # guaranteed-empty extra column and row.
        p = prim([[0, 0], [16, 0], [0, 16]])
        assert iteration_bounds(p.screen, (0, 0, 32, 32)) == (0, 0, 16, 16)

    def test_box_clipped_to_rect(self):
        p = prim([[0, 0], [16, 0], [0, 16]])
        assert iteration_bounds(p.screen, (4, 4, 8, 8)) == (4, 4, 8, 8)

    def test_sliver_between_centers_is_none(self):
        # Bounding box [0.6, 0.9] contains no half-integer center.
        p = prim([[0.6, 0.6], [0.9, 0.6], [0.6, 0.9]])
        assert iteration_bounds(p.screen, (0, 0, 16, 16)) is None

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-8, 24, allow_nan=False),
                      st.floats(-8, 24, allow_nan=False)),
            min_size=3, max_size=3, unique=True,
        )
    )
    def test_all_fragments_fall_inside_bounds(self, points):
        p = prim(points)
        rect = (0, 0, 16, 16)
        batch = rasterize(p.screen, p.depth, rect)
        bounds = iteration_bounds(p.screen, rect)
        if batch.count:
            assert bounds is not None
            x0, y0, x1, y1 = bounds
            assert batch.xs.min() >= x0 and batch.xs.max() < x1
            assert batch.ys.min() >= y0 and batch.ys.max() < y1


def covers(p, rect):
    """``covers_rect`` for a single (primitive, rect) pair."""
    return bool(covers_rect(p.screen[None], np.array([rect]))[0])


def mask_of(p, rect, size=16):
    """``coverage_mask`` for a single pair, cropped to the rect."""
    mask = coverage_mask(p.screen[None], np.array([rect]), size)[0]
    return mask[:rect[3] - rect[1], :rect[2] - rect[0]]


class TestCoversRect:
    def test_enclosing_triangle_covers(self):
        assert covers(prim([[-1, -1], [40, -1], [-1, 40]]), (0, 0, 16, 16))

    def test_winding_irrelevant(self):
        assert covers(prim([[-1, -1], [-1, 40], [40, -1]]), (0, 0, 16, 16))

    def test_partial_triangle_does_not_cover(self):
        assert not covers(prim([[0, 0], [16, 0], [0, 16]]), (0, 0, 16, 16))

    def test_degenerate_triangle_does_not_cover(self):
        assert not covers(prim([[0, 0], [8, 8], [16, 16]]), (0, 0, 16, 16))

    def test_exact_rect_triangle_pair_each_fail_alone(self):
        # Either half of a screen-aligned quad leaves the other half
        # uncovered — only their union (coverage_mask accumulation)
        # fills the tile.
        assert not covers(prim([[0, 0], [16, 0], [16, 16]]), (0, 0, 16, 16))
        assert not covers(prim([[0, 0], [16, 16], [0, 16]]), (0, 0, 16, 16))

    def test_rows_are_independent(self):
        big = prim([[-1, -1], [40, -1], [-1, 40]])
        half = prim([[0, 0], [16, 0], [16, 16]])
        screens = np.stack([big.screen, half.screen, big.screen])
        rects = np.array([(0, 0, 16, 16), (0, 0, 16, 16), (16, 16, 32, 32)])
        assert covers_rect(screens, rects).tolist() == [True, False, False]


class TestCoverageMask:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-8, 24, allow_nan=False),
                      st.floats(-8, 24, allow_nan=False)),
            min_size=3, max_size=3, unique=True,
        )
    )
    def test_mask_matches_rasterizer_emission(self, points):
        p = prim(points)
        rect = (0, 0, 16, 16)
        batch = rasterize(p.screen, p.depth, rect)
        scatter = np.zeros((16, 16), dtype=bool)
        if batch.count:
            scatter[batch.ys, batch.xs] = True
        assert np.array_equal(mask_of(p, rect), scatter)

    def test_quad_halves_union_to_full_cover(self):
        a = mask_of(prim([[0, 0], [16, 0], [16, 16]]), (0, 0, 16, 16))
        b = mask_of(prim([[0, 0], [16, 16], [0, 16]]), (0, 0, 16, 16))
        assert not a.all() and not b.all()
        assert (a | b).all()
        # The shared diagonal is emitted exactly once.
        assert not (a & b).any()

    def test_offscreen_covers_nothing(self):
        assert not mask_of(prim([[100, 100], [110, 100], [100, 110]]),
                           (0, 0, 16, 16)).any()

    def test_clipped_rect_pads_with_false(self):
        # A 4x6 rect at a screen's clipped corner: the enclosing
        # triangle covers it exactly, and nothing outside it.
        full = prim([[90, 60], [200, 60], [90, 200]])
        mask = coverage_mask(full.screen[None], np.array([(96, 64, 100, 70)]),
                             16)[0]
        assert mask[:6, :4].all()
        assert mask.sum() == 24


#: A 100x70 screen in 16px tiles: the right column is 4px wide and the
#: bottom row 6px tall, as neither preset's screen ever is.
SCREEN_W, SCREEN_H, TILE = 100, 70, 16
TILE_RECTS = [
    (x, y, min(x + TILE, SCREEN_W), min(y + TILE, SCREEN_H))
    for y in range(0, SCREEN_H, TILE) for x in range(0, SCREEN_W, TILE)
]

#: Coordinates on and off the screen, with pixel centers (top-left fill
#: rule ties) and pixel corners drawn often.
COORD = st.one_of(
    st.floats(-40, 140, allow_nan=False, width=32),
    st.integers(-2, 102).map(lambda v: v + 0.5),
    st.integers(-2, 102).map(float),
)
POINT = st.tuples(COORD, COORD)
TRIANGLE = st.one_of(
    # Either winding; repeated points give zero area.
    st.lists(POINT, min_size=3, max_size=3),
    # Collinear, hence zero area, but with distinct vertices.
    st.tuples(POINT, POINT).map(
        lambda ends: [ends[0], ends[1],
                      ((ends[0][0] + ends[1][0]) / 2,
                       (ends[0][1] + ends[1][1]) / 2)]
    ),
)


class TestBatchedCoverage:
    """One batched call over every (triangle, tile) pair equals
    rasterizing each pair on its own."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(TRIANGLE, min_size=1, max_size=6))
    def test_batch_equals_per_pair_rasterize(self, triangles):
        prims = [prim(points) for points in triangles]
        pairs = [(p, rect) for p in prims for rect in TILE_RECTS]
        screens = np.stack([p.screen for p, _ in pairs])
        rects = np.array([rect for _, rect in pairs])
        covered = covers_rect(screens, rects)
        masks = coverage_mask(screens, rects, TILE)
        for (p, rect), full, mask in zip(pairs, covered, masks):
            batch = rasterize(p.screen, p.depth, rect)
            expected = np.zeros((TILE, TILE), dtype=bool)
            expected[batch.ys - rect[1], batch.xs - rect[0]] = True
            assert np.array_equal(mask, expected), (p.screen, rect)
            if full:
                width, height = rect[2] - rect[0], rect[3] - rect[1]
                assert batch.count == width * height, (p.screen, rect)

    def test_masks_in_small_chunks_are_the_same(self, monkeypatch):
        rng = np.random.default_rng(7)
        screens = rng.uniform(-40, 140, (40, 3, 2)).astype(np.float32)
        rects = np.array(TILE_RECTS)[rng.integers(0, len(TILE_RECTS), 40)]
        whole = coverage_mask(screens, rects, TILE)
        monkeypatch.setattr(rasterizer, "_MASK_ROWS", 3)
        assert np.array_equal(coverage_mask(screens, rects, TILE), whole)
        assert whole.any()


class TestInterpolation:
    def test_depth_interpolates_linearly(self):
        t = prim([[0, 0], [16, 0], [0, 16]], depth=(0.0, 1.0, 1.0))
        batch = rasterize(t.screen, t.depth, (0, 0, 16, 16))
        near_origin = (batch.xs == 0) & (batch.ys == 0)
        # Pixel (15, 0) lies exactly on the diagonal edge and is excluded
        # by the fill rule; (14, 0) is the farthest interior pixel.
        far_corner = (batch.xs == 14) & (batch.ys == 0)
        assert batch.depth[near_origin][0] < 0.1
        assert batch.depth[far_corner][0] > 0.9

    def test_varying_interpolation_matches_bary(self):
        values = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.float32)
        t = prim([[0, 0], [16, 0], [0, 16]], varyings={"uv": values})
        batch = rasterize(t.screen, t.depth, (0, 0, 16, 16))
        interp = batch.interpolate(values)
        assert interp.shape == (batch.count, 2)
        # uv.x should equal x/16 at pixel centers (affine map).
        assert np.allclose(interp[:, 0], (batch.xs + 0.5) / 16.0, atol=1e-5)

    def test_orientation_swap_keeps_vertex_binding(self):
        # Same triangle with both windings must interpolate identically.
        values = np.array([[5], [7], [9]], dtype=np.float32)
        fwd = prim([[0, 0], [16, 0], [0, 16]], varyings={"v": values})
        rev = Primitive(
            screen=fwd.screen[[0, 2, 1]].copy(),
            depth=fwd.depth[[0, 2, 1]].copy(),
            clip=fwd.clip,
            varyings={"v": values[[0, 2, 1]].copy()},
            state=STATE,
        )
        bf = rasterize(fwd.screen, fwd.depth, (0, 0, 16, 16))
        br = rasterize(rev.screen, rev.depth, (0, 0, 16, 16))
        # Same pixels covered (fill rule differences allowed only on
        # shared edges; interior must match).
        key_f = {(x, y): v for x, y, v in
                 zip(bf.xs, bf.ys, bf.interpolate(values)[:, 0])}
        key_r = {(x, y): v for x, y, v in
                 zip(br.xs, br.ys, br.interpolate(values[[0, 2, 1]])[:, 0])}
        common = set(key_f) & set(key_r)
        assert len(common) > 50
        for pixel in common:
            assert key_f[pixel] == pytest.approx(key_r[pixel], abs=1e-4)
