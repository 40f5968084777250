"""The batched raster path is bit-identical to the scalar reference.

The batched path (``Gpu(batched=True)``, the default) rasterizes each
primitive once for the whole screen, renders one drawcall at a time,
and reuses raster and tile memos across frames and GPU instances.  The
scalar path (``batched=False``) rasterizes per (primitive, tile) and
never touches a memo — it is the reference semantics, and a batched GPU
whose technique installs a memo filter renders on it too.  Every frame's
colors and every :class:`FrameStats` activity count must match exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.geometry import DrawState, Primitive, PrimitiveBatch, mat4
from repro.harness.runner import make_technique
from repro.pipeline import Gpu
from repro.pipeline.rasterizer import (
    RasterMemo,
    RasterMemoStore,
    TiledRaster,
    rasterize,
    shared_raster_memo,
)
from repro.shaders import FLAT_COLOR, pack_constants
from repro.workloads.games import build_scene


def frame_fingerprint(stats):
    """FrameStats as comparable data: all counters + the color array."""
    data = dataclasses.asdict(stats)
    colors = data.pop("frame_colors")
    return data, colors


def render_both(alias, technique, frames, preset=GpuConfig.small):
    """Render ``frames`` frames batched and scalar; yield stat pairs."""
    config_a, config_b = preset(), preset()
    batched = Gpu(config_a, make_technique(technique, config_a), batched=True)
    scalar = Gpu(config_b, make_technique(technique, config_b), batched=False)
    scene_a, scene_b = build_scene(alias), build_scene(alias)
    for stream_a, stream_b in zip(scene_a.frames(frames),
                                  scene_b.frames(frames)):
        yield (
            batched.render_frame(stream_a, clear_color=scene_a.clear_color),
            scalar.render_frame(stream_b, clear_color=scene_b.clear_color),
        )


CASES = [
    ("ccs", "baseline"),
    ("ccs", "re"),
    ("hop", "baseline"),
    ("hop", "re"),
    ("mst", "te"),
    ("mst", "memo"),   # memo_filter installed: both render tile by tile
    # Every other game once, so each game's tile runs are checked.
    ("cde", "re"),
    ("coc", "re"),
    ("ctr", "re"),
    ("abi", "re"),
    ("csn", "re"),
    ("ter", "re"),
    ("tib", "re"),
]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("alias,technique", CASES)
    def test_frames_and_stats_bit_identical(self, alias, technique):
        self.check(render_both(alias, technique, 3), f"{alias}/{technique}")

    def test_benchmark_scale_bit_identical(self):
        self.check(render_both("hop", "re", 2, GpuConfig.benchmark),
                   "hop/re at benchmark scale")

    @staticmethod
    def check(pairs, label):
        for frame, (a, b) in enumerate(pairs):
            stats_a, colors_a = frame_fingerprint(a)
            stats_b, colors_b = frame_fingerprint(b)
            diffs = {
                key: (stats_a[key], stats_b[key])
                for key in stats_a if stats_a[key] != stats_b[key]
            }
            assert not diffs, f"{label} frame {frame}: {diffs}"
            assert np.array_equal(colors_a, colors_b)

    def test_scalar_path_has_no_memos(self):
        config = GpuConfig.small()
        gpu = Gpu(config, batched=False)
        assert gpu._raster_memo is None
        assert gpu._tile_memo is None


def make_prim(screen, depth):
    return Primitive(
        screen=np.asarray(screen, dtype=np.float32),
        depth=np.asarray(depth, dtype=np.float32),
        clip=np.ones((3, 4), dtype=np.float32),
        varyings={"uv": np.zeros((3, 2), dtype=np.float32)},
        state=DrawState(
            shader=FLAT_COLOR, constants=pack_constants(mat4.ortho2d())
        ),
    )


def make_batch(screen, depth):
    """A drawcall of one primitive, for :meth:`RasterMemo.get`'s row 0."""
    prim = make_prim(screen, depth)
    return PrimitiveBatch.from_primitives(prim.state, [prim])


coordinate = st.floats(
    min_value=-8.0, max_value=40.0, allow_nan=False, width=32
)


class TestTiledRasterProperty:
    """Full-screen rasterization sliced per tile equals per-tile calls."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(coordinate, min_size=6, max_size=6),
           st.lists(st.floats(0.0, 1.0, width=32), min_size=3, max_size=3))
    def test_slices_match_per_tile_rasterize(self, coords, depths):
        tile_size, tiles_x, tiles_y = 8, 4, 4
        screen_rect = (0, 0, tile_size * tiles_x, tile_size * tiles_y)
        prim = make_prim(np.asarray(coords).reshape(3, 2), depths)

        tiled = TiledRaster(
            rasterize(prim.screen, prim.depth, screen_rect), tile_size,
            tiles_x
        )
        total = 0
        for tile_id in range(tiles_x * tiles_y):
            ty, tx = divmod(tile_id, tiles_x)
            rect = (tx * tile_size, ty * tile_size,
                    (tx + 1) * tile_size, (ty + 1) * tile_size)
            reference = rasterize(prim.screen, prim.depth, rect)
            sliced = tiled.tile(tile_id)
            assert np.array_equal(sliced.xs, reference.xs)
            assert np.array_equal(sliced.ys, reference.ys)
            # Bit-exact, not approximately-equal: same float32 words.
            assert sliced.depth.tobytes() == reference.depth.tobytes()
            assert sliced.bary.tobytes() == reference.bary.tobytes()
            total += sliced.count
        assert total == tiled.fragment_count

    def test_memo_hit_serves_lookalike_primitive(self):
        memo = RasterMemo(tile_size=8, tiles_x=2)
        rect = (0, 0, 16, 16)
        screen = [[1.0, 1.0], [14.0, 2.0], [3.0, 14.0]]
        first = memo.get(make_batch(screen, [0.5, 0.5, 0.5]), 0, rect)
        second = memo.get(make_batch(screen, [0.5, 0.5, 0.5]), 0, rect)
        assert second is first
        assert (memo.hits, memo.misses) == (1, 1)
        # Different content misses.
        memo.get(make_batch(screen, [0.4, 0.5, 0.5]), 0, rect)
        assert memo.misses == 2

    def test_memo_eviction_bounded_by_fragment_budget(self):
        memo = RasterMemo(tile_size=8, tiles_x=2, fragment_budget=64)
        rect = (0, 0, 16, 16)
        for seed in range(16):
            screen = [[0.0, 0.0], [15.0 - seed * 0.25, 0.0],
                      [0.0, 15.0 - seed * 0.25]]
            memo.get(make_batch(screen, [0.5, 0.5, 0.5]), 0, rect)
        store = memo.store
        retained = sum(
            entry.fragment_count for entry in store._entries.values()
        )
        assert retained == store.retained_fragments
        # The budget may be exceeded only by the single newest entry.
        assert len(store) >= 1
        evicted_state = retained - store._entries[
            next(reversed(store._entries))
        ].fragment_count
        assert evicted_state <= store.fragment_budget

    def test_budget_is_global_across_memos_sharing_a_store(self):
        # The former leak: per-configuration memos each retained a full
        # budget.  A shared store evicts the *oldest entry of any memo*,
        # so hot configurations age cold ones out.
        store = RasterMemoStore(fragment_budget=200)
        memo_a = RasterMemo(tile_size=8, tiles_x=2, store=store)
        memo_b = RasterMemo(tile_size=8, tiles_x=4, store=store)
        rect_a, rect_b = (0, 0, 16, 16), (0, 0, 32, 32)
        memo_a.get(make_batch([[0, 0], [15, 0], [0, 15]], [0.5] * 3), 0, rect_a)
        assert len(store) == 1
        for seed in range(8):
            screen = [[0, 0], [31 - seed, 0], [0, 31 - seed]]
            memo_b.get(make_batch(screen, [0.5] * 3), 0, rect_b)
        # memo_a's entry was the coldest and must have been evicted to
        # make room for memo_b's large triangles.
        assert store.evictions > 0
        memo_a.get(make_batch([[0, 0], [15, 0], [0, 15]], [0.5] * 3), 0, rect_a)
        assert memo_a.misses == 2 and memo_a.hits == 0
        # Invariant: everything but possibly the newest entry fits.
        newest = store._entries[next(reversed(store._entries))]
        assert (store.retained_fragments - newest.fragment_count
                <= store.fragment_budget)

    def test_lru_refresh_on_hit(self):
        store = RasterMemoStore(fragment_budget=300)
        memo = RasterMemo(tile_size=8, tiles_x=2, store=store)
        rect = (0, 0, 16, 16)
        hot = make_batch([[0, 0], [15, 0], [0, 15]], [0.5] * 3)
        memo.get(hot, 0, rect)
        memo.get(make_batch([[0, 0], [12, 0], [0, 12]], [0.5] * 3), 0, rect)
        # Touch the older entry, making the 12px triangle the LRU one.
        memo.get(make_batch([[0, 0], [15, 0], [0, 15]], [0.5] * 3), 0, rect)
        assert memo.hits == 1
        memo.get(make_batch([[0, 0], [14, 0], [0, 14]], [0.5] * 3), 0, rect)
        if store.evictions:
            # The refreshed hot entry survived the eviction.
            memo.get(make_batch([[0, 0], [15, 0], [0, 15]], [0.5] * 3), 0, rect)
            assert memo.hits == 2

    def test_shared_memos_bind_one_store(self):
        memo_a = shared_raster_memo(8, 2, (0, 0, 16, 16))
        memo_b = shared_raster_memo(8, 4, (0, 0, 32, 32))
        assert memo_a.store is memo_b.store
        assert shared_raster_memo(8, 2, (0, 0, 16, 16)) is memo_a
