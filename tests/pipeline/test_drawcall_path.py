"""The per-drawcall raster path equals the per-tile reference.

A batched GPU renders the tiles it does not skip one drawcall at a time
over screen-sized buffers; ``Gpu(batched=False)`` renders them one
(primitive, tile) batch at a time.  On hand-built frames that exercise
each corner of the per-drawcall path, every frame's colors and every
:class:`FrameStats` field must be equal.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.geometry import Primitive, VertexBuffer, mat4, quad_buffer
from repro.harness.runner import make_technique
from repro.pipeline import CommandStream, Gpu
from repro.pipeline.depth import DepthStage
from repro.pipeline.memo import MemoStore
from repro.pipeline.tile_scheduler import (
    TILE_DELTA_KEYS,
    TILE_MEMO_BUDGET,
    RasterPipeline,
)
from repro.shaders import ALPHA_TEXTURED, FLAT_COLOR, TEXTURED, pack_constants
from repro.textures import checker_texture, noise_texture
from repro.workloads.games import build_scene

PROJ = mat4.ortho2d()

#: Drawcalls per frame of :func:`frame_stream`.
DRAWCALLS = 5


def merged(*buffers) -> VertexBuffer:
    """One vertex buffer, and so one drawcall, holding every buffer's
    triangles in order."""
    offsets = np.cumsum([0] + [b.num_vertices for b in buffers[:-1]])
    return VertexBuffer(
        np.concatenate([b.positions for b in buffers]),
        np.concatenate([b.indices + o for b, o in zip(buffers, offsets)]),
        {"uv": np.concatenate([b.attributes["uv"] for b in buffers])},
    )


def frame_stream(frame: int) -> CommandStream:
    """Five drawcalls; only the last one moves, with period two."""
    stream = CommandStream()
    # Background across every tile, several primitives per tile.
    stream.set_shader(FLAT_COLOR)
    stream.set_constants(pack_constants(PROJ, tint=(0.1, 0.2, 0.3, 1.0)))
    stream.draw(quad_buffer(0.0, 0.0, 1.0, 1.0, z=0.9, subdivide=3))
    # Textured, across tile borders, two overlapping quads in one
    # drawcall: the nearer second quad's shared pixels need a second
    # ordered pass.  The texture outgrows the 8-KB texture cache, so the
    # order of each tile's texel lines shows in its miss count.
    stream.set_shader(TEXTURED)
    stream.set_texture(0, noise_texture(texture_id=1, size=128, seed=4))
    stream.set_constants(pack_constants(PROJ))
    stream.draw(merged(quad_buffer(0.1, 0.1, 0.6, 0.7, z=0.5),
                       quad_buffer(0.3, 0.2, 0.8, 0.9, z=0.4,
                                   uv_scale=3.0)))
    # Alpha-blended overlapping quads without depth writes: the blend
    # order at shared pixels is program order.
    stream.set_shader(ALPHA_TEXTURED)
    stream.set_texture(0, checker_texture((1, 0, 0, 0.5), (0, 1, 0, 0.25),
                                          texture_id=2, size=16))
    stream.set_constants(pack_constants(PROJ, tint=(1, 1, 1, 0.8)))
    stream.draw(merged(quad_buffer(0.2, 0.4, 0.7, 0.95, z=0.3),
                       quad_buffer(0.45, 0.5, 0.95, 0.8, z=0.35)),
                depth_write=False)
    # No depth test: the later of two overlapping quads wins, even
    # though it lies behind.
    stream.set_shader(FLAT_COLOR)
    stream.set_constants(pack_constants(PROJ, tint=(0.9, 0.8, 0.1, 1.0)))
    stream.draw(merged(quad_buffer(0.0, 0.0, 0.3, 0.3, z=0.2),
                       quad_buffer(0.15, 0.1, 0.4, 0.35, z=0.95)),
                depth_test=False)
    # A mover: the tiles it leaves or enters miss the tile memo, the
    # others hit it.
    x = 0.05 if frame % 2 == 0 else 0.6
    stream.set_constants(pack_constants(PROJ, tint=(1.0, 1.0, 1.0, 1.0)))
    stream.draw(quad_buffer(x, 0.7, x + 0.2, 0.95, z=0.1))
    return stream


def fingerprint(stats):
    data = dataclasses.asdict(stats)
    return data, data.pop("frame_colors")


@pytest.mark.parametrize("technique", ["baseline", "re", "te", "re+te"])
def test_per_drawcall_path_equals_per_tile_reference(technique, monkeypatch):
    config = GpuConfig.small()
    batched = Gpu(config, make_technique(technique, config))
    scalar = Gpu(config, make_technique(technique, config), batched=False)
    # A memo of its own: frame 0 must miss whatever ran before.
    memo = batched.raster._tile_memo = MemoStore(TILE_MEMO_BUDGET)
    tests = []
    test = DepthStage.test

    def counted_test(self, *args, **kwargs):
        tests.append(self)
        return test(self, *args, **kwargs)

    monkeypatch.setattr(DepthStage, "test", counted_test)
    for frame in range(4):
        hits, misses = memo.hits, memo.misses
        del tests[:]
        a = batched.render_frame(frame_stream(frame))
        early_z_calls = len(tests)
        b = scalar.render_frame(frame_stream(frame))
        stats_a, colors_a = fingerprint(a)
        stats_b, colors_b = fingerprint(b)
        diffs = {key: (stats_a[key], stats_b[key])
                 for key in stats_a if stats_a[key] != stats_b[key]}
        assert not diffs, f"{technique} frame {frame}: {diffs}"
        assert np.array_equal(colors_a, colors_b)
        if frame == 0:
            # One early-Z call per drawcall, plus the second passes of
            # the three drawcalls with overlapping quads.
            assert early_z_calls == DRAWCALLS + 3
        if frame == 1:
            assert memo.hits > hits and memo.misses > misses
        if frame == 2 and technique == "te":
            assert a.raster.flushes_suppressed == config.num_tiles


def test_missed_tile_deltas_sum_to_the_stage_counts(monkeypatch):
    """A missed tile's tile memo delta is built from per-segment counts;
    over a frame's missed tiles the deltas must add up to what the
    raster, early-Z, shading and blend stages counted themselves, or
    tile memo hits would replay counts that no render produced."""
    config = GpuConfig.small()
    gpu = Gpu(config, make_technique("baseline", config))
    gpu.raster._tile_memo = MemoStore(TILE_MEMO_BUDGET)
    registry = gpu.stats_registry
    missed = []
    render_drawcalls = RasterPipeline.render_drawcalls

    def checked(self, *args):
        before = registry.snapshot()
        render_drawcalls(self, *args)
        counted = registry.delta(before)
        deltas = [delta for entry, _, delta, _ in self._pending.values()
                  if entry is None]
        summed = np.zeros(len(TILE_DELTA_KEYS), dtype=np.int64)
        for delta in deltas:
            summed += delta
        assert dict(zip(TILE_DELTA_KEYS, summed.tolist())) == {
            key: counted[key] for key in TILE_DELTA_KEYS
        }
        missed.append(len(deltas))

    monkeypatch.setattr(RasterPipeline, "render_drawcalls", checked)
    for frame in range(3):
        gpu.render_frame(frame_stream(frame))
    # Frame 0 misses every tile, frame 1 those the mover changed, and
    # frame 2 repeats frame 0.
    assert missed[0] == config.num_tiles
    assert 0 < missed[1] < config.num_tiles
    assert missed[2] == 0


@pytest.mark.parametrize("technique", ["re", "te"])
def test_batched_path_builds_no_primitive(technique, monkeypatch):
    """After Primitive Assembly a triangle exists only as a row of its
    drawcall's batch: binning, signing and the per-drawcall raster pass
    all read rows, so a batched GPU renders without one Primitive."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Primitive was built")

    monkeypatch.setattr(Primitive, "__init__", refuse)
    config = GpuConfig.small()
    gpu = Gpu(config, make_technique(technique, config))
    # A memo of its own, so that every tile of frame 0 is rendered.
    gpu.raster._tile_memo = MemoStore(TILE_MEMO_BUDGET)
    scene = build_scene("ccs")
    frames = [gpu.render_frame(stream, clear_color=scene.clear_color)
              for stream in scene.frames(2)]
    assert frames[0].raster.tiles_rendered == config.num_tiles
    assert frames[0].fragment.fragments_shaded > 0
