"""The host memos replay exactly, whatever they hold.

A batched GPU takes a drawcall's geometry from the geometry memo, its
full-screen raster from the raster memo and a rendered tile from the
tile memo.  Each is a :class:`~repro.pipeline.memo.MemoStore`.  These
tests pin what a replay skips and what it still does: a replayed frame
runs no geometry stage, a memo that evicts on every ``put`` still renders
exactly and counts each eviction, and a replayed drawcall gets a batch of
its own that shares the entry's arrays.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.geometry import mat4, quad_buffer
from repro.harness.runner import make_technique
from repro.pipeline import CommandStream, Gpu
from repro.pipeline.gpu import GEOMETRY_MEMO_BUDGET
from repro.pipeline.memo import MemoStore
from repro.pipeline.primitive_assembly import PrimitiveAssembly
from repro.pipeline.rasterizer import RASTER_MEMO_BUDGET, RasterMemo
from repro.pipeline.tile_scheduler import TILE_MEMO_BUDGET
from repro.pipeline.tiling import PolygonListBuilder
from repro.pipeline.vertex_stage import VertexStage
from repro.shaders import FLAT_COLOR, pack_constants
from repro.workloads.games import build_scene

FRAMES = 3


def assert_same_frame(a, b, label):
    stats_a, stats_b = dataclasses.asdict(a), dataclasses.asdict(b)
    colors_a, colors_b = stats_a.pop("frame_colors"), stats_b.pop("frame_colors")
    diffs = {key: (stats_a[key], stats_b[key])
             for key in stats_a if stats_a[key] != stats_b[key]}
    assert not diffs, f"{label}: {diffs}"
    assert np.array_equal(colors_a, colors_b), label


def render(gpu, alias, frames=FRAMES):
    scene = build_scene(alias)
    return [gpu.render_frame(stream, clear_color=scene.clear_color)
            for stream in scene.frames(frames)]


def reference(config, alias, technique):
    scalar = Gpu(config, make_technique(technique, config), batched=False)
    return render(scalar, alias)


def install(gpu, memo: str, store: MemoStore) -> None:
    """Give ``gpu`` the memo ``memo`` backed by ``store``."""
    config = gpu.config
    if memo == "geometry":
        gpu._geometry_memo = store
    elif memo == "raster":
        gpu.raster._memo = RasterMemo(
            config.tile_size, config.tiles_x,
            (0, 0, config.screen_width, config.screen_height), store=store,
        )
    else:
        gpu.raster._tile_memo = store


@pytest.mark.parametrize("memo", ["geometry", "raster", "tile"])
def test_a_memo_that_evicts_on_every_put_renders_exactly(memo):
    config = GpuConfig.small()
    gpu = Gpu(config, make_technique("re", config))
    # Fresh memos, so that whatever ran before, each one is consulted.
    install(gpu, "geometry", MemoStore(GEOMETRY_MEMO_BUDGET))
    install(gpu, "raster", MemoStore(RASTER_MEMO_BUDGET))
    install(gpu, "tile", MemoStore(TILE_MEMO_BUDGET))
    store = MemoStore(0)
    install(gpu, memo, store)
    frames = render(gpu, "ccs")
    for i, (a, b) in enumerate(zip(frames, reference(config, "ccs", "re"))):
        assert_same_frame(a, b, f"{memo} memo, frame {i}")
    # Every miss stored an entry, and every store after the first
    # evicted the one before it.
    assert store.misses > 1
    assert len(store) == 1
    assert store.evictions == store.misses - 1
    assert store.retained == next(iter(store._entries.values()))[1]


def test_a_replayed_frame_runs_no_geometry_stage(monkeypatch):
    """Once the geometry memo holds a scene's drawcalls, a GPU renders
    the scene without shading a vertex, assembling a triangle or
    computing a tile overlap, and still equals the scalar reference."""
    config = GpuConfig.small()
    memo = MemoStore(GEOMETRY_MEMO_BUDGET)
    first = Gpu(config, make_technique("re", config))
    first._geometry_memo = memo
    render(first, "hop")

    def refuse(self, *args, **kwargs):
        raise AssertionError("a geometry stage ran on a replayed frame")

    for owner, name in ((VertexStage, "run"),
                        (PrimitiveAssembly, "assemble"),
                        (PolygonListBuilder, "overlaps")):
        monkeypatch.setattr(owner, name, refuse)
    replayed = Gpu(config, make_technique("re", config))
    replayed._geometry_memo = memo
    misses = memo.misses
    frames = render(replayed, "hop")
    assert memo.misses == misses
    monkeypatch.undo()
    for i, (a, b) in enumerate(zip(frames, reference(config, "hop", "re"))):
        assert_same_frame(a, b, f"replayed frame {i}")


def test_each_drawcall_gets_its_own_batch_sharing_the_entrys_arrays():
    config = GpuConfig.small()
    gpu = Gpu(config, make_technique("re", config))
    gpu._geometry_memo = MemoStore(GEOMETRY_MEMO_BUDGET)
    buffer = quad_buffer(0.1, 0.1, 0.7, 0.6, subdivide=2)
    stream = CommandStream()
    stream.set_shader(FLAT_COLOR)
    stream.set_constants(pack_constants(mat4.ortho2d()))
    stream.draw(buffer)
    stream.draw(buffer)
    gpu.render_frame(stream)
    (first, _, _), (second, _, _) = gpu.plb.parameter_buffer.drawcalls
    assert (gpu._geometry_memo.hits, gpu._geometry_memo.misses) == (1, 1)
    assert first is not second
    assert second.screen is first.screen
    assert second.attributes is first.attributes
    assert second.row_bytes is first.row_bytes
    assert second.state is not first.state
    assert second.state.drawcall_id == 1
    # Each drawcall took its own Parameter-Buffer slots.
    assert not np.intersect1d(first.pb_offsets, second.pb_offsets).size
    assert first.pb_offsets.flags.writeable
    assert not second.screen.flags.writeable
