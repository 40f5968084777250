"""Fragment stage: shading, texture-cache traffic, memo hook, errors."""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.errors import PipelineError
from repro.geometry import DrawState, Primitive, mat4
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.fragment_stage import FragmentStage
from repro.pipeline.rasterizer import FragmentBatch
from repro.shaders import FLAT_COLOR, TEXTURED, pack_constants
from repro.textures import flat_texture

CONFIG = GpuConfig.small()


def make_stage():
    memory = MemoryHierarchy(CONFIG)
    return FragmentStage(memory), memory


def make_batch(shader=FLAT_COLOR, textures=(), count=4, varyings=None):
    state = DrawState(
        shader=shader, constants=pack_constants(mat4.ortho2d(),
                                                tint=(0.5, 0.5, 0.5, 1.0)),
        textures=textures,
    )
    prim = Primitive(
        screen=np.zeros((3, 2), np.float32),
        depth=np.zeros(3, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings=varyings or {},
        state=state,
    )
    bary = np.full((count, 3), 1.0 / 3.0, dtype=np.float32)
    return FragmentBatch(
        prim=prim,
        xs=np.arange(count, dtype=np.int32),
        ys=np.zeros(count, dtype=np.int32),
        depth=np.full(count, 0.5, np.float32),
        bary=bary,
    )


def shade(stage, batch, mask):
    """Shade ``batch``'s fragments under ``mask`` as the per-tile path
    does: one primitive's batch, whose texels go to memory at once."""
    colors, texels = stage.shade(
        batch.prim.state, (batch.prim,), (int(np.count_nonzero(mask)),),
        batch.xs[mask], batch.ys[mask], batch.bary[mask],
    )
    if texels.size:
        stage.fetch_texels(texels.size, stage.memory.texel_lines(texels))
    return colors


class TestShading:
    def test_flat_shading_counts(self):
        stage, _ = make_stage()
        batch = make_batch(count=6)
        colors = shade(stage, batch, np.ones(6, dtype=bool))
        assert colors.shape == (6, 4)
        assert np.allclose(colors, [0.5, 0.5, 0.5, 1.0])
        assert stage.stats.fragments_shaded == 6
        assert stage.stats.shader_instructions == (
            6 * FLAT_COLOR.fragment_instructions
        )

    def test_partial_mask(self):
        stage, _ = make_stage()
        batch = make_batch(count=6)
        mask = np.array([True, False, True, False, True, False])
        colors = shade(stage, batch, mask)
        assert colors.shape == (3, 4)
        assert stage.stats.fragments_shaded == 3

    def test_empty_mask_is_noop(self):
        stage, _ = make_stage()
        batch = make_batch(count=4)
        colors = shade(stage, batch, np.zeros(4, dtype=bool))
        assert colors.shape == (0, 4)
        assert stage.stats.fragments_shaded == 0

    def test_textured_batch_generates_texel_traffic(self):
        stage, memory = make_stage()
        texture = flat_texture((1, 0, 0, 1), texture_id=5)
        uv = np.array([[0, 0], [0.5, 0], [1, 0.5]], dtype=np.float32)
        batch = make_batch(
            shader=TEXTURED, textures=(texture,), count=3,
            varyings={"uv": uv},
        )
        shade(stage, batch, np.ones(3, dtype=bool))
        memory.resolve()
        assert stage.stats.texture_fetches == 3
        assert memory.traffic.bytes("texels") > 0
        assert stage.stats.stall_cycles > 0

    def test_unbound_texture_unit_raises(self):
        stage, _ = make_stage()
        uv = np.zeros((3, 2), dtype=np.float32)
        batch = make_batch(shader=TEXTURED, textures=(), count=3,
                           varyings={"uv": uv})
        with pytest.raises(PipelineError):
            shade(stage, batch, np.ones(3, dtype=bool))


class TestMemoHook:
    def test_filter_reduces_shaded_count(self):
        stage, _ = make_stage()
        stage.memo_filter = lambda prim, varyings: 2
        batch = make_batch(count=5)
        shade(stage, batch, np.ones(5, dtype=bool))
        assert stage.stats.fragments_shaded == 3
        assert stage.stats.fragments_memoized == 2

    def test_filter_scales_texture_traffic(self):
        texture = flat_texture((1, 1, 1, 1), texture_id=6)
        uv = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.float32)

        def run(memoized):
            stage, memory = make_stage()
            if memoized:
                stage.memo_filter = lambda prim, varyings: 4
            batch = make_batch(shader=TEXTURED, textures=(texture,),
                               count=4, varyings={"uv": uv})
            shade(stage, batch, np.ones(4, dtype=bool))
            memory.resolve()
            return stage.stats.texture_cache_accesses

        assert run(memoized=True) < run(memoized=False) or run(True) == 0
