"""Direct unit tests for the depth, blend and vertex stages."""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.geometry import mat4, quad_buffer
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.blending import BlendStage
from repro.pipeline.command_processor import DrawInvocation
from repro.pipeline.depth import DepthStage
from repro.pipeline.vertex_stage import VertexStage
from repro.geometry.primitives import DrawState
from repro.shaders import FLAT_COLOR, pack_constants


class TestDepthStage:
    def make_tile(self, depth=1.0):
        return np.full((16, 16), depth, dtype=np.float32)

    def test_closer_fragments_pass_and_update(self):
        stage = DepthStage()
        tile = self.make_tile(1.0)
        xs = np.array([0, 1, 2])
        ys = np.array([0, 0, 0])
        depth = np.array([0.5, 0.3, 0.9], dtype=np.float32)
        mask = stage.test(tile, xs, ys, depth)
        assert mask.all()
        assert np.allclose(tile[0, :3], [0.5, 0.3, 0.9])

    def test_farther_fragments_culled(self):
        stage = DepthStage()
        tile = self.make_tile(0.4)
        mask = stage.test(
            tile, np.array([0]), np.array([0]),
            np.array([0.6], dtype=np.float32),
        )
        assert not mask.any()
        assert stage.stats.fragments_culled == 1

    def test_equal_depth_fails_less_test(self):
        stage = DepthStage()
        tile = self.make_tile(0.5)
        mask = stage.test(
            tile, np.array([0]), np.array([0]),
            np.array([0.5], dtype=np.float32),
        )
        assert not mask.any()

    def test_depth_test_disabled_passes_everything(self):
        stage = DepthStage()
        tile = self.make_tile(0.0)
        mask = stage.test(
            tile, np.array([0]), np.array([0]),
            np.array([0.9], dtype=np.float32), depth_test=False,
        )
        assert mask.all()
        assert tile[0, 0] == pytest.approx(0.9)  # write still happens

    def test_no_write_when_depth_write_off(self):
        stage = DepthStage()
        tile = self.make_tile(1.0)
        stage.test(
            tile, np.array([0]), np.array([0]),
            np.array([0.2], dtype=np.float32), depth_write=False,
        )
        assert tile[0, 0] == 1.0


class TestBlendStage:
    def test_replace(self):
        stage = BlendStage()
        tile = np.zeros((16, 16, 4), dtype=np.float32)
        colors = np.array([[1, 0, 0, 1]], dtype=np.float32)
        stage.blend(tile, np.array([2]), np.array([3]), colors)
        assert np.allclose(tile[3, 2], [1, 0, 0, 1])
        assert stage.stats.fragments_blended == 1
        assert stage.stats.alpha_blends == 0

    def test_alpha_blend_mixes(self):
        stage = BlendStage()
        tile = np.zeros((16, 16, 4), dtype=np.float32)
        tile[:] = [0, 0, 1, 1]
        colors = np.array([[1, 0, 0, 0.5]], dtype=np.float32)
        stage.blend(tile, np.array([0]), np.array([0]), colors, alpha=True)
        assert np.allclose(tile[0, 0], [0.5, 0, 0.5, 1.0], atol=1e-6)
        assert stage.stats.alpha_blends == 1

    def test_empty_batch_is_noop(self):
        stage = BlendStage()
        tile = np.zeros((16, 16, 4), dtype=np.float32)
        stage.blend(tile, np.empty(0, int), np.empty(0, int),
                    np.empty((0, 4), np.float32))
        assert stage.stats.fragments_blended == 0


class TestVertexStage:
    def make_invocation(self, buffer):
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        return DrawInvocation(
            state=state, buffer=buffer,
            cull_backfaces=False, depth_test=True, depth_write=True,
        )

    def test_shades_all_vertices_once(self):
        config = GpuConfig.small()
        stage = VertexStage(MemoryHierarchy(config))
        buffer = quad_buffer(0.0, 0.0, 1.0, 1.0, subdivide=4)
        shaded = stage.run(self.make_invocation(buffer))
        assert shaded.clip.shape == (buffer.num_vertices, 4)
        assert stage.stats.vertices_shaded == 25
        assert stage.stats.vertices_fetched == 25
        assert stage.stats.shader_instructions == (
            25 * FLAT_COLOR.vertex_instructions
        )

    def test_fetch_generates_vertex_traffic(self):
        config = GpuConfig.small()
        memory = MemoryHierarchy(config)
        stage = VertexStage(memory)
        buffer = quad_buffer(0.0, 0.0, 1.0, 1.0, subdivide=8)
        stage.run(self.make_invocation(buffer))
        memory.resolve()
        assert memory.traffic.bytes("vertices") > 0
        assert stage.stats.stall_cycles > 0
        assert stage.stats.fetch_bytes == 81 * buffer.vertex_bytes()

    def test_cached_refetch_is_cheap(self):
        def vertex_traffic(runs):
            config = GpuConfig.small()
            memory = MemoryHierarchy(config)
            stage = VertexStage(memory)
            buffer = quad_buffer(0.0, 0.0, 1.0, 1.0)
            for _ in range(runs):
                stage.run(self.make_invocation(buffer))
            memory.resolve()
            return memory.traffic.bytes("vertices")

        first = vertex_traffic(1)
        assert first > 0
        # A re-fetch in the same frame: all hits.
        assert vertex_traffic(2) == first
