"""Raster pipeline driver: tile scheduling, PB fetch, flush accounting."""

import numpy as np

from repro.config import GpuConfig
from repro.geometry import DrawState, Primitive, PrimitiveBatch, mat4
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.fragment_stage import FragmentStage
from repro.pipeline.framebuffer import FrameBuffer
from repro.pipeline.tile_scheduler import RasterPipeline
from repro.pipeline.tiling import ParameterBuffer
from repro.shaders import FLAT_COLOR, pack_constants

CONFIG = GpuConfig.small()


def make_raster():
    memory = MemoryHierarchy(CONFIG)
    fragment_stage = FragmentStage(memory)
    fb = FrameBuffer(CONFIG)
    return RasterPipeline(CONFIG, memory, fb, fragment_stage), memory


def full_tile_prim(tint=(1, 0, 0, 1), z=0.5):
    state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d(), tint=tint))
    prim = Primitive(
        screen=np.array([[0, 0], [40, 0], [0, 40]], dtype=np.float32),
        depth=np.full(3, z, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings={},
        state=state,
    )
    return prim


def insert(pb, prim, tile_ids, pb_offset=0):
    """List ``prim``, as a drawcall of one, in each of ``tile_ids``."""
    batch = PrimitiveBatch.from_primitives(prim.state, [prim])
    for tile_id in tile_ids:
        pb.extend(tile_id, batch, np.zeros(1, dtype=np.int64),
                  [pb_offset], [batch.parameter_buffer_bytes])


class TestRenderTile:
    def test_clear_color_when_no_primitives(self):
        raster, _ = make_raster()
        pb = ParameterBuffer(CONFIG.num_tiles)
        colors = raster.render_tile(0, pb, clear_color=(0.3, 0.1, 0.2, 1.0))
        assert np.allclose(colors[0, 0], [0.3, 0.1, 0.2, 1.0])
        assert raster.stats.tiles_rendered == 1
        assert raster.stats.fragments_rasterized == 0

    def test_primitive_covers_tile(self):
        raster, _ = make_raster()
        pb = ParameterBuffer(CONFIG.num_tiles)
        insert(pb, full_tile_prim(), [0])
        colors = raster.render_tile(0, pb, clear_color=(0, 0, 0, 1))
        assert np.allclose(colors[0, 0], [1, 0, 0, 1])
        assert raster.stats.prim_tile_pairs == 1
        assert raster.stats.fragments_rasterized > 100

    def test_pb_fetch_counts_bytes_and_traffic(self):
        raster, memory = make_raster()
        pb = ParameterBuffer(CONFIG.num_tiles)
        prim = full_tile_prim()
        insert(pb, prim, [0])
        raster.render_tile(0, pb, clear_color=(0, 0, 0, 1))
        memory.resolve()
        assert raster.stats.pb_bytes_fetched > prim.parameter_buffer_bytes() - 1
        assert memory.traffic.bytes("primitives") > 0
        assert raster.stats.stall_cycles > 0

    def test_shared_primitive_refetch_hits_tile_cache(self):
        def primitive_traffic(tiles):
            raster, memory = make_raster()
            pb = ParameterBuffer(CONFIG.num_tiles)
            insert(pb, full_tile_prim(), [0, 1])
            for tile_id in tiles:
                raster.render_tile(tile_id, pb, clear_color=(0, 0, 0, 1))
            memory.resolve()
            return memory.traffic.bytes("primitives")

        first = primitive_traffic([0])
        # Second tile re-reads the same PB lines in the same frame:
        # cache hits, no DRAM.
        assert first > 0
        assert primitive_traffic([0, 1]) == first

    def test_flush_writes_framebuffer_and_traffic(self):
        raster, memory = make_raster()
        pb = ParameterBuffer(CONFIG.num_tiles)
        insert(pb, full_tile_prim(tint=(0, 1, 0, 1)), [0])
        colors = raster.render_tile(0, pb, clear_color=(0, 0, 0, 1))
        raster.flush_tile(0, colors)
        memory.resolve()
        assert raster.stats.flush_bytes == 16 * 16 * 4
        assert memory.traffic.bytes("colors") == 16 * 16 * 4
        assert np.allclose(raster.framebuffer.back[0, 0], [0, 1, 0, 1])

    def test_depth_between_primitives_in_one_tile(self):
        raster, _ = make_raster()
        pb = ParameterBuffer(CONFIG.num_tiles)
        insert(pb, full_tile_prim(tint=(1, 0, 0, 1), z=0.2), [0])
        insert(pb, full_tile_prim(tint=(0, 0, 1, 1), z=0.8), [0],
               pb_offset=256)
        colors = raster.render_tile(0, pb, clear_color=(0, 0, 0, 1))
        # The nearer (red) primitive wins even though drawn first.
        assert np.allclose(colors[0, 0], [1, 0, 0, 1])
        assert raster.depth_stage.stats.fragments_culled > 0
