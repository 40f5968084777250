"""Polygon List Builder: binning, Parameter Buffer, listener events."""

import numpy as np

from repro.config import GpuConfig
from repro.geometry import DrawState, Primitive, mat4
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.tiling import TILE_POINTER_BYTES, PolygonListBuilder
from repro.shaders import FLAT_COLOR, pack_constants

CONFIG = GpuConfig.small()   # 6x4 tiles of 16px


def prim_at(x0, y0, x1, y1, state=None):
    screen = np.array([[x0, y0], [x1, y0], [x0, y1]], dtype=np.float32)
    return Primitive(
        screen=screen,
        depth=np.full(3, 0.5, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings={},
        state=state or DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d())),
    )


class RecordingListener:
    def __init__(self):
        self.states = []
        self.primitives = []

    def on_draw_state(self, state):
        self.states.append(state)

    def on_primitive(self, prim, tile_ids):
        self.primitives.append((prim, list(tile_ids)))


def make_plb(listener=None):
    listeners = (listener,) if listener else ()
    return PolygonListBuilder(CONFIG, MemoryHierarchy(CONFIG),
                              listeners=listeners)


class TestOverlappedTiles:
    def test_single_tile_triangle(self):
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(2, 2, 10, 10))
        assert tiles == [0]

    def test_triangle_spanning_tiles(self):
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(2, 2, 40, 20))
        # bbox covers tile columns 0..2, rows 0..1.
        assert set(tiles) == {0, 1, 2, 6, 7, 8}

    def test_offscreen_triangle_empty(self):
        plb = make_plb()
        assert plb.overlapped_tiles(prim_at(200, 200, 210, 210)) == []

    def test_partially_offscreen_clamped(self):
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(-50, -50, 10, 10))
        assert tiles == [0]

    def test_binning_is_conservative_bbox(self):
        # A thin diagonal triangle lists all bbox tiles even where its
        # area misses them; the Signature Unit sees the same list.
        plb = make_plb()
        tiles = plb.overlapped_tiles(prim_at(0, 0, 95, 63))
        assert len(tiles) == CONFIG.num_tiles


class TestBinning:
    def test_parameter_buffer_contents(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prim = prim_at(2, 2, 30, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, [prim])
        assert plb.parameter_buffer.tile_primitives(0) == [prim]
        assert plb.parameter_buffer.tile_primitives(1) == [prim]
        assert plb.parameter_buffer.occupied_tiles() == [0, 1]

    def test_pb_offsets_assigned_sequentially(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prims = [prim_at(2, 2, 10, 10, state), prim_at(20, 2, 28, 10, state)]
        plb.begin_frame()
        plb.bin_drawcall(state, prims)
        assert prims[0].pb_offset == 0
        assert prims[1].pb_offset == prims[0].parameter_buffer_bytes()

    def test_stats_and_traffic(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prim = prim_at(2, 2, 30, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, [prim])
        expected = prim.parameter_buffer_bytes() + 2 * TILE_POINTER_BYTES
        assert plb.stats.parameter_bytes_written == expected
        assert plb.stats.tile_entries == 2
        plb.memory.resolve()
        assert plb.memory.traffic.bytes("parameter_write") == expected
        assert plb.stats.stall_cycles > 0

    def test_listeners_see_state_then_primitives(self):
        listener = RecordingListener()
        plb = make_plb(listener)
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prim = prim_at(2, 2, 10, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, [prim])
        assert listener.states == [state]
        assert listener.primitives[0][0] is prim
        assert listener.primitives[0][1] == [0]

    def test_offscreen_primitives_not_reported(self):
        listener = RecordingListener()
        plb = make_plb(listener)
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        plb.begin_frame()
        plb.bin_drawcall(state, [prim_at(500, 500, 510, 510, state)])
        assert listener.primitives == []
        assert plb.stats.primitives_binned == 0

    def test_begin_frame_resets(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        plb.begin_frame()
        plb.bin_drawcall(state, [prim_at(2, 2, 10, 10, state)])
        plb.begin_frame()
        assert plb.parameter_buffer.occupied_tiles() == []
        new_prim = prim_at(2, 2, 10, 10, state)
        plb.bin_drawcall(state, [new_prim])
        assert new_prim.pb_offset == 0

    def test_tile_bytes_sums_primitives(self):
        plb = make_plb()
        state = DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))
        prims = [prim_at(2, 2, 10, 10, state), prim_at(3, 3, 12, 12, state)]
        plb.begin_frame()
        plb.bin_drawcall(state, prims)
        expected = sum(
            p.parameter_buffer_bytes() + TILE_POINTER_BYTES for p in prims
        )
        assert plb.parameter_buffer.tile_bytes(0) == expected

