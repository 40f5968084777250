"""Polygon List Builder: binning, Parameter Buffer, listener events."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.errors import PipelineError
from repro.geometry import DrawState, Primitive, PrimitiveBatch, mat4
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.tiling import (
    TILE_POINTER_BYTES,
    PolygonListBuilder,
    TilingStats,
)
from repro.shaders import FLAT_COLOR, pack_constants

CONFIG = GpuConfig.small()   # 6x4 tiles of 16px


def make_state():
    return DrawState(FLAT_COLOR, pack_constants(mat4.ortho2d()))


def prim_at(x0, y0, x1, y1, state=None, varyings=None):
    screen = np.array([[x0, y0], [x1, y0], [x0, y1]], dtype=np.float32)
    return Primitive(
        screen=screen,
        depth=np.full(3, 0.5, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings=varyings or {},
        state=state or make_state(),
    )


def batch_of(state, prims):
    return PrimitiveBatch.from_primitives(state, prims)


class RecordingListener:
    def __init__(self):
        self.states = []
        self.primitives = []

    def on_draw_state(self, state):
        self.states.append(state)

    def on_drawcall(self, batch, prims, tiles):
        for row in np.unique(prims):
            self.primitives.append(
                (batch.primitives[row], tiles[prims == row].tolist())
            )


def make_plb(listener=None, config=CONFIG):
    listeners = (listener,) if listener else ()
    return PolygonListBuilder(config, MemoryHierarchy(config),
                              listeners=listeners)


def tiles_of(plb, prim):
    """The tile ids a one-primitive drawcall bins ``prim`` into."""
    _, _, tiles = plb.overlaps(batch_of(prim.state, [prim]))
    return tiles.tolist()


class TestOverlappedTiles:
    def test_single_tile_triangle(self):
        plb = make_plb()
        tiles = tiles_of(plb, prim_at(2, 2, 10, 10))
        assert tiles == [0]

    def test_triangle_spanning_tiles(self):
        plb = make_plb()
        tiles = tiles_of(plb, prim_at(2, 2, 40, 20))
        # bbox covers tile columns 0..2, rows 0..1, listed row-major.
        assert tiles == [0, 1, 2, 6, 7, 8]

    def test_offscreen_triangle_empty(self):
        plb = make_plb()
        assert tiles_of(plb, prim_at(200, 200, 210, 210)) == []

    def test_partially_offscreen_clamped(self):
        plb = make_plb()
        tiles = tiles_of(plb, prim_at(-50, -50, 10, 10))
        assert tiles == [0]

    def test_binning_is_conservative_bbox(self):
        # A thin diagonal triangle lists all bbox tiles even where its
        # area misses them; the Signature Unit sees the same list.
        plb = make_plb()
        tiles = tiles_of(plb, prim_at(0, 0, 95, 63))
        assert len(tiles) == CONFIG.num_tiles


class TestBinning:
    def test_parameter_buffer_contents(self):
        plb = make_plb()
        state = make_state()
        prim = prim_at(2, 2, 30, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, [prim]))
        assert plb.parameter_buffer.tile_primitives(0) == [prim]
        assert plb.parameter_buffer.tile_primitives(1) == [prim]
        assert plb.parameter_buffer.occupied_tiles() == [0, 1]

    def test_pb_offsets_assigned_sequentially(self):
        plb = make_plb()
        state = make_state()
        prims = [prim_at(2, 2, 10, 10, state), prim_at(20, 2, 28, 10, state)]
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, prims))
        assert prims[0].pb_offset == 0
        assert prims[1].pb_offset == prims[0].parameter_buffer_bytes()

    def test_stats_and_traffic(self):
        plb = make_plb()
        state = make_state()
        prim = prim_at(2, 2, 30, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, [prim]))
        expected = prim.parameter_buffer_bytes() + 2 * TILE_POINTER_BYTES
        assert plb.stats.parameter_bytes_written == expected
        assert plb.stats.tile_entries == 2
        plb.memory.resolve()
        assert plb.memory.traffic.bytes("parameter_write") == expected
        assert plb.stats.stall_cycles > 0

    def test_listeners_see_state_then_primitives(self):
        listener = RecordingListener()
        plb = make_plb(listener)
        state = make_state()
        prim = prim_at(2, 2, 10, 10, state)
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, [prim]))
        assert listener.states == [state]
        assert listener.primitives[0][0] is prim
        assert listener.primitives[0][1] == [0]

    def test_offscreen_primitives_not_reported(self):
        listener = RecordingListener()
        plb = make_plb(listener)
        state = make_state()
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, [prim_at(500, 500, 510, 510, state)]))
        assert listener.states == [state]
        assert listener.primitives == []
        assert plb.stats.primitives_binned == 0

    def test_begin_frame_resets(self):
        plb = make_plb()
        state = make_state()
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, [prim_at(2, 2, 10, 10, state)]))
        plb.begin_frame()
        assert plb.parameter_buffer.occupied_tiles() == []
        new_prim = prim_at(2, 2, 10, 10, state)
        plb.bin_drawcall(state, batch_of(state, [new_prim]))
        assert new_prim.pb_offset == 0

    def test_tile_bytes_sums_primitives(self):
        plb = make_plb()
        state = make_state()
        prims = [prim_at(2, 2, 10, 10, state), prim_at(3, 3, 12, 12, state)]
        plb.begin_frame()
        plb.bin_drawcall(state, batch_of(state, prims))
        expected = sum(
            p.parameter_buffer_bytes() + TILE_POINTER_BYTES for p in prims
        )
        assert plb.parameter_buffer.tile_bytes(0) == expected

    def test_tile_ranges_follow_each_bin(self):
        """The offsets and sizes kept next to each tile's list are its
        primitives' own, across drawcalls of different layouts."""
        plb = make_plb()
        plain, lit = make_state(), make_state()
        rng = np.random.default_rng(3)
        wide = {"uv": rng.random((3, 2)).astype(np.float32),
                "normal": rng.random((3, 6)).astype(np.float32)}
        first = [prim_at(2, 2, 40, 20, plain), prim_at(30, 10, 70, 50, plain)]
        second = [prim_at(10, 5, 60, 30, lit, wide),
                  prim_at(0, 0, 95, 63, lit, wide)]
        plb.begin_frame()
        plb.bin_drawcall(plain, batch_of(plain, first))
        plb.bin_drawcall(lit, batch_of(lit, second))
        pb = plb.parameter_buffer
        assert first[0].parameter_buffer_bytes() != second[0].parameter_buffer_bytes()
        for tile_id in range(CONFIG.num_tiles):
            prims = pb.tile_primitives(tile_id)
            offsets, sizes = pb.tile_ranges(tile_id)
            assert offsets == [p.pb_offset for p in prims]
            assert sizes == [p.parameter_buffer_bytes() for p in prims]
        assert pb.tile_primitives(0) == [first[0], second[0], second[1]]


class TestPrimitiveBatch:
    def test_rows_are_attribute_bytes(self):
        rng = np.random.default_rng(5)
        state = make_state()
        varyings = {"uv": rng.random((3, 2)), "tint": rng.random((3, 5))}
        prims = [prim_at(i, i, 20 + i, 30, state,
                         {k: v + i for k, v in varyings.items()})
                 for i in range(3)]
        batch = batch_of(state, prims)
        for row, prim in zip(batch.attributes, prims):
            assert row.tobytes() == prim.attribute_bytes()
        assert batch.parameter_buffer_bytes == prims[0].parameter_buffer_bytes()

    def test_refuses_mixed_varying_layouts(self):
        state = make_state()
        prims = [prim_at(0, 0, 5, 5, state, {"uv": np.zeros((3, 2))}),
                 prim_at(0, 0, 5, 5, state, {"uv": np.zeros((3, 3))})]
        with pytest.raises(PipelineError):
            batch_of(state, prims)


# --- Array binning against one primitive at a time ---------------------
#: 100x70 pixels: neither side is a multiple of the 16-pixel tile.
ODD_SCREEN = dataclasses.replace(GpuConfig.small(), screen_width=100,
                                 screen_height=70)


def reference_overlapped_tiles(config, prim):
    """The per-primitive tile list binning emitted before it worked on
    whole drawcalls: bounding box, clamped to the screen, row-major."""
    x0, y0, x1, y1 = prim.bounds()
    size = config.tile_size
    tx0 = max(0, x0 // size)
    ty0 = max(0, y0 // size)
    tx1 = min(config.tiles_x - 1, (x1 - 1) // size)
    ty1 = min(config.tiles_y - 1, (y1 - 1) // size)
    if tx1 < tx0 or ty1 < ty0:
        return []
    return [
        ty * config.tiles_x + tx
        for ty in range(ty0, ty1 + 1)
        for tx in range(tx0, tx1 + 1)
    ]


def reference_bin(config, drawcalls):
    """Bin drawcalls one primitive at a time; returns the bins, each
    primitive's PB offset, the stats, the PB-write sizes per drawcall and
    the (primitive, tiles) events in order."""
    bins = [[] for _ in range(config.num_tiles)]
    offsets, writes, events = {}, [], []
    stats = TilingStats()
    cursor = 0
    for _, prims in drawcalls:
        written = []
        for prim in prims:
            tile_ids = reference_overlapped_tiles(config, prim)
            if not tile_ids:
                continue
            offsets[id(prim)] = cursor
            cursor += prim.parameter_buffer_bytes()
            for tile_id in tile_ids:
                bins[tile_id].append(prim)
            nbytes = (prim.parameter_buffer_bytes()
                      + TILE_POINTER_BYTES * len(tile_ids))
            written.append(nbytes)
            stats.primitives_binned += 1
            stats.tile_entries += len(tile_ids)
            stats.parameter_bytes_written += nbytes
            events.append((prim, tile_ids))
        writes.append(written)
    return bins, offsets, stats, writes, events


class RecordingMemory:
    def __init__(self):
        self.writes = []

    def write_parameters(self, sizes, stats):
        self.writes.append(list(sizes))


coord = st.floats(-60.0, 160.0, allow_nan=False, width=32)
rect = st.tuples(coord, coord, st.floats(0.0, 90.0, width=32),
                 st.floats(0.0, 90.0, width=32))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(rect, max_size=12),
                          st.integers(0, 6)),
                max_size=5))
def test_array_binning_matches_per_primitive_reference(drawcalls):
    config = ODD_SCREEN
    built = []
    for rects, width in drawcalls:
        state = make_state()
        varyings = {"v": np.ones((3, width), np.float32)}
        prims = [prim_at(x, y, x + w, y + h, state, varyings)
                 for x, y, w, h in rects]
        built.append((state, prims))
    bins, offsets, stats, writes, events = reference_bin(config, built)

    listener = RecordingListener()
    memory = RecordingMemory()
    plb = PolygonListBuilder(config, memory, listeners=(listener,))
    plb.begin_frame()
    for state, prims in built:
        plb.bin_drawcall(state, batch_of(state, prims))

    pb = plb.parameter_buffer
    for tile_id in range(config.num_tiles):
        got = pb.tile_primitives(tile_id)
        assert [id(p) for p in got] == [id(p) for p in bins[tile_id]]
    for prim in (p for _, prims in built for p in prims):
        assert prim.pb_offset == offsets.get(id(prim), -1)
    assert plb.stats == stats
    assert memory.writes == writes
    assert [(id(p), t) for p, t in listener.primitives] == [
        (id(p), t) for p, t in events
    ]
    assert listener.states == [state for state, _ in built]
