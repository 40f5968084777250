"""Polygon List Builder: binning, Parameter Buffer, listener events,
opaque-tile occlusion culling."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.geometry import DrawState, Primitive, mat4
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import Gpu, tiling
from repro.pipeline.framebuffer import DEFAULT_CLEAR_DEPTH
from repro.pipeline.rasterizer import iteration_bounds, rasterize
from repro.pipeline.tiling import (
    OCCLUSION_DEPTH_MARGIN,
    TILE_POINTER_BYTES,
    PolygonListBuilder,
)
from repro.shaders import ALPHA_TEXTURED, FLAT_COLOR, pack_constants
from repro.workloads.games import build_scene

CONFIG = GpuConfig.small()   # 6x4 tiles of 16px
CULL_CONFIG = dataclasses.replace(CONFIG, occlusion_culling=True)
#: 7x5 tiles; the right column is 4px wide and the bottom row 6px tall.
ODD_CONFIG = dataclasses.replace(CONFIG, screen_width=100, screen_height=70)


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


def tri(points, z, shader=FLAT_COLOR, depth_test=True, depth_write=True):
    state = DrawState(
        shader, pack_constants(mat4.ortho2d()),
        depth_test=depth_test, depth_write=depth_write,
    )
    return Primitive(
        screen=np.asarray(points, dtype=np.float32),
        depth=np.full(3, z, np.float32),
        clip=np.zeros((3, 4), np.float32),
        varyings={},
        state=state,
    )


#: Triangle enclosing tile 0's 16x16 rect entirely.
FULL = [[-1, -1], [40, -1], [-1, 40]]
#: The two halves of an exactly tile-0-sized quad.
HALF_A = [[0, 0], [16, 0], [16, 16]]
HALF_B = [[0, 0], [16, 16], [0, 16]]


def make_cull_plb():
    return PolygonListBuilder(CULL_CONFIG, MemoryHierarchy(CULL_CONFIG))


def bin_all(plb, prims):
    plb.begin_frame()
    for prim in prims:
        plb.bin_drawcall(prim.state, [prim])


class TestOcclusionCulling:
    def test_disabled_by_default(self):
        plb = make_plb()
        assert not plb.occlusion_culling
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(FULL, 0.2)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_full_cover_opaque_truncates_bin(self):
        plb = make_cull_plb()
        buried = prim_at(2, 2, 10, 10)      # depth 0.5
        occluder = tri(FULL, 0.2)
        bin_all(plb, [buried, occluder])
        assert plb.parameter_buffer.tile_primitives(0) == [occluder]
        assert plb.stats.prims_occlusion_culled == 1
        assert plb.stats.tiles_fully_covered >= 1
        assert plb.stats.fragments_avoided > 0
        tiles = [event[0] for event in plb.occlusion_events]
        assert 0 in tiles

    def test_deeper_occluder_fails_depth_safety(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(FULL, 0.9)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_no_depth_test_occludes_regardless_of_depth(self):
        plb = make_cull_plb()
        occluder = tri(FULL, 0.9, depth_test=False)
        bin_all(plb, [prim_at(2, 2, 10, 10), occluder])
        assert plb.parameter_buffer.tile_primitives(0) == [occluder]

    def test_alpha_blend_never_occludes(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10),
                      tri(FULL, 0.1, shader=ALPHA_TEXTURED)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_depth_write_false_cannot_occlude_or_lower_bounds(self):
        plb = make_cull_plb()
        buried = prim_at(2, 2, 10, 10)
        buried.depth[:] = 0.9
        no_write = tri(FULL, 0.1, depth_write=False)
        later = tri(FULL, 0.5)
        bin_all(plb, [buried, no_write, later])
        # ``no_write`` neither truncated anything nor polluted the depth
        # bounds: ``later`` still sees the clear depth and occludes both.
        assert plb.parameter_buffer.tile_primitives(0) == [later]
        assert plb.stats.prims_occlusion_culled == 2

    def test_depth_write_false_skipped_inside_one_drawcall(self):
        # The same three primitives binned as a single drawcall: the
        # non-writer owns no coverage pairs of its own.
        plb = make_cull_plb()
        buried = prim_at(2, 2, 10, 10)
        buried.depth[:] = 0.9
        no_write = tri(FULL, 0.1, depth_write=False)
        later = tri(FULL, 0.5)
        half = tri(HALF_A, 0.5)
        plb.begin_frame()
        plb.bin_drawcall(later.state, [buried, no_write, later])
        assert plb.parameter_buffer.tile_primitives(0) == [later]
        assert plb.stats.prims_occlusion_culled == 2
        plb.begin_frame()
        plb.bin_drawcall(half.state, [buried, no_write, half])
        assert plb.parameter_buffer.tile_primitives(0) == [
            buried, no_write, half,
        ]
        assert plb.stats.prims_occlusion_culled == 2

    def test_partial_covers_accumulate_to_occluding_set(self):
        plb = make_cull_plb()
        # A translucent layer beneath the opaque quad: never a set
        # member, and safely dropped once the set covers the tile.
        buried = tri(FULL, 0.9, shader=ALPHA_TEXTURED)
        half_a, half_b = tri(HALF_A, 0.5), tri(HALF_B, 0.5)
        bin_all(plb, [buried, half_a, half_b])
        # The coplanar disjoint halves jointly cover tile 0: per-pixel
        # depth bounds let the second qualify even though the first
        # already wrote the same depth elsewhere in the tile.
        bin0 = plb.parameter_buffer.tile_primitives(0)
        assert [id(p) for p in bin0] == [id(half_a), id(half_b)]
        assert plb.stats.prims_occlusion_culled == 1
        assert plb.stats.tiles_fully_covered == 1

    def test_qualifying_prefix_completes_cover_without_drops(self):
        # An opaque partial prim in front of the clear depth joins the
        # set itself, so completing the cover finds nothing buried.
        plb = make_cull_plb()
        first = prim_at(2, 2, 10, 10)
        first.depth[:] = 0.9
        half_a, half_b = tri(HALF_A, 0.5), tri(HALF_B, 0.5)
        bin_all(plb, [first, half_a, half_b])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 3
        assert plb.stats.tiles_fully_covered == 1
        assert plb.stats.prims_occlusion_culled == 0

    def test_accumulation_does_not_fire_while_incomplete(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(HALF_A, 0.2)])
        assert len(plb.parameter_buffer.tile_primitives(0)) == 2
        assert plb.stats.prims_occlusion_culled == 0

    def test_begin_frame_resets_occlusion_state(self):
        plb = make_cull_plb()
        bin_all(plb, [prim_at(2, 2, 10, 10), tri(FULL, 0.2)])
        assert plb.occlusion_events
        plb.begin_frame()
        assert plb.occlusion_events == []
        # Fresh per-frame depth bounds: a 0.5-depth occluder qualifies
        # against the clear depth even though last frame's bound ended
        # at 0.2 on every pixel.
        buried = prim_at(2, 2, 10, 10)
        buried.depth[:] = 0.9
        occluder = tri(FULL, 0.5)
        bin_all(plb, [buried, occluder])
        bin0 = plb.parameter_buffer.tile_primitives(0)
        assert [id(p) for p in bin0] == [id(occluder)]


class TestOcclusionEndToEnd:
    """Culling must change counters, never pixels."""

    def render(self, alias, config, frames=3):
        gpu = Gpu(dataclasses.replace(config))
        scene = build_scene(alias)
        stats = [
            gpu.render_frame(stream, clear_color=scene.clear_color)
            for stream in scene.frames(frames)
        ]
        return stats

    def test_bit_identical_frames_with_fewer_fragments(self):
        for alias in ("ccs", "hop"):
            base = self.render(alias, CONFIG)
            culled = self.render(alias, CULL_CONFIG)
            for frame, (a, b) in enumerate(zip(base, culled)):
                assert np.array_equal(a.frame_colors, b.frame_colors), (
                    f"{alias} frame {frame} diverged under culling"
                )
            assert sum(s.tiling.prims_occlusion_culled for s in culled) > 0
            assert sum(s.tiling.prims_occlusion_culled for s in base) == 0
            assert (
                sum(s.raster.fragments_rasterized for s in culled)
                < sum(s.raster.fragments_rasterized for s in base)
            )

    def test_bit_identical_on_screen_not_tile_aligned(self):
        # Neither preset exercises clipped right/bottom edge tiles.
        cull = dataclasses.replace(ODD_CONFIG, occlusion_culling=True)
        for alias in ("ccs", "hop"):
            gpu = Gpu(cull)
            scene = build_scene(alias)
            edge_events = 0
            base = self.render(alias, ODD_CONFIG)
            for frame, stream in enumerate(scene.frames(3)):
                culled = gpu.render_frame(stream, clear_color=scene.clear_color)
                assert np.array_equal(
                    base[frame].frame_colors, culled.frame_colors
                ), f"{alias} frame {frame} diverged under culling at 100x70"
                edge_events += sum(
                    1 for tile, _, _ in gpu.plb.occlusion_events
                    if tile % cull.tiles_x == cull.tiles_x - 1
                    or tile // cull.tiles_x == cull.tiles_y - 1
                )
            assert edge_events > 0, f"{alias}: no cull in a clipped tile"


#: Culling decisions of ``GpuConfig.small()`` with culling on, baseline
#: technique, 8 frames, recorded before the occlusion pass was batched:
#: per game, the totals of ``tiles_fully_covered``,
#: ``prims_occlusion_culled`` and ``fragments_avoided``, then the SHA-256
#: of every frame's occlusion events in order.  Culling is lossless, so
#: frame CRCs cannot see a weaker cull; these pin the decisions.
PINNED_CULLING = {
    "ccs": (192, 1392, 32768,
            "c6b07544a4264824361d4ef9554b7121d75aa87dcb3d96f0ebcf621a9995145f"),
    "cde": (192, 304, 0,
            "3b271affe8be1c2572a9136495945d11e9e8d80b34ef6edf0cd46c4ef9552742"),
    "coc": (192, 332, 0,
            "34901278ae0fdc9c663f4fde7e0a44ba8a42e3dfc9523c4906180b68ac1e46c9"),
    "ctr": (192, 304, 0,
            "3b271affe8be1c2572a9136495945d11e9e8d80b34ef6edf0cd46c4ef9552742"),
    "hop": (192, 764, 14336,
            "42c0b3bb7335bd5f9f6e559d97f987c0e847972814a28c747689d80e94bfba78"),
    "mst": (192, 592, 4096,
            "4d2b30549d9cb21bf050e70ef050ec94eaab4e17cec5f896640d4b2310e4c0c9"),
    "abi": (192, 239, 880,
            "f6b6a848ccae7715058c1b039d55e023dfbc898b7ef4c4556482f09941ea7f03"),
    "csn": (192, 128, 0,
            "13b7db422f508d54f08e4fd361c87e35de60c6927598c0a5e005b3e7470ebef9"),
    "ter": (192, 192, 0,
            "71e2d68009acd4d15dd269beddb4b0ebe56d7324562860c0074f281940372f8c"),
    "tib": (192, 272, 0,
            "a76225845e472d8f6c71633056ba5e4b53f01bb5a58885dcbc1368e0644a8d43"),
}


def culling_decisions(alias):
    gpu = Gpu(CULL_CONFIG)
    scene = build_scene(alias)
    totals = [0, 0, 0]
    digest = hashlib.sha256()
    for frame, stream in enumerate(scene.frames(8)):
        stats = gpu.render_frame(stream, clear_color=scene.clear_color)
        totals[0] += stats.tiling.tiles_fully_covered
        totals[1] += stats.tiling.prims_occlusion_culled
        totals[2] += stats.tiling.fragments_avoided
        for tile, dropped, avoided in gpu.plb.occlusion_events:
            digest.update(f"{frame}:{tile},{dropped},{avoided};".encode())
    return (*totals, digest.hexdigest())


@pytest.mark.parametrize("alias", list(PINNED_CULLING))
def test_culling_decisions_pinned(alias):
    assert culling_decisions(alias) == PINNED_CULLING[alias]


def test_depth_fold_in_small_chunks_decides_the_same(monkeypatch):
    monkeypatch.setattr(tiling, "_FOLD_PAIRS", 7)
    assert culling_decisions("ccs") == PINNED_CULLING["ccs"]


class ReferenceOcclusion:
    """The occlusion pass one (primitive, tile) pair at a time, with
    coverage from the scalar :func:`rasterize`: the loop the batched pass
    replaced, kept as the reference it must match."""

    def __init__(self, plb):
        self.plb = plb
        self.bins = [[] for _ in range(plb.config.num_tiles)]
        self.bounds, self.sets, self.covered = {}, {}, set()
        self.events = []

    def bin_drawcall(self, primitives):
        for prim in primitives:
            tile_ids = self.plb.overlapped_tiles(prim)
            for tile_id in tile_ids:
                self.bins[tile_id].append(prim)
            if prim.state.depth_write:
                for tile_id in tile_ids:
                    self.fold(prim, tile_id)

    def fold(self, prim, tile_id):
        rect = self.plb._tile_rect(tile_id)
        batch = rasterize(prim, rect)
        if not batch.count:
            return
        mask = np.zeros((rect[3] - rect[1], rect[2] - rect[0]), dtype=bool)
        mask[batch.ys - rect[1], batch.xs - rect[0]] = True
        bound = self.bounds.setdefault(
            tile_id, np.full(mask.shape, DEFAULT_CLEAR_DEPTH)
        )
        state = prim.state
        if not state.shader.uses_alpha_blend and (
            not state.depth_test
            or float(prim.depth.max()) + OCCLUSION_DEPTH_MARGIN
            < float(bound[mask].min())
        ):
            self.join(tile_id, mask, rect)
        np.minimum(bound, float(prim.depth.min()), out=bound, where=mask)

    def join(self, tile_id, mask, rect):
        newest = len(self.bins[tile_id]) - 1
        if mask.all():
            self.sets.pop(tile_id, None)
            self.complete(tile_id, newest, rect)
            return
        entry = self.sets.get(tile_id)
        if entry is None:
            self.sets[tile_id] = [newest, mask.copy()]
            return
        entry[1] |= mask
        if entry[1].all():
            del self.sets[tile_id]
            self.complete(tile_id, entry[0], rect)

    def complete(self, tile_id, keep_from, rect):
        self.covered.add(tile_id)
        dropped = self.bins[tile_id][:keep_from]
        del self.bins[tile_id][:keep_from]
        if dropped:
            avoided = 0
            for buried in dropped:
                box = iteration_bounds(buried, rect)
                if box is not None:
                    avoided += (box[2] - box[0]) * (box[3] - box[1])
            self.events.append((tile_id, len(dropped), avoided))


#: Coordinates around the 100x70 screen: anywhere, pixel centers (fill
#: rule ties) and multiples of 8 (tile-aligned quads whose halves must
#: union to a cover).
OCCLUDER_COORD = st.one_of(
    st.floats(-30, 130, allow_nan=False, width=32),
    st.integers(-2, 101).map(lambda v: v + 0.5),
    st.integers(-2, 13).map(lambda v: 8.0 * v),
)
OCCLUDER_STATE = st.builds(
    lambda shader, test, write: DrawState(
        shader, pack_constants(mat4.ortho2d()),
        depth_test=test, depth_write=write,
    ),
    st.sampled_from([FLAT_COLOR, FLAT_COLOR, ALPHA_TEXTURED]),
    st.booleans(),
    st.sampled_from([True, True, True, False]),
)


@st.composite
def occluder_drawcalls(draw):
    """Drawcalls of triangles and tile-aligned quad halves with random
    depths and states, mixed within one drawcall."""
    drawcalls = []
    for _ in range(draw(st.integers(1, 5))):
        prims = []
        for _ in range(draw(st.integers(1, 6))):
            state = draw(OCCLUDER_STATE)
            depth = np.array(draw(st.lists(
                st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
                min_size=3, max_size=3,
            )), dtype=np.float32)
            if draw(st.booleans()):
                points = [[draw(OCCLUDER_COORD), draw(OCCLUDER_COORD)]
                          for _ in range(3)]
                halves = [points]
            else:
                x0, y0, x1, y1 = (draw(OCCLUDER_COORD) for _ in range(4))
                halves = [[[x0, y0], [x1, y0], [x1, y1]],
                          [[x0, y0], [x1, y1], [x0, y1]]]
            for points in halves:
                prims.append(Primitive(
                    screen=np.asarray(points, dtype=np.float32),
                    depth=depth, clip=np.zeros((3, 4), np.float32),
                    varyings={}, state=state,
                ))
        drawcalls.append(prims)
    return drawcalls


@settings(max_examples=80, deadline=None)
@given(occluder_drawcalls())
def test_batched_pass_matches_pair_at_a_time_reference(drawcalls):
    config = dataclasses.replace(ODD_CONFIG, occlusion_culling=True)
    plb = PolygonListBuilder(config, MemoryHierarchy(config))
    reference = ReferenceOcclusion(plb)
    plb.begin_frame()
    for prims in drawcalls:
        plb.bin_drawcall(prims[0].state, prims)
        reference.bin_drawcall(prims)
    for tile_id in range(config.num_tiles):
        assert ([id(p) for p in plb.parameter_buffer.tile_primitives(tile_id)]
                == [id(p) for p in reference.bins[tile_id]]), tile_id
    assert plb.occlusion_events == reference.events
    assert plb.stats.tiles_fully_covered == len(reference.covered)
