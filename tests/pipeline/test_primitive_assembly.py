"""Primitive Assembly: clipping, culling, screen mapping."""

import numpy as np
import pytest

from repro.geometry import VertexBuffer, mat4
from repro.pipeline.command_processor import DrawInvocation
from repro.pipeline.primitive_assembly import PrimitiveAssembly
from repro.pipeline.vertex_stage import ShadedVertices
from repro.geometry.primitives import DrawState
from repro.shaders import FLAT_COLOR, pack_constants


def invocation(buffer, cull=False):
    state = DrawState(FLAT_COLOR, pack_constants(mat4.identity()),
                      cull_backfaces=cull)
    return DrawInvocation(state=state, buffer=buffer, cull_backfaces=cull,
                          depth_test=True, depth_write=True)


def shaded(clip, varyings=None):
    return ShadedVertices(
        clip=np.asarray(clip, dtype=np.float32), varyings=varyings or {}
    )


def tri_buffer():
    return VertexBuffer(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]
    )


class TestScreenMapping:
    def test_ndc_center_maps_to_screen_center(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, 0, 1], [0.5, 0, 0, 1], [0, 0.5, 0, 1]]),
        ).primitives
        assert len(prims) == 1
        assert np.allclose(prims[0].screen[0], [48, 32])

    def test_positive_ndc_y_is_upper_screen(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0.9, 0, 1], [0.2, 0.9, 0, 1], [0, 1.0, 0, 1]]),
        ).primitives
        assert prims[0].screen[0, 1] < 32  # top half

    def test_depth_mapped_to_unit_range(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, -1, 1], [0.5, 0, 0, 1], [0, 0.5, 1, 1]]),
        ).primitives
        assert prims[0].depth[0] == pytest.approx(0.0)
        assert prims[0].depth[2] == pytest.approx(1.0)


class TestCulling:
    def test_near_plane_rejection(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, 0, 1], [0.5, 0, 0, 0.0], [0, 0.5, 0, 1]]),
        ).primitives
        assert prims == []
        assert assembly.stats.culled_near == 1

    def test_negative_w_rejected(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, 0, 1], [0.5, 0, 0, -1.0], [0, 0.5, 0, 1]]),
        ).primitives
        assert prims == []

    def test_viewport_rejection(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[5, 5, 0, 1], [6, 5, 0, 1], [5, 6, 0, 1]]),
        ).primitives
        assert prims == []
        assert assembly.stats.culled_viewport == 1

    def test_backface_culled_only_when_enabled(self):
        # Clockwise on screen (y-down): NDC CCW becomes screen CW.
        clip = [[0, 0, 0, 1], [0, 0.5, 0, 1], [0.5, 0, 0, 1]]
        permissive = PrimitiveAssembly(96, 64)
        assert len(permissive.assemble(
            invocation(tri_buffer(), cull=False), shaded(clip)
        ).primitives) == 1

        strict = PrimitiveAssembly(96, 64)
        front = strict.assemble(
            invocation(tri_buffer(), cull=True), shaded(clip)
        ).primitives
        flipped = strict.assemble(
            invocation(tri_buffer(), cull=True),
            shaded([clip[0], clip[2], clip[1]]),
        ).primitives
        # Exactly one of the two windings survives culling.
        assert (len(front), len(flipped)) in ((0, 1), (1, 0))
        assert strict.stats.culled_backface == 1

    def test_degenerate_rejected(self):
        assembly = PrimitiveAssembly(96, 64)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, 0, 1], [0.5, 0.5, 0, 1], [0.25, 0.25, 0, 1]]),
        ).primitives
        assert prims == []
        assert assembly.stats.culled_degenerate == 1


class TestBookkeeping:
    def test_prim_ids_unique_across_drawcalls(self):
        assembly = PrimitiveAssembly(96, 64)
        clip = [[0, 0, 0, 1], [0.5, 0, 0, 1], [0, 0.5, 0, 1]]
        a = assembly.assemble(invocation(tri_buffer()), shaded(clip)).primitives
        b = assembly.assemble(invocation(tri_buffer()), shaded(clip)).primitives
        assert a[0].prim_id != b[0].prim_id

    def test_varyings_gathered_per_triangle(self):
        assembly = PrimitiveAssembly(96, 64)
        uv = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.float32)
        prims = assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, 0, 1], [0.5, 0, 0, 1], [0, 0.5, 0, 1]],
                   {"uv": uv}),
        ).primitives
        assert np.array_equal(prims[0].varyings["uv"], uv)

    def test_stats_track_in_out(self):
        assembly = PrimitiveAssembly(96, 64)
        assembly.assemble(
            invocation(tri_buffer()),
            shaded([[0, 0, 0, 1], [0.5, 0, 0, 1], [0, 0.5, 0, 1]]),
        ).primitives
        assert assembly.stats.triangles_in == 1
        assert assembly.stats.triangles_out == 1
