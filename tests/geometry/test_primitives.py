"""Vertex buffers, assembled primitives, and signature serialization."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.geometry import DrawState, Primitive, VertexBuffer, quad_buffer
from repro.shaders import FLAT_COLOR, pack_constants
from repro.geometry import mat4


def make_primitive(z=0.5, uv=None, color=None):
    screen = np.array([[0, 0], [10, 0], [0, 10]], dtype=np.float32)
    clip = np.array(
        [[-1, -1, z, 1], [1, -1, z, 1], [-1, 1, z, 1]], dtype=np.float32
    )
    varyings = {}
    if uv is not None:
        varyings["uv"] = np.asarray(uv, dtype=np.float32)
    if color is not None:
        varyings["color"] = np.asarray(color, dtype=np.float32)
    state = DrawState(shader=FLAT_COLOR, constants=pack_constants(mat4.identity()))
    return Primitive(
        screen=screen, depth=np.full(3, z, np.float32), clip=clip,
        varyings=varyings, state=state,
    )


class TestVertexBuffer:
    def test_quad_has_two_triangles(self):
        quad = quad_buffer(0.0, 0.0, 1.0, 1.0)
        assert quad.num_triangles == 2
        assert quad.num_vertices == 4
        assert "uv" in quad.attributes

    def test_rejects_bad_indices_shape(self):
        with pytest.raises(PipelineError):
            VertexBuffer([[0, 0, 0]], [[0, 0]])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(PipelineError):
            VertexBuffer([[0, 0, 0]], [[0, 1, 2]])

    def test_rejects_mismatched_attribute_rows(self):
        with pytest.raises(PipelineError):
            VertexBuffer(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                [[0, 1, 2]],
                {"uv": np.zeros((2, 2))},
            )

    def test_vertex_bytes_counts_positions_and_attributes(self):
        quad = quad_buffer(0.0, 0.0, 1.0, 1.0)
        # 3 floats position + 2 floats uv = 20 bytes.
        assert quad.vertex_bytes() == 20


class TestPrimitive:
    def test_signed_area_positive_for_ccw(self):
        assert make_primitive().signed_area2() > 0

    def test_num_attributes_counts_position_plus_varyings(self):
        prim = make_primitive(uv=np.zeros((3, 2)), color=np.zeros((3, 4)))
        assert prim.num_attributes == 3
        assert make_primitive().num_attributes == 1

    def test_attribute_bytes_is_48_per_attribute(self):
        # The paper's unit: 3 vertices x 4 components x 4 bytes.
        prim = make_primitive(uv=np.zeros((3, 2)), color=np.zeros((3, 4)))
        assert len(prim.attribute_bytes()) == 48 * prim.num_attributes

    def test_attribute_bytes_deterministic_order(self):
        uv = np.arange(6, dtype=np.float32).reshape(3, 2)
        color = np.arange(12, dtype=np.float32).reshape(3, 4)
        a = make_primitive(uv=uv, color=color).attribute_bytes()
        b = make_primitive(uv=uv, color=color).attribute_bytes()
        assert a == b

    def test_attribute_bytes_changes_with_geometry(self):
        base = make_primitive(uv=np.zeros((3, 2)))
        moved = make_primitive(uv=np.ones((3, 2)))
        assert base.attribute_bytes() != moved.attribute_bytes()

    def test_bounds_covers_triangle(self):
        x0, y0, x1, y1 = make_primitive().bounds()
        assert (x0, y0) == (0, 0)
        assert x1 >= 10 and y1 >= 10


class TestDrawState:
    def test_constants_bytes_length(self):
        state = DrawState(
            shader=FLAT_COLOR, constants=pack_constants(mat4.identity())
        )
        assert len(state.constants_bytes()) == 24 * 4

    def test_constants_bytes_reflect_values(self):
        a = DrawState(FLAT_COLOR, pack_constants(mat4.identity(), tint=(1, 0, 0, 1)))
        b = DrawState(FLAT_COLOR, pack_constants(mat4.identity(), tint=(0, 1, 0, 1)))
        assert a.constants_bytes() != b.constants_bytes()


def reference_attribute_bytes(clip, varyings) -> bytes:
    """One primitive's signed bytes, serialized one array at a time:
    clip positions, then each varying in sorted name order, vec4-padded
    when narrower, as float32."""
    parts = [np.ascontiguousarray(clip, dtype=np.float32).tobytes()]
    for name in sorted(varyings):
        values = varyings[name]
        if values.shape[1] < 4:
            padded = np.zeros((3, 4), dtype=np.float32)
            padded[:, :values.shape[1]] = values
            values = padded
        parts.append(np.ascontiguousarray(values, dtype=np.float32).tobytes())
    return b"".join(parts)


class TestPrimitiveBatchRows:
    """A batch's attribute rows are its primitives' signed bytes, and one
    table pass over them gives each padded row's CRC."""

    def assembled_batch(self, widths):
        from repro.pipeline.command_processor import DrawInvocation
        from repro.pipeline.primitive_assembly import PrimitiveAssembly
        from repro.pipeline.vertex_stage import ShadedVertices

        rng = np.random.default_rng(11)
        buffer = quad_buffer(0.1, 0.1, 0.9, 0.9, subdivide=3)
        clip = np.concatenate([
            buffer.positions[:, :2] * 2 - 1,
            np.zeros((buffer.num_vertices, 1)),
            np.ones((buffer.num_vertices, 1)),
        ], axis=1).astype(np.float32)
        varyings = {f"v{k}": rng.random((buffer.num_vertices, width))
                    for k, width in enumerate(widths)}
        state = DrawState(FLAT_COLOR, pack_constants(mat4.identity()))
        invocation = DrawInvocation(state=state, buffer=buffer,
                                    cull_backfaces=False, depth_test=True,
                                    depth_write=True)
        return PrimitiveAssembly(96, 64).assemble(
            invocation, ShadedVertices(clip=clip, varyings=varyings)
        )

    @pytest.mark.parametrize("widths", [(), (2,), (4, 1), (6, 0, 3)])
    def test_rows_equal_each_primitives_bytes(self, widths):
        batch = self.assembled_batch(widths)
        assert len(batch.screen) == 18
        assert batch.num_attributes == 1 + len(widths)
        for i in range(len(batch.screen)):
            prim = batch.primitive(i)
            expected = reference_attribute_bytes(prim.clip, prim.varyings)
            assert batch.attributes[i].tobytes() == expected
            assert prim.attribute_bytes() == expected
            assert prim.bounds() == tuple(batch.bounds[i].tolist())
            assert batch.row_bytes[i] == (
                prim.screen.tobytes() + prim.depth.tobytes(), expected
            )
        assert batch.parameter_buffer_bytes == (
            batch.primitive(0).parameter_buffer_bytes()
        )

    @pytest.mark.parametrize("block_bytes", [4, 8, 16, 32])
    @pytest.mark.parametrize("widths", [(2,), (6, 0, 3)])
    def test_table_pass_is_crc_of_padded_row(self, widths, block_bytes):
        from repro.core.signature import padded_length
        from repro.hashing import crc32_table
        from repro.hashing.parallel import ComputeCrcUnit
        from repro.hashing.tables import crc32_rows

        rows = self.assembled_batch(widths).attributes
        length = padded_length(rows.shape[1], block_bytes)
        pad = ComputeCrcUnit(block_bytes).pad
        assert crc32_rows(rows, length).tolist() == [
            crc32_table(pad(row.tobytes())) for row in rows
        ]

    def test_row_views_are_read_only(self):
        batch = self.assembled_batch((2,))
        prim = batch.primitive(0)
        assert np.shares_memory(prim.screen, batch.screen)
        with pytest.raises(ValueError):
            prim.screen[0, 0] = 1.0
        with pytest.raises(ValueError):
            prim.varyings["v0"][0, 0] = 1.0
