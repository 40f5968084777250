"""PFR-aided Fragment Memoization model (tile-synchronized LUT)."""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.geometry import mat4, quad_buffer
from repro.pipeline import CommandStream, Gpu
from repro.shaders import FLAT_COLOR, pack_constants
from repro.techniques import FragmentMemoization
from repro.techniques.fragment_memoization import fragment_input_hashes


PROJ = mat4.ortho2d()


def flat_frame(tint=(0.3, 0.3, 0.3, 1.0)):
    stream = CommandStream()
    stream.set_shader(FLAT_COLOR)
    stream.set_constants(pack_constants(PROJ, tint=tint))
    stream.draw(quad_buffer(0.0, 0.0, 1.0, 1.0, z=0.5))
    return stream


def memo_gpu():
    config = GpuConfig.small()
    return Gpu(config, FragmentMemoization(config))


class TestPfrPairing:
    def test_even_frames_never_hit(self):
        gpu = memo_gpu()
        stats0 = gpu.render_frame(flat_frame())
        assert stats0.fragment.fragments_memoized == 0

    def test_odd_frame_hits_even_frame_entries(self):
        gpu = memo_gpu()
        gpu.render_frame(flat_frame())          # even: fills LUT
        stats1 = gpu.render_frame(flat_frame())  # odd: tile-synchronized reuse
        pixels = gpu.config.screen_width * gpu.config.screen_height
        # A flat frame has one distinct fragment signature; everything hits.
        assert stats1.fragment.fragments_memoized == pixels

    def test_third_frame_is_even_again_and_shades_fully(self):
        gpu = memo_gpu()
        for _ in range(2):
            gpu.render_frame(flat_frame())
        stats2 = gpu.render_frame(flat_frame())
        assert stats2.fragment.fragments_memoized == 0

    def test_changed_inputs_miss(self):
        gpu = memo_gpu()
        gpu.render_frame(flat_frame(tint=(0.3, 0.3, 0.3, 1)))
        stats = gpu.render_frame(flat_frame(tint=(0.9, 0.1, 0.1, 1)))
        assert stats.fragment.fragments_memoized == 0


class TestTileWindowLut:
    def test_static_content_halves_shading_over_a_frame_pair(self):
        # Tile synchronization makes odd-frame hits near-total for
        # static content, but even frames always shade: the pair-level
        # reuse tops out at ~half -- the paper's PFR asymmetry.
        config = GpuConfig.small()
        gpu = Gpu(config, FragmentMemoization(config))
        from repro.shaders import TEXTURED
        from repro.textures import gradient_texture
        tex = gradient_texture((0, 0, 0, 1), (1, 1, 1, 1), texture_id=3,
                               size=256)

        def textured_frame():
            stream = CommandStream()
            stream.set_shader(TEXTURED)
            stream.set_texture(0, tex)
            stream.set_constants(pack_constants(PROJ))
            stream.draw(quad_buffer(0.0, 0.0, 1.0, 1.0, z=0.5))
            return stream

        even = gpu.render_frame(textured_frame())
        odd = gpu.render_frame(textured_frame())
        pixels = config.screen_width * config.screen_height
        assert even.fragment.fragments_memoized == 0
        assert odd.fragment.fragments_memoized / pixels > 0.9
        pair_shaded = (
            even.fragment.fragments_shaded + odd.fragment.fragments_shaded
        )
        assert pair_shaded / (2 * pixels) >= 0.5

    def test_window_sized_for_shared_lut(self):
        config = GpuConfig.small()
        memo = FragmentMemoization(config)
        expected = config.memo_lut_entries // (2 * config.pixels_per_tile)
        assert memo.window_tiles == max(1, expected)

    def test_survivors_respect_associativity(self):
        config = GpuConfig.small()
        memo = FragmentMemoization(config)
        base = np.uint32(7)
        tags = np.array(
            [base + np.uint32(memo.num_sets * i) for i in range(10)],
            dtype=np.uint32,
        )
        survivors = memo._lru_survivors(tags)
        assert len(survivors) == memo.ways
        assert set(survivors.tolist()) == set(tags[-memo.ways:].tolist())

    def test_distant_tiles_evicted(self):
        """Entries inserted many tiles before T are outside the window."""
        config = GpuConfig.small()
        memo = FragmentMemoization(config)
        memo.begin_frame(0, False)   # even frame
        far_tile = 0
        near_tile = memo.window_tiles + 5
        memo._even_tile_hashes[far_tile] = [np.array([111], dtype=np.uint32)]
        memo._even_tile_hashes[near_tile] = [np.array([222], dtype=np.uint32)]
        memo.begin_frame(1, False)   # odd frame
        memo._even_tile_hashes = {
            far_tile: [np.array([111], dtype=np.uint32)],
            near_tile: [np.array([222], dtype=np.uint32)],
        }
        survivors = memo._survivors_for(near_tile)
        assert 222 in survivors
        assert 111 not in survivors


class TestFragmentHash:
    def _varyings(self, uv):
        return {
            "uv": np.asarray(uv, dtype=np.float32),
            "_screen": np.zeros((len(uv), 2), dtype=np.float32),
        }

    def _state(self, tint=(1, 1, 1, 1)):
        from repro.geometry import DrawState
        return DrawState(FLAT_COLOR, pack_constants(PROJ, tint=tint))

    def test_screen_coords_excluded(self):
        state = self._state()
        a = self._varyings([[0.1, 0.2], [0.3, 0.4]])
        b = self._varyings([[0.1, 0.2], [0.3, 0.4]])
        b["_screen"] = np.ones((2, 2), dtype=np.float32) * 50
        assert np.array_equal(
            fragment_input_hashes(state, a), fragment_input_hashes(state, b)
        )

    def test_different_varyings_different_hash(self):
        state = self._state()
        a = fragment_input_hashes(state, self._varyings([[0.1, 0.2]]))
        b = fragment_input_hashes(state, self._varyings([[0.5, 0.2]]))
        assert a[0] != b[0]

    def test_different_constants_different_hash(self):
        varyings = self._varyings([[0.1, 0.2]])
        a = fragment_input_hashes(self._state((1, 0, 0, 1)), varyings)
        b = fragment_input_hashes(self._state((0, 1, 0, 1)), varyings)
        assert a[0] != b[0]

    def test_lut_config_validation(self):
        import dataclasses
        config = dataclasses.replace(GpuConfig.small(), memo_lut_entries=10,
                                     memo_lut_ways=4)
        with pytest.raises(ValueError):
            FragmentMemoization(config)
