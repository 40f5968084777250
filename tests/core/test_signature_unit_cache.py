"""Signature Unit bugfix regressions: empty overlap-set accounting and
round-half-up OT-queue stalls."""

import dataclasses

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.core import SignatureBuffer, SignatureUnit
from repro.geometry import DrawState, Primitive, mat4
from repro.shaders import FLAT_COLOR, pack_constants


def make_state(version=0):
    return DrawState(
        shader=FLAT_COLOR,
        constants=pack_constants(mat4.ortho2d()),
        constants_version=version,
    )


def make_prim(seed=0, state=None):
    rng = np.random.default_rng(seed)
    return Primitive(
        screen=rng.random((3, 2)).astype(np.float32) * 16,
        depth=rng.random(3).astype(np.float32),
        clip=rng.random((3, 4)).astype(np.float32),
        varyings={"uv": rng.random((3, 2)).astype(np.float32)},
        state=state or make_state(),
    )


def fresh_unit(exact=False, **config_overrides):
    config = GpuConfig.small()
    if config_overrides:
        config = dataclasses.replace(config, **config_overrides)
    unit = SignatureUnit(config, exact=exact)
    buffer = SignatureBuffer(config.num_tiles)
    buffer.begin_frame()
    unit.begin_frame(buffer)
    return unit, buffer


class TestEmptyOverlapSet:
    """A primitive overlapping zero tiles never reaches the Signature
    Unit in the paper's model: no signing, no bitmap read, no counters."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_counter_or_buffer_activity(self, exact):
        unit, buffer = fresh_unit(exact=exact)
        state = make_state()
        unit.on_draw_state(state)
        before_stats = dataclasses.asdict(unit.stats)
        before_sigs = buffer.current.copy()
        unit.on_primitive(make_prim(state=state), [])
        unit.on_primitive(make_prim(state=state), np.empty(0, dtype=np.int64))
        assert dataclasses.asdict(unit.stats) == before_stats
        assert np.array_equal(buffer.current, before_sigs)

    def test_counters_match_paper_model_after_mixed_stream(self):
        """Interleaved empty overlap sets leave the signed/update counts
        exactly what the non-empty events alone produce."""
        state = make_state()
        with_empties, buffer_a = fresh_unit()
        with_empties.on_draw_state(state)
        without, buffer_b = fresh_unit()
        without.on_draw_state(state)
        for seed, tiles in [(0, [1, 2]), (1, []), (2, [2, 3, 5]), (3, [])]:
            with_empties.on_primitive(make_prim(seed, state), tiles)
            if tiles:
                without.on_primitive(make_prim(seed, state), tiles)
        assert (dataclasses.asdict(with_empties.stats)
                == dataclasses.asdict(without.stats))
        assert with_empties.stats.primitives_signed == 2
        assert with_empties.stats.tile_updates == 5
        assert with_empties.stats.bitmap_reads == 5
        assert np.array_equal(buffer_a.current, buffer_b.current)


class TestOtQueueRounding:
    """OT-queue overflow stalls round half-up instead of truncating."""

    @pytest.mark.parametrize("num_tiles", [10, 12, 17, 20])
    def test_stall_is_round_half_up_of_drain_time(self, num_tiles):
        unit, _ = fresh_unit(ot_queue_entries=8)
        state = make_state()
        unit.on_draw_state(state)
        unit.on_primitive(make_prim(state=state), list(range(num_tiles)))
        overflow = num_tiles - 8
        avg_cycles = unit.stats.accumulate_cycles / num_tiles
        assert unit.stats.stall_cycles == int(overflow * avg_cycles + 0.5)

    def test_half_fraction_rounds_up_not_down(self):
        """The regression: a .5 drain fraction must round up.  With the
        constants folded into every tile, per-tile cost is uniform, so
        engineer avg_cycles * overflow to land on .5 exactly."""
        unit, _ = fresh_unit(ot_queue_entries=1)
        state = make_state()
        unit.on_draw_state(state)
        unit.on_primitive(make_prim(state=state), [0, 1])
        per_tile = unit.stats.accumulate_cycles / 2
        expected = int(1 * per_tile + 0.5)
        assert unit.stats.stall_cycles == expected
        if (1 * per_tile) % 1.0 == 0.5:
            assert unit.stats.stall_cycles == int(per_tile) + 1
