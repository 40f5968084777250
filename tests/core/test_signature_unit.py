"""Signature Unit: incremental per-tile signing, exact/fast equivalence."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.core import SignatureBuffer, SignatureUnit
from repro.geometry import DrawState, Primitive, PrimitiveBatch, mat4
from repro.hashing import crc32_table
from repro.hashing.parallel import ComputeCrcUnit
from repro.shaders import FLAT_COLOR, pack_constants


def make_state(tint=(1, 0, 0, 1), version=0, drawcall_id=0):
    return DrawState(
        shader=FLAT_COLOR,
        constants=pack_constants(mat4.ortho2d(), tint=tint),
        drawcall_id=drawcall_id,
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


def fresh_unit(exact, config=None):
    config = config or GpuConfig.small()
    unit = SignatureUnit(config, exact=exact)
    buffer = SignatureBuffer(config.num_tiles)
    buffer.begin_frame()
    unit.begin_frame(buffer)
    return unit, buffer


class TestSignatureValue:
    def test_single_primitive_single_tile_matches_reference(self):
        unit, buffer = fresh_unit(exact=True)
        state = make_state()
        prim = make_prim(state=state)
        unit.on_draw_state(state)
        unit.on_primitive(prim, [3])
        compute = ComputeCrcUnit(8)
        expected_message = (
            compute.pad(state.constants_bytes())
            + compute.pad(prim.attribute_bytes())
        )
        assert buffer.read(3) == crc32_table(expected_message)

    def test_constants_folded_once_per_tile_per_upload(self):
        unit, buffer = fresh_unit(exact=True)
        state = make_state()
        p1, p2 = make_prim(1, state), make_prim(2, state)
        unit.on_draw_state(state)
        unit.on_primitive(p1, [0])
        unit.on_draw_state(state)  # same constants_version: no re-sign
        unit.on_primitive(p2, [0])
        compute = ComputeCrcUnit(8)
        expected = crc32_table(
            compute.pad(state.constants_bytes())
            + compute.pad(p1.attribute_bytes())
            + compute.pad(p2.attribute_bytes())
        )
        assert buffer.read(0) == expected
        assert unit.stats.constants_signed == 1
        assert unit.stats.constants_folds == 1

    def test_new_constants_fold_again(self):
        unit, buffer = fresh_unit(exact=True)
        s1 = make_state(tint=(1, 0, 0, 1), version=0)
        s2 = make_state(tint=(0, 1, 0, 1), version=1, drawcall_id=1)
        p1, p2 = make_prim(1, s1), make_prim(2, s2)
        unit.on_draw_state(s1)
        unit.on_primitive(p1, [0])
        unit.on_draw_state(s2)
        unit.on_primitive(p2, [0])
        compute = ComputeCrcUnit(8)
        expected = crc32_table(
            compute.pad(s1.constants_bytes())
            + compute.pad(p1.attribute_bytes())
            + compute.pad(s2.constants_bytes())
            + compute.pad(p2.attribute_bytes())
        )
        assert buffer.read(0) == expected
        assert unit.stats.constants_folds == 2

    def test_untouched_tiles_keep_empty_signature(self):
        unit, buffer = fresh_unit(exact=True)
        state = make_state()
        unit.on_draw_state(state)
        unit.on_primitive(make_prim(state=state), [2])
        assert buffer.read(0) == 0
        assert buffer.read(2) != 0

    def test_same_inputs_same_signature_across_frames(self):
        config = GpuConfig.small()
        unit = SignatureUnit(config)
        buffer = SignatureBuffer(config.num_tiles)
        values = []
        for _ in range(2):
            buffer.begin_frame()
            unit.begin_frame(buffer)
            state = make_state()
            unit.on_draw_state(state)
            unit.on_primitive(make_prim(7, state), [5, 6])
            values.append((buffer.read(5), buffer.read(6)))
            buffer.commit_frame()
        assert values[0] == values[1]

    def test_different_attributes_different_signature(self):
        unit, buffer = fresh_unit(exact=False)
        state = make_state()
        unit.on_draw_state(state)
        unit.on_primitive(make_prim(1, state), [0])
        sig_a = buffer.read(0)
        unit2, buffer2 = fresh_unit(exact=False)
        unit2.on_draw_state(state)
        unit2.on_primitive(make_prim(2, state), [0])
        assert sig_a != buffer2.read(0)


@pytest.mark.slow
class TestExactFastEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 9),                 # primitive seed
            st.lists(st.integers(0, 23), min_size=1, max_size=8, unique=True),
            st.booleans(),                      # new constants before prim?
        ),
        min_size=1, max_size=10,
    ))
    def test_signatures_and_stats_match(self, events):
        config = GpuConfig.small()
        results = []
        for exact in (True, False):
            unit, buffer = fresh_unit(exact=exact, config=config)
            version = 0
            state = make_state(version=version)
            unit.on_draw_state(state)
            for seed, tiles, new_constants in events:
                if new_constants:
                    version += 1
                    state = make_state(
                        tint=(version % 3, 1, 0, 1), version=version
                    )
                    unit.on_draw_state(state)
                unit.on_primitive(make_prim(seed, state), tiles)
            results.append((buffer.current.copy(), dataclasses.asdict(unit.stats)))
        exact_sigs, exact_stats = results[0]
        fast_sigs, fast_stats = results[1]
        assert np.array_equal(exact_sigs, fast_sigs)
        assert exact_stats == fast_stats


class TestOverheadModel:
    def test_small_primitives_do_not_stall(self):
        unit, _ = fresh_unit(exact=False)
        state = make_state()
        unit.on_draw_state(state)
        unit.on_primitive(make_prim(state=state), list(range(4)))
        assert unit.stats.stall_cycles == 0
        assert unit.stats.ot_queue_overflows == 0

    def test_huge_primitive_overflows_ot_queue(self):
        config = GpuConfig.small()
        import dataclasses as dc
        config = dc.replace(config, ot_queue_entries=8)
        unit = SignatureUnit(config)
        buffer = SignatureBuffer(config.num_tiles)
        buffer.begin_frame()
        unit.begin_frame(buffer)
        state = make_state()
        unit.on_draw_state(state)
        unit.on_primitive(make_prim(state=state), list(range(20)))
        assert unit.stats.ot_queue_overflows == 1
        assert unit.stats.stall_cycles > 0

    def test_paper_latency_example(self):
        # Section III-G: an average primitive (3 attributes, 144 bytes)
        # needs 18 compute cycles.
        unit, _ = fresh_unit(exact=True)
        state = make_state()
        prim = make_prim(state=state)   # clip + uv varying = 2 attrs = 96 B
        unit.on_draw_state(state)
        before = unit.stats.compute_cycles
        unit.on_primitive(prim, [0])
        # 96 bytes = 12 subblocks of 8 bytes.
        assert unit.stats.compute_cycles - before == 12

    def test_lut_storage_matches_config(self):
        unit, _ = fresh_unit(exact=False)
        assert unit.lut_storage_bytes == 12 * 1024


# --- The drawcall fold against the per-LUT reference --------------------
def drawcall_frames():
    """Frames of drawcalls: each drawcall may upload new constants (of
    0-9 floats, so sometimes an empty block), has one varying 0-6 columns
    wide, and gives each primitive a tile list that may be empty, and
    that other primitives of the drawcall may share."""
    primitive = st.tuples(
        st.integers(0, 99),
        st.lists(st.integers(0, 23), max_size=12, unique=True),
    )
    drawcall = st.tuples(
        st.booleans(), st.integers(0, 9), st.integers(0, 6),
        st.lists(primitive, max_size=6),
    )
    return st.lists(st.lists(drawcall, max_size=5), min_size=1, max_size=2)


def drawcall_batch(state, width, seeds):
    prims = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        prims.append(Primitive(
            screen=rng.random((3, 2)).astype(np.float32) * 16,
            depth=rng.random(3).astype(np.float32),
            clip=rng.random((3, 4)).astype(np.float32),
            varyings={"v": rng.random((3, width)).astype(np.float32)},
            state=state,
        ))
    return PrimitiveBatch.from_primitives(state, prims)


def sign_frames(exact, config, frames):
    """Sign the frames on a fresh unit; returns each frame's bank, the
    unit's stats and the buffer's read and write counts."""
    unit = SignatureUnit(config, exact=exact)
    buffer = SignatureBuffer(config.num_tiles)
    banks = []
    version = 0
    for drawcalls in frames:
        buffer.begin_frame()
        unit.begin_frame(buffer)
        for new_constants, floats, width, prims in drawcalls:
            version += new_constants
            rng = np.random.default_rng(version)
            state = DrawState(
                shader=FLAT_COLOR,
                constants=rng.random(floats).astype(np.float32),
                constants_version=version,
            )
            batch = drawcall_batch(state, width, [seed for seed, _ in prims])
            rows = np.repeat(np.arange(len(prims)),
                             [len(tiles) for _, tiles in prims])
            tiles = np.array([t for _, ts in prims for t in ts],
                             dtype=np.int64)
            unit.on_draw_state(state)
            unit.on_drawcall(batch, rows, tiles)
        banks.append(buffer.current.copy())
        buffer.commit_frame()
    return (banks, dataclasses.asdict(unit.stats),
            (buffer.stats.reads, buffer.stats.writes))


@pytest.mark.slow
class TestDrawcallFold:
    @settings(max_examples=40, deadline=None)
    @given(frames=drawcall_frames(),
           block_bytes=st.sampled_from([4, 8, 16, 32]),
           ot_queue_entries=st.integers(1, 6))
    def test_fold_matches_exact_reference(self, frames, block_bytes,
                                          ot_queue_entries):
        config = dataclasses.replace(
            GpuConfig.small(), crc_block_bytes=block_bytes,
            ot_queue_entries=ot_queue_entries,
        )
        exact_banks, exact_stats, exact_io = sign_frames(True, config, frames)
        fast_banks, fast_stats, fast_io = sign_frames(False, config, frames)
        for exact_bank, fast_bank in zip(exact_banks, fast_banks):
            assert np.array_equal(exact_bank, fast_bank)
        assert exact_stats == fast_stats
        assert exact_io == fast_io

    def test_shared_tiles_and_overflow_are_exercised(self):
        """A fixed frame with the cases the property test samples: two
        uploads, an empty constants block, primitives stacked on one
        tile, and primitives overflowing a 2-entry OT queue."""
        config = dataclasses.replace(
            GpuConfig.small(), crc_block_bytes=16, ot_queue_entries=2
        )
        frame = [
            (True, 9, 2, [(1, [0, 1, 2, 3]), (2, [1, 2]), (3, [2])]),
            (True, 0, 0, [(4, [2, 7, 8]), (5, []), (6, [2, 9])]),
            (False, 0, 6, [(7, [2, 3, 4, 5, 6])]),
        ]
        exact_banks, exact_stats, exact_io = sign_frames(True, config, [frame])
        fast_banks, fast_stats, fast_io = sign_frames(False, config, [frame])
        assert np.array_equal(exact_banks[0], fast_banks[0])
        assert exact_stats == fast_stats
        assert exact_io == fast_io
        assert fast_stats["ot_queue_overflows"] == 3
        # Tiles first touched after each upload: 0-3, then 2 and 7-9,
        # then (no upload) 3-6 beside the already-signed 2.
        assert fast_stats["constants_folds"] == 4 + 4 + 4
        assert fast_io == (fast_stats["tile_updates"],) * 2
