"""Acceptance: checkpoint at frame k, restore, render k..N — bit-identical.

An uninterrupted N-frame run and a run that is checkpointed to disk at
frame k, reloaded into a fresh session and continued must agree exactly:
every post-restore FrameStats (as a plain dict), every frame's per-tile
color CRCs, RE's input signatures, and the final frame CRC.
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.engine import RenderSession
from repro.errors import CheckpointError, ConfigError

CONFIG = GpuConfig.small()
NUM_FRAMES = 8
CHECKPOINT_FRAME = 4


def frame_fingerprint(stats):
    """FrameStats as comparable plain data: (field dict, colors array)."""
    data = dataclasses.asdict(stats)
    colors = data.pop("frame_colors")
    return data, colors


def record_frame_stats(session) -> list:
    """Wrap ``session.gpu.render_frame``; the returned list collects the
    FrameStats of every frame the session renders from now on."""
    recorded = []
    render_frame = session.gpu.render_frame

    def recording(*args, **kwargs):
        stats = render_frame(*args, **kwargs)
        recorded.append(stats)
        return stats

    session.gpu.render_frame = recording
    return recorded


def interrupted_run(technique, tmp_path):
    """Render k frames, checkpoint to disk, reload, finish the run;
    returns the resumed session and its post-restore FrameStats."""
    first = RenderSession(
        "ccs", technique, config=CONFIG, num_frames=NUM_FRAMES
    )
    first.run(until=CHECKPOINT_FRAME)
    path = tmp_path / f"{technique.replace('+', '_')}.ckpt"
    first.save(path)
    del first

    resumed = RenderSession.from_checkpoint(path)
    assert resumed.frames_rendered == CHECKPOINT_FRAME
    assert len(resumed.frames) == CHECKPOINT_FRAME
    frame_stats = record_frame_stats(resumed)
    resumed.run()
    assert resumed.frames_rendered == NUM_FRAMES
    return resumed, frame_stats


@pytest.mark.parametrize("technique", ["baseline", "re", "re+te"])
class TestCheckpointRestore:
    def test_bit_identical_to_uninterrupted(self, technique, tmp_path):
        full = RenderSession(
            "ccs", technique, config=CONFIG, num_frames=NUM_FRAMES
        )
        full_stats = record_frame_stats(full)
        full.run()
        resumed, resumed_stats = interrupted_run(technique, tmp_path)

        # Post-restore FrameStats match the uninterrupted run's exactly.
        assert len(resumed_stats) == NUM_FRAMES - CHECKPOINT_FRAME
        for expected, actual in zip(
            full_stats[CHECKPOINT_FRAME:], resumed_stats
        ):
            expected_data, expected_colors = frame_fingerprint(expected)
            actual_data, actual_colors = frame_fingerprint(actual)
            assert actual_data == expected_data
            assert np.array_equal(actual_colors, expected_colors)

        # Tile color CRCs for ALL frames (pre-checkpoint rows travel in
        # the checkpoint; post-restore rows are recomputed).
        assert np.array_equal(resumed.color_crcs, full.color_crcs)
        assert resumed.final_frame_crc == full.final_frame_crc

        # RE runs: input signatures across the whole run.
        if full.input_sigs is not None:
            assert np.array_equal(resumed.input_sigs, full.input_sigs)

        # Per-frame cycle/energy metrics, including exact floats.
        assert len(resumed.frames) == len(full.frames)
        for expected, actual in zip(full.frames, resumed.frames):
            assert dataclasses.asdict(actual) == dataclasses.asdict(expected)

    def test_run_result_totals_match(self, technique, tmp_path):
        full = RenderSession(
            "ccs", technique, config=CONFIG, num_frames=NUM_FRAMES
        )
        full.run()
        resumed, _ = interrupted_run(technique, tmp_path)
        total = lambda s: sum(f.cycles.total_cycles for f in s.frames)  # noqa: E731
        assert total(resumed) == total(full)
        energy = lambda s: sum(f.energy.total_nj for f in s.frames)  # noqa: E731
        assert energy(resumed) == energy(full)


def ccs_re_state_at_frame_2():
    """Checkpoint state of a 4-frame ccs/re run after 2 frames."""
    session = RenderSession("ccs", "re", config=CONFIG, num_frames=4)
    session.run(until=2)
    return session.checkpoint()


class TestCheckpointGuards:
    def test_mismatched_session_rejected(self, tmp_path):
        session = RenderSession("ccs", "re", config=CONFIG, num_frames=4)
        session.run(until=2)
        state = session.checkpoint()
        other = RenderSession("ccs", "te", config=CONFIG, num_frames=4)
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_resume_under_another_config_refused(self):
        state = ccs_re_state_at_frame_2()
        other = dataclasses.replace(CONFIG, num_fragment_processors=1)
        with pytest.raises(CheckpointError,
                           match="num_fragment_processors 4 -> 1"):
            RenderSession.from_checkpoint(state, config=other)
        resumed = RenderSession.from_checkpoint(state, config=CONFIG)
        assert resumed.frames_rendered == 2

    def test_config_stored_before_culling_removal_resumes(self):
        # Checkpoints written while GpuConfig had occlusion_culling
        # store it; off, it changed nothing, so the run continues.
        full = RenderSession("ccs", "re", config=CONFIG, num_frames=4)
        full.run()
        state = ccs_re_state_at_frame_2()
        state["session"]["config"]["occlusion_culling"] = False
        resumed = RenderSession.from_checkpoint(state)
        assert resumed.config == CONFIG
        resumed.run()
        assert np.array_equal(resumed.color_crcs, full.color_crcs)
        assert resumed.final_frame_crc == full.final_frame_crc
        assert [dataclasses.asdict(f) for f in resumed.frames] == \
            [dataclasses.asdict(f) for f in full.frames]

    def test_config_stored_with_culling_enabled_refused(self):
        state = ccs_re_state_at_frame_2()
        state["session"]["config"]["occlusion_culling"] = True
        with pytest.raises(ConfigError, match="occlusion_culling"):
            RenderSession.from_checkpoint(state)

    def test_run_until_is_clamped_and_idempotent(self):
        session = RenderSession("ccs", "baseline", config=CONFIG, num_frames=3)
        assert session.run(until=2) == 2
        assert session.run(until=2) == 0
        assert session.run(until=99) == 1
        assert session.run() == 0


class TestFinalFrameCrc:
    """The final frame CRC is computed when read, from the last frame."""

    @staticmethod
    def crc_of(stats) -> int:
        return zlib.crc32(stats.frame_colors.tobytes())

    def test_equals_crc_of_the_last_frames_bytes(self):
        session = RenderSession("hop", "re", config=CONFIG,
                                num_frames=NUM_FRAMES)
        assert session.final_frame_crc == 0
        frames = record_frame_stats(session)
        session.run()
        assert session.final_frame_crc == self.crc_of(frames[-1])
        assert self.crc_of(frames[-1]) != self.crc_of(frames[0])

    def test_checkpoint_after_frame_k_stores_frame_ks_crc(self):
        session = RenderSession("hop", "re", config=CONFIG,
                                num_frames=NUM_FRAMES)
        frames = record_frame_stats(session)
        for k in (1, CHECKPOINT_FRAME):
            session.run(until=k)
            assert (session.checkpoint()["final_frame_crc"]
                    == self.crc_of(frames[k - 1]))

    def test_restore_and_reset_keep_their_values(self):
        full = RenderSession("hop", "re", config=CONFIG,
                             num_frames=NUM_FRAMES)
        full.run()
        partial = RenderSession("hop", "re", config=CONFIG,
                                num_frames=NUM_FRAMES)
        partial.run(until=CHECKPOINT_FRAME)
        state = partial.checkpoint()

        resumed = RenderSession("hop", "re", config=CONFIG,
                                num_frames=NUM_FRAMES)
        resumed.restore(state)
        assert resumed.final_frame_crc == state["final_frame_crc"]
        resumed.run()
        assert resumed.final_frame_crc == full.final_frame_crc
        resumed.reset()
        assert resumed.final_frame_crc == 0
        resumed.run()
        assert resumed.final_frame_crc == full.final_frame_crc
