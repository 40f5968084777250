"""run_workload checkpoint/resume plumbing and the JSON run manifest."""

import json

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.harness import run_workload

CONFIG = GpuConfig.small()


@pytest.fixture(scope="module")
def full_run():
    return run_workload("ccs", "re", CONFIG, num_frames=6)


def test_resume_equals_uninterrupted(full_run, tmp_path):
    ckpt = tmp_path / "run.ckpt"
    # First run renders everything but leaves a mid-run checkpoint...
    first = run_workload(
        "ccs", "re", CONFIG, num_frames=6,
        checkpoint_at=3, checkpoint_path=ckpt,
    )
    assert ckpt.exists()
    assert np.array_equal(first.tile_color_crcs, full_run.tile_color_crcs)
    # ...which a second invocation resumes to the same end state.
    resumed = run_workload("ccs", resume_from=ckpt)
    assert resumed.alias == "ccs"
    assert resumed.technique == "re"
    assert resumed.num_frames == 6
    assert np.array_equal(resumed.tile_color_crcs, full_run.tile_color_crcs)
    assert np.array_equal(resumed.tile_input_sigs, full_run.tile_input_sigs)
    assert resumed.final_frame_crc == full_run.final_frame_crc
    assert resumed.total_cycles == full_run.total_cycles
    assert resumed.total_energy_nj == full_run.total_energy_nj
    # Whole-run counters, not just the frames rendered after the resume.
    assert resumed.counters == full_run.counters


def test_checkpoint_without_counters_still_resumes(full_run, tmp_path):
    # A checkpoint written before counters were stored keeps loading.
    from repro.engine.checkpoint import load_checkpoint, save_checkpoint

    ckpt = tmp_path / "run.ckpt"
    run_workload("ccs", "re", CONFIG, num_frames=6,
                 checkpoint_at=3, checkpoint_path=ckpt)
    state = load_checkpoint(ckpt)
    del state["format"], state["version"], state["counters"]
    save_checkpoint(state, ckpt)
    resumed = run_workload("ccs", resume_from=ckpt)
    assert np.array_equal(resumed.tile_color_crcs, full_run.tile_color_crcs)
    assert resumed.final_frame_crc == full_run.final_frame_crc


def test_checkpoint_at_requires_path():
    with pytest.raises(ValueError):
        run_workload("ccs", "re", CONFIG, num_frames=4, checkpoint_at=2)


def test_manifest_contents(tmp_path):
    manifest_path = tmp_path / "run.json"
    result = run_workload(
        "ccs", "re", CONFIG, num_frames=4, manifest_path=manifest_path,
    )
    manifest = json.loads(manifest_path.read_text())
    assert manifest["alias"] == "ccs"
    assert manifest["technique"] == "re"
    assert manifest["num_frames"] == 4
    assert manifest["resumed_from_frame"] is None
    assert manifest["final_frame_crc"] == result.final_frame_crc
    assert manifest["total_cycles"] == result.total_cycles
    assert manifest["skipped_fraction"] == result.skipped_fraction()
    assert manifest["warmup_frames"] == CONFIG.signature_compare_distance
    assert manifest["config"]["screen_width"] == CONFIG.screen_width


def test_warmup_derived_from_compare_distance(full_run):
    assert full_run.warmup_frames == CONFIG.signature_compare_distance == 2
    # An explicit warmup still overrides the configured default.
    assert full_run.skipped_fraction() == full_run.skipped_fraction(warmup=2)
    assert full_run.skipped_fraction(warmup=0) <= full_run.skipped_fraction()
