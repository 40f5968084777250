"""Golden conformance: every workload matches its committed baseline.

The registry at ``results/goldens`` pins, for every alias and both
techniques, the full frames x tiles CRC matrix and RE's skip count at
the tier-1 ``small`` scale.  These tests re-render each point and
compare bit-for-bit, so any change to the renderer, the scene
definitions, or RE's skip decisions shows up as a named diff — not a
silent drift.  After an *intentional* output change, refresh with
``python -m repro goldens record``.
"""

import math
import os
import types

import pytest

from repro.config import GpuConfig
from repro.harness.goldens import (
    GOLDEN_FRAMES,
    GOLDEN_TECHNIQUES,
    _model_drift_detail,
    check_goldens,
    golden_config,
)
from repro.harness.runner import run_workload
from repro.memory import dram
from repro.obs.store import RunRegistry
from repro.workloads import all_workload_aliases
from repro.workloads.dsl import PACK_DIR, load_path
from repro.workloads.dsl import registry as dsl_registry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
GOLDENS_ROOT = os.path.join(REPO_ROOT, "results", "goldens")


@pytest.fixture(scope="module")
def goldens():
    assert os.path.isdir(GOLDENS_ROOT), (
        f"committed goldens registry missing at {GOLDENS_ROOT} "
        f"(run `python -m repro goldens record`)"
    )
    return RunRegistry(GOLDENS_ROOT)


def test_pack_scene_files_are_valid():
    paths = sorted(
        os.path.join(PACK_DIR, name) for name in os.listdir(PACK_DIR)
        if name.endswith(dsl_registry.SCENE_EXTENSIONS)
    )
    assert paths, f"no scene files committed under {PACK_DIR}"
    for path in paths:
        doc = load_path(path)
        assert doc.name == os.path.splitext(os.path.basename(path))[0]


def test_every_pack_alias_has_goldens_for_both_techniques(goldens):
    # Pack scenes only: ad-hoc scenes registered from user dirs or
    # $REPRO_WORKLOAD_PATH (e.g. by other tests in this process) are
    # discoverable but cannot have committed goldens.
    digest = golden_config().digest()
    pack_aliases = sorted(
        alias for alias, entry in dsl_registry.discover().items()
        if entry.origin == "pack"
    )
    assert len(pack_aliases) >= 7
    missing = [
        (alias, technique)
        for alias in pack_aliases
        for technique in GOLDEN_TECHNIQUES
        if goldens.find_golden(alias, technique, digest,
                               GOLDEN_FRAMES) is None
    ]
    assert not missing, (
        f"DSL aliases without committed goldens: {missing} "
        f"(run `python -m repro goldens record`)"
    )


@pytest.mark.parametrize("alias", all_workload_aliases())
def test_alias_conforms_to_committed_goldens(goldens, alias):
    report = check_goldens(goldens, aliases=[alias])
    assert report.ok, report.summary()


def test_memory_model_drift_fails_with_exact_output(goldens, monkeypatch):
    # Hiding less DRAM latency changes stall cycles and nothing a tile's
    # colors or RE's skips depend on: only the pinned model values catch it.
    monkeypatch.setattr(dram, "latency_overlap", lambda config: 0.5)
    report = check_goldens(goldens, aliases=["ccs"])
    assert [check.status for check in report.checks] == [
        "model-drift", "model-drift",
    ], report.summary()
    assert "stall_cycles" in report.checks[0].detail
    assert " -> " in report.checks[0].detail


def test_float_totals_tolerate_rounding_but_not_a_cycle(goldens):
    # The float totals' last bits depend on the interpreter's summation
    # (Python 3.12 compensates ``sum`` over floats); one modelled cycle,
    # nanojoule or traffic byte of drift must still fail.
    entry = goldens.find_golden("ccs", "baseline", golden_config().digest(),
                                GOLDEN_FRAMES)
    summary = goldens.manifest(entry.run_id)["summary"]

    def fresh(**totals):
        values = {key: summary[key] for key in (
            "total_cycles", "total_energy_nj", "total_traffic_bytes")}
        values.update(totals)
        return types.SimpleNamespace(counters=dict(summary["counters"]),
                                     **values)

    def ulps_up(value, count=4):
        for _ in range(count):
            value = math.nextafter(value, math.inf)
        return value

    assert _model_drift_detail(summary, fresh()) == ""
    assert _model_drift_detail(summary, fresh(
        total_cycles=ulps_up(summary["total_cycles"]),
        total_energy_nj=ulps_up(summary["total_energy_nj"]),
    )) == ""
    for key, delta in (("total_cycles", 1.0), ("total_energy_nj", 1.0),
                       ("total_traffic_bytes", 1)):
        detail = _model_drift_detail(
            summary, fresh(**{key: summary[key] + delta}))
        assert detail.startswith("1/") and key in detail, detail


@pytest.mark.slow
def test_hop_longrun_full_500_frames_bit_identical():
    """The long-run scene at its native 500-frame length: RE stays
    lossless over many blink/orbit periods, not just the golden 8."""
    config = GpuConfig.small()
    frames = dsl_registry.workload_native_frames("hop_longrun")
    assert frames == 500
    baseline = run_workload("hop_longrun", "baseline", config,
                            num_frames=frames)
    re_run = run_workload("hop_longrun", "re", config, num_frames=frames)
    import numpy as np
    assert np.array_equal(baseline.tile_color_crcs,
                          re_run.tile_color_crcs)
    assert re_run.tiles_skipped > 0


@pytest.mark.slow
def test_ui_dashboard_native_1080p_smoke():
    """The 1080p UI scene at its native resolution: a short
    bit-identity smoke at full scale (slow: ~8 s per frame)."""
    config = dsl_registry.workload_native_config(
        "ui_dashboard", GpuConfig.small())
    assert (config.screen_width, config.screen_height) == (1920, 1080)
    baseline = run_workload("ui_dashboard", "baseline", config,
                            num_frames=2)
    re_run = run_workload("ui_dashboard", "re", config, num_frames=2)
    import numpy as np
    assert np.array_equal(baseline.tile_color_crcs,
                          re_run.tile_color_crcs)
