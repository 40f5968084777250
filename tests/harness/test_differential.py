"""Differential correctness: baseline vs Rendering Elimination, end to
end, over every Table II workload.

The paper's central correctness claim is that RE is *lossless*: a
skipped tile's framebuffer contents are reused, so the rendered output
is identical to the baseline.  This suite pins that claim per workload —
per-frame per-tile CRCs must match bit for bit — and pins each
workload's skip count against goldens so a silent behavior change in the
signature path (hashing, comparison distance, skip decision) fails
loudly rather than shifting a figure.
"""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.harness.classify import classify_run
from repro.harness.runner import run_workload
from repro.workloads.games import FIGURE_ORDER

pytestmark = pytest.mark.slow

CONFIG = GpuConfig.small()
FRAMES = 6

#: Golden tiles_skipped per workload: small config, 6 frames, technique
#: "re".  Regenerate (only for a deliberate behavior change) with:
#:   PYTHONPATH=src python - <<'EOF'
#:   from repro.config import GpuConfig
#:   from repro.harness.runner import run_workload
#:   from repro.workloads.games import FIGURE_ORDER
#:   for a in FIGURE_ORDER:
#:       r = run_workload(a, "re", GpuConfig.small(), num_frames=6)
#:       print(f'    "{a}": {r.tiles_skipped},')
#:   EOF
GOLDEN_TILES_SKIPPED = {
    "ccs": 59,
    "cde": 70,
    "coc": 40,
    "ctr": 60,
    "hop": 27,
    "mst": 0,
    "abi": 82,
    "csn": 24,
    "ter": 24,
    "tib": 47,
}


@pytest.fixture(scope="module", params=FIGURE_ORDER)
def pair(request):
    """(baseline run, re run) of one workload alias."""
    alias = request.param
    baseline = run_workload(alias, "baseline", CONFIG, num_frames=FRAMES)
    re_run = run_workload(alias, "re", CONFIG, num_frames=FRAMES)
    return baseline, re_run


class TestLossless:
    def test_every_frame_bit_identical(self, pair):
        baseline, re_run = pair
        # Whole-run CRC matrix: (frames, tiles).  One unequal entry means
        # RE reused a tile whose contents had actually changed.
        assert np.array_equal(
            re_run.tile_color_crcs, baseline.tile_color_crcs
        ), re_run.alias

    def test_final_frame_crc_matches(self, pair):
        baseline, re_run = pair
        assert re_run.final_frame_crc == baseline.final_frame_crc

    def test_no_signature_false_positives(self, pair):
        _, re_run = pair
        classes = classify_run(
            re_run, distance=CONFIG.signature_compare_distance
        )
        assert classes.diff_colors_eq_inputs == 0, re_run.alias


class TestGoldenSkips:
    def test_skip_count_pinned(self, pair):
        _, re_run = pair
        assert re_run.tiles_skipped == GOLDEN_TILES_SKIPPED[re_run.alias]

    def test_goldens_cover_every_workload(self):
        assert set(GOLDEN_TILES_SKIPPED) == set(FIGURE_ORDER)

    def test_static_workloads_skip_moving_ones_do_not(self):
        # The goldens themselves encode the paper's Fig. 2 ordering:
        # near-static menu/board games skip heavily, the racing game
        # (mst, new content every frame) skips nothing.
        assert GOLDEN_TILES_SKIPPED["mst"] == 0
        assert GOLDEN_TILES_SKIPPED["abi"] > GOLDEN_TILES_SKIPPED["csn"]

