"""Parameter sweep driver."""

import json

import pytest

from repro.errors import ReproError
from repro.harness.supervisor import SupervisorPolicy
from repro.harness.sweeps import sweep, tabulate
from repro.obs.live import LiveAggregator

TAGS = ("cde-re-tile_size=8", "cde-re-tile_size=16")


class TestSweep:
    def test_grid_order_and_configs(self):
        points = sweep(
            "cde", "re",
            {"tile_size": [16, 32], "ot_queue_entries": [16, 64]},
            num_frames=4,
        )
        assert len(points) == 4
        assert points[0].parameters == {"tile_size": 16, "ot_queue_entries": 16}
        assert points[-1].parameters == {"tile_size": 32, "ot_queue_entries": 64}
        assert points[0].run.config.tile_size == 16
        assert points[-1].run.config.ot_queue_entries == 64

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ReproError):
            sweep("cde", "re", {"warp_size": [32]}, num_frames=2)

    def test_metric_extraction(self):
        points = sweep("cde", "re", {"tile_size": [16]}, num_frames=4)
        point = points[0]
        assert point.metric("total_cycles") > 0
        assert 0.0 <= point.metric("skipped_fraction") <= 1.0
        with pytest.raises(ReproError):
            point.metric("flops")

    def test_tabulate(self):
        points = sweep("cde", "re", {"tile_size": [16, 32]}, num_frames=4)
        rows = tabulate(points, "skipped_fraction")
        assert len(rows) == 2
        assert rows[0][0] == 16
        assert isinstance(rows[0][1], float)

    def test_sweep_shows_real_effects(self):
        # Finer tiles never detect less redundancy on a static-ish game.
        points = sweep("cde", "re", {"tile_size": [8, 32]}, num_frames=6)
        fine, coarse = points[0], points[1]
        assert (
            fine.metric("skipped_fraction")
            >= coarse.metric("skipped_fraction") - 0.02
        )


class TestSweepArtifactNaming:
    def test_points_tagged_with_parameter_assignment(self, tmp_path):
        trace = tmp_path / "grid.trace.json"
        sweep("cde", "re", {"tile_size": [8, 16]}, num_frames=2,
              trace_path=trace)
        for value in (8, 16):
            assert (tmp_path / f"grid.trace-cde-re-tile_size={value}.json"
                    ).exists()

    @pytest.mark.parametrize("supervised", [False, True],
                             ids=["plain", "supervised"])
    def test_points_get_their_own_live_rows(self, tmp_path, supervised):
        # Each point is its own worker row, named by its tag, whether
        # the grid runs plain or under the supervisor.
        live_path = tmp_path / "live.json"
        journal_path = tmp_path / "journal.jsonl"
        agg = LiveAggregator(path=live_path, stall_after_s=60.0,
                             interval_s=0.0)
        sweep("cde", "re", {"tile_size": [8, 16]}, num_frames=2, live=agg,
              policy=SupervisorPolicy(max_retries=0) if supervised else None,
              journal_path=journal_path if supervised else None)
        rows = json.loads(live_path.read_text())["workers"]
        assert sorted(rows) == sorted(TAGS)
        assert all(row["status"] == "done" for row in rows.values())
        if supervised:
            done = [json.loads(line)["cell"]
                    for line in journal_path.read_text().splitlines()
                    if json.loads(line)["event"] == "cell_done"]
            assert sorted(done) == sorted(TAGS)

    def test_single_point_uses_base_path_verbatim(self, tmp_path):
        trace = tmp_path / "one.trace.json"
        sweep("cde", "re", {"tile_size": [16]}, num_frames=2,
              trace_path=trace)
        assert trace.exists()


class TestSweepCollisionSafety:
    def test_duplicate_points_raise(self):
        with pytest.raises(ReproError, match="duplicate parameter point"):
            sweep("cde", "re", {"tile_size": [8, 8]}, num_frames=2)

    def test_duplicates_raise_before_any_simulation(self):
        # The check is up-front: an enormous frame count never runs.
        with pytest.raises(ReproError):
            sweep("cde", "re", {"tile_size": [16, 16]}, num_frames=10**6)

    def test_supervised_duplicates_raise_too(self, tmp_path):
        with pytest.raises(ReproError, match="duplicate parameter point"):
            sweep("cde", "re", {"tile_size": [8, 8]}, num_frames=2,
                  policy=SupervisorPolicy(),
                  journal_path=tmp_path / "journal.jsonl")
