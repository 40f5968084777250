"""End-to-end fleet acceptance: a crash-injected local fleet completes
every point exactly once and reconciles with a single-host sweep.

This is the CI fleet job in test form: 12 points, 3 worker processes,
one worker hard-killed after its second claim — completion must come
from lease-expiry requeue, and the recorded results must be
point-for-point identical (cycles, skip counts, CRCs) to the same grid
swept on a single host.
"""

import pytest

from repro.fleet import FleetSpec, launch_fleet
from repro.fleet.claims import ClaimStore
from repro.harness.supervisor import CRASH_EXITCODE
from repro.obs.diff import diff_fleets, fleet_point_entries
from repro.obs.store import RunRegistry

PARAMS = {"tile_size": [8, 16, 32],
          "ot_queue_entries": [16, 32, 64, 128]}   # 3 x 4 = 12 points
FRAMES = 2


@pytest.fixture(scope="module")
def fleet_registry(tmp_path_factory):
    """One crash-injected fleet run, shared by every assertion below."""
    root = tmp_path_factory.mktemp("fleet-registry")
    spec = FleetSpec(
        fleet_id="e2e", alias="ccs", technique="re", num_frames=FRAMES,
        parameters=dict(PARAMS), lease_s=4.0,
    )
    status = launch_fleet(
        root, spec, workers=3, crash_after={"w1": 2}, max_wait_s=240.0,
    )
    return root, spec, status


@pytest.mark.slow
class TestCrashInjectedFleet:
    def test_completes_despite_crash(self, fleet_registry):
        _, _, status = fleet_registry
        assert status["complete"]
        assert status["failed_points"] == []
        assert status["points"] == {"done": 12}

    def test_injected_worker_died_hard(self, fleet_registry):
        _, _, status = fleet_registry
        assert status["exit_codes"]["w1"] == CRASH_EXITCODE
        assert status["exit_codes"]["w0"] == 0
        assert status["exit_codes"]["w2"] == 0

    def test_every_point_done_exactly_once(self, fleet_registry):
        root, spec, _ = fleet_registry
        done = ClaimStore(root, "e2e").done_records()
        assert sorted(done) == sorted(spec.point_ids())
        for record in done.values():
            assert record["state"] == "done"
            # w1 finishes its first point, then crashes on its second
            # claim — so w1 may own at most that one done record.
            assert record["worker"] in ("w0", "w1", "w2")
            assert record["summary"]["num_frames"] == FRAMES
        assert sum(1 for r in done.values()
                   if r["worker"] == "w1") <= 1
        # No claims left behind; the orphaned claim was reaped.
        assert ClaimStore(root, "e2e").claims() == {}

    def test_manifests_recorded_with_fleet_stamps(self, fleet_registry):
        root, spec, _ = fleet_registry
        registry = RunRegistry(root)
        entries = fleet_point_entries(registry, "e2e")
        assert sorted(entries) == sorted(spec.point_ids())
        for pid, entry in entries.items():
            assert entry.summary["fleet_id"] == "e2e"
            assert entry.summary["point_id"] == pid
            assert entry.summary["parameters"].keys() == PARAMS.keys()

    def test_journal_records_the_requeue(self, fleet_registry):
        import json
        import os

        root, _, _ = fleet_registry
        path = os.path.join(root, "fleet", "e2e", "journal.jsonl")
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "fleet_start"
        assert kinds[-1] == "fleet_done"
        assert kinds.count("worker_spawned") == 3
        # The crashed worker's claim was stolen back by someone.
        assert ("claim_reaped" in kinds
                or "reaped" in [e.get("state") for e in events])

    def test_views_are_read_from_the_records(self, fleet_registry):
        import os

        root, _, status = fleet_registry
        fleet_dir = os.path.join(root, "fleet", "e2e")
        assert sorted(os.listdir(fleet_dir)) == [
            "claims", "done", "fleet.json", "journal.jsonl", "reaped",
        ]
        assert status["histogram"]["count"] == 12
        assert status["stalled"] == []
        # w1 finished its first point, then died holding its second
        # claim, which a peer reaped.
        crashed = status["workers"]["w1"]
        assert (crashed["state"], crashed["completed"], crashed["claims"]) \
            == ("reaped", 1, 2)
        assert sum(w["completed"] for w in status["workers"].values()) == 12

    def test_reconciles_with_single_host_sweep(self, fleet_registry):
        from repro.__main__ import main

        root, _, _ = fleet_registry
        rc = main([
            "--frames", str(FRAMES), "sweep", "ccs", "--technique", "re",
            "--set", "tile_size=8,16,32",
            "--set", "ot_queue_entries=16,32,64,128",
            "--fleet-id", "solo", "--registry", str(root),
        ])
        assert rc == 0
        diff = diff_fleets(RunRegistry(root), "e2e", "solo")
        assert diff["identical"], diff
        assert diff["divergent"] == 0
        assert diff["only_a"] == [] and diff["only_b"] == []
        assert len(diff["compared"]) == 12
        for row in diff["compared"]:
            assert row["identical"], row
