"""The fleet worker in-process: one supervised run across its points,
lease loss mid-point, and what its done records carry."""

import pytest

from repro.fleet.claims import ClaimStore
from repro.fleet.points import FleetSpec
from repro.fleet.worker import FleetWorker
from repro.harness import supervisor, workers


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def registry(tmp_path):
    FleetSpec(fleet_id="f1", alias="ccs", technique="re", num_frames=2,
              parameters={"tile_size": [8, 16],
                          "ot_queue_entries": [32, 64]},
              lease_s=30.0).save(tmp_path)       # 4 points
    return tmp_path


@pytest.fixture
def spawned(monkeypatch):
    """Count the supervisor's worker-process constructions."""
    count = []

    class CountingWorker(workers.Worker):
        def __init__(self, *args, **kwargs) -> None:
            count.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(supervisor, "Worker", CountingWorker)
    return count


def test_one_worker_process_serves_every_point(registry, spawned):
    worker = FleetWorker(registry, "f1", "w0", record_registry=None)
    summary = worker.run()
    assert len(spawned) == 1
    done = ClaimStore(registry, "f1").done_records()
    assert sorted(summary["completed"]) == sorted(done)
    assert len(done) == 4 and summary["failed"] == []
    for record in done.values():
        assert record["worker"] == "w0" and record["state"] == "done"
        assert record["execute_s"] > 0
    assert ClaimStore(registry, "f1").claims() == {}


def test_stolen_lease_abandons_only_that_point(registry, spawned):
    clock = FakeClock()
    worker = FleetWorker(registry, "f1", "w0", record_registry=None,
                         clock=clock)
    thief = ClaimStore(registry, "f1", clock=clock)
    stolen = []
    on_event = worker._on_event

    def steal_first_point(cell, kind, payload):
        # On the first point's first frame, the lease lapses and a peer
        # steals the point; the worker's renewal then finds it gone.
        if not stolen and kind != "done":
            clock.advance(2 * worker.spec.lease_s)
            stolen.extend(thief.reap_expired())
            assert thief.try_claim(stolen[0], "thief", worker.spec.lease_s)
        elif kind == "done" and not thief.is_done(stolen[0]):
            # The thief finishes its point while w0 works on the rest.
            thief.mark_done(stolen[0], "thief")
            thief.release(stolen[0], "thief")
        on_event(cell, kind, payload)

    worker._on_event = steal_first_point
    summary = worker.run()

    assert len(stolen) == 1
    done = ClaimStore(registry, "f1").done_records()
    assert sorted(done) == sorted(worker.spec.point_ids())   # one each
    assert done[stolen[0]]["worker"] == "thief"
    assert sorted(summary["completed"]) == sorted(
        pid for pid in done if pid != stolen[0])
    assert all(done[pid]["worker"] == "w0" for pid in summary["completed"])
    # The abandoned attempt ended with its run; a fresh run did the rest.
    assert len(spawned) == 2
    assert thief.claims() == {}


class FailingRegistry:
    def record_run(self, result, **kwargs):
        raise OSError("disk full")


def test_registry_error_is_amended_into_the_done_record(registry):
    FleetWorker(registry, "f1", "w0",
                record_registry=FailingRegistry()).run()
    done = ClaimStore(registry, "f1").done_records()
    assert len(done) == 4
    for record in done.values():
        assert record["state"] == "done"
        assert record["run_id"] is None
        assert record["registry_error"] == "disk full"
