"""The claim/lease protocol: atomic single-winner filesystem ops."""

import concurrent.futures
import json
import os

import pytest

from repro.errors import FleetError
from repro.fleet.claims import ClaimStore
from repro.fleet.points import FleetSpec

PID = "a" * 16


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
              parameters={"tile_size": [8, 16]}).save(tmp_path)
    return tmp_path


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(registry, clock):
    return ClaimStore(registry, "f1", clock=clock)


class TestClaim:
    def test_single_winner(self, store):
        record = store.try_claim(PID, "w0", lease_s=30.0)
        assert record["worker"] == "w0"
        assert record["expires_at"] == record["claimed_at"] + 30.0
        assert store.try_claim(PID, "w1", lease_s=30.0) is None

    def test_single_winner_under_concurrency(self, registry, clock):
        # Many threads race O_EXCL on the same path: the kernel picks
        # exactly one winner.
        stores = [ClaimStore(registry, "f1", clock=clock)
                  for _ in range(8)]
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            wins = list(pool.map(
                lambda i: stores[i].try_claim(PID, f"w{i}", 30.0),
                range(8),
            ))
        assert sum(1 for w in wins if w is not None) == 1

    def test_done_point_not_claimable(self, store):
        store.mark_done(PID, "w0")
        assert store.try_claim(PID, "w1", lease_s=30.0) is None


class TestRenewRelease:
    def test_owner_renews(self, store, clock):
        first = store.try_claim(PID, "w0", lease_s=30.0)
        clock.advance(10.0)
        renewed = store.renew(PID, "w0", lease_s=30.0)
        assert renewed["renewals"] == 1
        assert renewed["claimed_at"] == first["claimed_at"]
        assert renewed["expires_at"] == clock.now + 30.0

    def test_non_owner_renew_raises(self, store):
        store.try_claim(PID, "w0", lease_s=30.0)
        with pytest.raises(FleetError, match="lease lost"):
            store.renew(PID, "w1", lease_s=30.0)

    def test_renew_after_steal_raises(self, store, clock):
        store.try_claim(PID, "w0", lease_s=5.0)
        clock.advance(6.0)
        assert store.reap_expired() == [PID]
        with pytest.raises(FleetError, match="lease lost"):
            store.renew(PID, "w0", lease_s=5.0)

    def test_release_owner_only(self, store):
        store.try_claim(PID, "w0", lease_s=30.0)
        assert not store.release(PID, "w1")
        assert store.release(PID, "w0")
        assert not store.release(PID, "w0")
        assert store.claims() == {}


class TestDone:
    def test_exactly_once(self, store):
        assert store.mark_done(PID, "w0", summary={"total_cycles": 1})
        assert not store.mark_done(PID, "w1", summary={"total_cycles": 1})
        record = store.done_records()[PID]
        assert record["worker"] == "w0"
        assert record["state"] == "done"

    def test_amend_owner_only(self, store):
        store.mark_done(PID, "w0")
        assert not store.amend_done(PID, "w1", run_id="x")
        assert store.amend_done(PID, "w0", run_id="x")
        assert store.done_records()[PID]["run_id"] == "x"

    def test_failed_state_recorded(self, store):
        store.mark_done(PID, "w0", state="failed", error="boom")
        record = store.done_records()[PID]
        assert record["state"] == "failed"
        assert record["error"] == "boom"


class TestReaping:
    def test_expired_by_observer_clock(self, store, clock):
        store.try_claim(PID, "w0", lease_s=10.0)
        assert store.expired() == []
        clock.advance(11.0)
        assert [r["point_id"] for r in store.expired()] == [PID]

    def test_reap_moves_to_forensics(self, store, clock):
        store.try_claim(PID, "w0", lease_s=5.0)
        clock.advance(6.0)
        assert store.reap_expired() == [PID]
        assert store.claims() == {}
        assert len(os.listdir(store.reaped_dir)) == 1
        # The point is claimable again.
        assert store.try_claim(PID, "w1", lease_s=5.0) is not None

    def test_reap_race_single_winner(self, registry, clock):
        a = ClaimStore(registry, "f1", clock=clock)
        b = ClaimStore(registry, "f1", clock=clock)
        a.try_claim(PID, "w0", lease_s=5.0)
        clock.advance(6.0)
        assert a.reap(PID) is True
        assert b.reap(PID) is False

    def test_leftover_claim_on_done_point_cleared(self, store, clock):
        # A worker that died between mark_done and release leaves a
        # claim behind; reaping clears it without "stealing" the point.
        store.try_claim(PID, "w0", lease_s=5.0)
        store.mark_done(PID, "w0")
        clock.advance(6.0)
        assert store.reap_expired() == []
        assert store.claims() == {}

    def test_repeated_reaps_never_collide(self, store, clock):
        for worker in ("w0", "w1", "w2"):
            store.try_claim(PID, worker, lease_s=1.0)
            clock.advance(2.0)
            assert store.reap_expired() == [PID]
        assert len(os.listdir(store.reaped_dir)) == 3

    def test_reaped_records_name_holder_and_reap_time(self, store, clock):
        # The fleet views read requeues from reaped/: each record names
        # the holder it was stolen from and when, oldest reap first.
        for worker in ("w0", "w1"):
            store.try_claim(PID, worker, lease_s=1.0)
            clock.advance(2.0)
            store.reap_expired()
        records = store.reaped()
        assert [r["worker"] for r in records] == ["w0", "w1"]
        assert [r["reaped_at"] for r in records] == [1002.0, 1004.0]
        assert all(r["point_id"] == PID for r in records)


class TestRecordHygiene:
    def test_claim_files_are_valid_json_lines(self, store):
        store.try_claim(PID, "w0", lease_s=30.0)
        raw = open(store.claim_path(PID), encoding="utf-8").read()
        assert raw.endswith("\n")
        assert json.loads(raw)["schema"] == "repro-fleet-claim-v1"

    def test_torn_claim_read_is_none_not_crash(self, store):
        with open(store.claim_path(PID), "w", encoding="utf-8") as handle:
            handle.write('{"half":')
        assert store.claims() == {}
        # And the torn file still loses O_EXCL races realistically:
        assert store.try_claim(PID, "w0", lease_s=1.0) is None
