"""Staleness edges: clock skew, SIGKILLed workers, and leases expiring
mid-execute.

These are the failure rows of DESIGN's fleet matrix, driven without
real processes: claim and done records are written the way real
workers write them, and the coordinator/claim machinery observes them
under controlled clocks.
"""

import time

import pytest

from repro.errors import FleetError
from repro.fleet.claims import ClaimStore
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.points import FleetSpec, load_spec
from repro.obs.live import LiveAggregator

PID = "b" * 16


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
              parameters={"tile_size": [8, 16]}, lease_s=5.0,
              ).save(tmp_path)
    return tmp_path


class TestClockSkew:
    def test_arrival_time_mode_ignores_payload_ts(self):
        # The default (service) mode keys staleness off arrival: the
        # same ancient stamp is fresh because it just arrived.
        agg = LiveAggregator(path=None, stall_after_s=1.0)
        agg.update({"worker": "w0", "ts": time.time() - 30.0,
                    "frames": 1, "counters": {}})
        assert agg.stalled() == []

    def test_skewed_worker_lease_not_reaped_early(self, registry):
        # Expiry compares the owner's *promised* expires_at against the
        # observer's clock.  An owner whose clock runs ahead promises a
        # later expiry — peers with honest clocks must not steal early.
        ahead = FakeClock(1060.0)       # worker clock: +60s skew
        honest = FakeClock(1000.0)
        ClaimStore(registry, "f1", clock=ahead).try_claim(
            PID, "w0", lease_s=5.0)
        observer = ClaimStore(registry, "f1", clock=honest)
        honest.advance(10.0)            # past lease by honest clock...
        assert observer.reap_expired() == []    # ...but not promised
        honest.advance(60.0)
        assert observer.reap_expired() == [PID]


class TestSigkilledWorker:
    """A worker is stalled when it holds a claim whose promised
    ``expires_at`` has passed by the observer's clock."""

    @staticmethod
    def flagged_once_the_promised_expiry_passes(registry, skew_s):
        # The worker claims a point, then is SIGKILLed: no renewal, no
        # release, no done record — nothing further is ever written.
        pid = load_spec(registry, "f1").point_ids()[0]
        ClaimStore(registry, "f1", clock=FakeClock(1000.0 + skew_s)
                   ).try_claim(pid, "w0", lease_s=5.0)
        observer = FakeClock(1000.0)
        coordinator = FleetCoordinator(registry, "f1", clock=observer)

        observer.advance(skew_s + 4.9)      # the lease is still promised
        status = coordinator.status()
        assert status["stalled"] == []
        assert status["workers"]["w0"]["state"] == "executing"
        assert not status["workers"]["w0"]["stalled"]
        assert coordinator.reap_orphans() == []

        observer.advance(0.2)               # just past the promised expiry
        status = coordinator.status()
        assert status["stalled"] == ["w0"]
        assert status["workers"]["w0"]["stalled"]
        assert "STALLED" in coordinator.render_status()

        # The same signal requeues the point.
        assert coordinator.reap_orphans() == [pid]
        states = {point: state for point, _, state, _
                  in coordinator.point_map()}
        assert states[pid] == "unclaimed"
        status = coordinator.status()
        assert status["stalled"] == []
        assert status["workers"]["w0"]["state"] == "reaped"

    def test_stall_flagged_and_lease_reaped(self, registry):
        self.flagged_once_the_promised_expiry_passes(registry, 0.0)

    def test_clock_ahead_is_not_flagged_early(self, registry):
        # The worker's clock runs a minute ahead, so it promises a later
        # expiry; an honest observer waits that promise out.
        self.flagged_once_the_promised_expiry_passes(registry, 60.0)

    def test_released_worker_is_never_flagged(self, registry):
        # A clean finish is silent forever after, but must never read
        # as a stall: the worker holds no claim.
        clock = FakeClock()
        store = ClaimStore(registry, "f1", clock=clock)
        for pid in load_spec(registry, "f1").point_ids():
            store.try_claim(pid, "w0", lease_s=5.0)
            clock.advance(1.0)
            store.mark_done(pid, "w0", execute_s=1.0)
            store.release(pid, "w0")
        coordinator = FleetCoordinator(registry, "f1", clock=clock)
        clock.advance(3600.0)
        status = coordinator.status()
        assert status["stalled"] == []
        assert status["complete"]
        worker = status["workers"]["w0"]
        assert (worker["state"], worker["completed"], worker["claims"]) \
            == ("finished", 2, 2)
        assert worker["beat_age_s"] == pytest.approx(3600.0)
        assert status["histogram"]["count"] == 2


class TestLeaseExpiryMidExecute:
    def test_point_reclaimed_exactly_once(self, registry):
        clock = FakeClock()
        a = ClaimStore(registry, "f1", clock=clock)
        b = ClaimStore(registry, "f1", clock=clock)
        assert a.try_claim(PID, "wA", lease_s=5.0)

        # wA wedges mid-execute; the lease lapses; wB (and only wB,
        # even racing a third store) steals and re-claims.
        clock.advance(6.0)
        c = ClaimStore(registry, "f1", clock=clock)
        stolen_b = b.reap_expired()
        stolen_c = c.reap_expired()
        assert sorted(stolen_b + stolen_c) == [PID]
        claimed = [s.try_claim(PID, w, 5.0) is not None
                   for s, w in ((b, "wB"), (c, "wC"))]
        assert claimed.count(True) == 1

        # wA unwedges: its next renewal discovers the theft and raises,
        # which aborts its attempt (the worker walks away).
        with pytest.raises(FleetError, match="lease lost"):
            a.renew(PID, "wA", lease_s=5.0)

        # Suppose wA had already computed a result anyway (duplicate
        # execution): the done record stays exactly-once, thief wins.
        winner = "wB" if claimed[0] else "wC"
        assert (b if claimed[0] else c).mark_done(PID, winner)
        assert not a.mark_done(PID, "wA")
        assert a.done_records()[PID]["worker"] == winner

    def test_renewal_extends_across_expiry_horizon(self, registry):
        # The renewing path: a slow-but-alive worker renews inside the
        # lease window and is never reaped.
        clock = FakeClock()
        store = ClaimStore(registry, "f1", clock=clock)
        store.try_claim(PID, "wA", lease_s=5.0)
        for _ in range(6):                  # 9s of work on a 5s lease
            clock.advance(1.5)
            store.renew(PID, "wA", lease_s=5.0)
            assert store.reap_expired() == []
        record = store.claims()[PID]
        assert record["renewals"] == 6
