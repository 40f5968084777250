"""Live telemetry: sinks, aggregator, and stall flagging end-to-end.

The end-to-end test is the satellite acceptance case: a supervised run
with an injected ``hang`` fault must show the wedged worker as STALLED
in the status table and the ``live.json`` heartbeat *before* the
supervisor's timeout kills the attempt.
"""

import json

import pytest

from repro.config import GpuConfig
from repro.harness.parallel import Cell, run_cells
from repro.harness.supervisor import SupervisorPolicy, supervise_cells
from repro.obs.live import (
    NULL_LIVE,
    ChannelLiveSink,
    LiveAggregator,
    LiveSink,
)

CONFIG = GpuConfig.small()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLiveSink:
    def test_disabled_sink_is_falsy_noop(self):
        sink = LiveSink()
        assert not sink
        assert not NULL_LIVE
        sink.frame_done(1, 10, tiles_skipped=3)    # must not raise
        sink.finish(ok=False)

    def test_channel_sink_is_truthy(self):
        class Channel:
            def send(self, message):
                pass

        assert ChannelLiveSink(Channel(), "w")

    def test_posts_are_tagged_and_labeled(self):
        posted = []

        class Channel:
            def send(self, message):
                posted.append(message)

        sink = ChannelLiveSink(Channel(), "cde/re", attempt=2)
        sink.frame_done(1, 4, tiles_skipped=7)
        sink.finish()
        assert [tag for tag, _ in posted] == ["telemetry", "telemetry"]
        frame, done = (payload for _, payload in posted)
        assert frame["worker"] == "cde/re"
        assert frame["attempt"] == 2
        assert frame["frames"] == 1 and frame["total"] == 4
        assert frame["counters"] == {"tiles_skipped": 7}
        assert done["event"] == "done" and done["ok"]

    def test_broken_channel_is_swallowed(self):
        class Channel:
            def send(self, message):
                raise OSError("pipe gone")

        sink = ChannelLiveSink(Channel(), "w")
        sink.frame_done(1, 2)          # must not raise
        sink.finish()


class TestLiveAggregator:
    def test_stall_flagged_and_cleared(self, tmp_path):
        clock = FakeClock()
        agg = LiveAggregator(path=tmp_path / "live.json",
                             stall_after_s=1.0, interval_s=0.0,
                             clock=clock)
        agg.update({"worker": "a", "frames": 1, "total": 4})
        agg.update({"worker": "b", "frames": 1, "total": 4})
        clock.now = 2.0
        agg.update({"worker": "b", "frames": 2, "total": 4})
        assert agg.stalled() == ["a"]
        assert "STALLED" in agg.render_status_table()
        events = [e["event"] for e in agg.events]
        assert "stall_flagged" in events
        # Telemetry resuming clears the flag and logs the recovery.
        agg.update({"worker": "a", "frames": 2, "total": 4})
        assert agg.stalled() == []
        assert "stall_cleared" in [e["event"] for e in agg.events]

    def test_done_workers_never_stall(self):
        clock = FakeClock()
        agg = LiveAggregator(path=None, stall_after_s=1.0,
                             interval_s=0.0, clock=clock)
        agg.update({"worker": "a", "frames": 4, "total": 4})
        agg.update({"worker": "a", "event": "done", "ok": True})
        clock.now = 100.0
        assert agg.stalled() == []
        assert agg.workers["a"]["status"] == "done"

    def test_heartbeat_is_valid_json_with_events(self, tmp_path):
        path = tmp_path / "live.json"
        clock = FakeClock()
        agg = LiveAggregator(path=path, stall_after_s=0.5,
                             interval_s=0.0, clock=clock)
        agg.update(("telemetry", {"worker": "a", "frames": 1, "total": 2,
                                  "counters": {"tiles_skipped": 5}}))
        clock.now = 1.0
        agg.tick(force=True)
        heartbeat = json.loads(path.read_text())
        assert heartbeat["workers"]["a"]["counters"]["tiles_skipped"] == 5
        assert heartbeat["stalled"] == ["a"]
        assert any(e["event"] == "stall_flagged"
                   for e in heartbeat["events"])

    def test_zero_interval_sets_only_stall_deadlines(self):
        # interval_s=0 emits on every tick, so the heartbeat must not
        # also be a deadline a waiting loop wakes for at once.
        clock = FakeClock()
        agg = LiveAggregator(path=None, stall_after_s=1.0,
                             interval_s=0.0, clock=clock)
        assert agg.seconds_until_tick() is None
        agg.update({"worker": "a", "frames": 1, "total": 4})
        clock.now = 0.25
        assert agg.seconds_until_tick() == pytest.approx(0.75)
        clock.now = 2.0
        assert agg.tick() and agg.stalled() == ["a"]
        assert agg.seconds_until_tick() is None
        assert agg.tick() and agg.tick()

    def test_mark_status_records_terminal_events(self):
        agg = LiveAggregator(path=None, interval_s=0.0)
        agg.update({"worker": "a", "frames": 1, "total": 2})
        agg.mark_status("a", "failed")
        assert agg.workers["a"]["status"] == "failed"
        assert "worker_failed" in [e["event"] for e in agg.events]


class TestPoolIntegration:
    def test_pool_run_streams_progress(self, tmp_path):
        path = tmp_path / "live.json"
        agg = LiveAggregator(path=path, stall_after_s=60.0,
                             interval_s=0.0)
        cells = [Cell("cde", "baseline", 3), Cell("cde", "re", 3)]
        results = run_cells(cells, config=CONFIG, processes=2, live=agg)
        assert len(results) == 2
        heartbeat = json.loads(path.read_text())
        for label in ("cde/baseline", "cde/re"):
            worker = heartbeat["workers"][label]
            assert worker["frames"] == 3
            assert worker["status"] == "done"
        assert heartbeat["stalled"] == []


class TestStalledWorkerEndToEnd:
    @pytest.mark.slow
    def test_hang_is_flagged_before_the_timeout_kill(self, tmp_path):
        """A hung worker shows as STALLED in live.json and the status
        table before the supervisor's timeout fires, and the run still
        recovers from its checkpoint."""
        live_path = tmp_path / "live.json"
        journal_path = tmp_path / "journal.jsonl"
        agg = LiveAggregator(path=live_path, stall_after_s=0.4,
                             interval_s=0.0)
        cell = Cell("cde", "re", 4)
        policy = SupervisorPolicy(
            timeout_s=2.5, max_retries=1, checkpoint_stride=1,
            backoff_base_s=0.01,
        )
        supervised = supervise_cells(
            [cell], config=CONFIG, policy=policy,
            journal_path=journal_path, fault_spec="cde/re:2:hang",
            workdir=tmp_path / "work", live=agg,
        )
        outcome = supervised.outcomes[cell]
        assert outcome.succeeded
        assert outcome.attempts == 2

        stall_events = [
            e for e in agg.events if e["event"] == "stall_flagged"
        ]
        assert stall_events, "hung worker was never flagged"
        journal = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        timeouts = [r for r in journal if r["event"] == "attempt_timeout"]
        assert timeouts, "supervisor never timed the attempt out"
        # The whole point: the stall flag precedes the timeout kill.
        assert stall_events[0]["ts"] < timeouts[0]["ts"]

        # The status table showed the worker as STALLED while it hung.
        assert "STALLED" in agg.status_output()

        # And the heartbeat kept the evidence: the stall event is in the
        # file, and the final state shows the recovered worker done.
        heartbeat = json.loads(live_path.read_text())
        assert any(e["event"] == "stall_flagged"
                   for e in heartbeat["events"])
        assert heartbeat["workers"]["cde/re"]["status"] == "done"

    @pytest.mark.slow
    def test_full_fleet_hang_flags_every_worker(self, tmp_path):
        """When *every* worker hangs (wildcard fault), the poll loop must
        flag them all before the supervisor's timeout starts killing —
        stall detection cannot depend on progress from a healthy peer."""
        live_path = tmp_path / "live.json"
        journal_path = tmp_path / "journal.jsonl"
        agg = LiveAggregator(path=live_path, stall_after_s=0.4,
                             interval_s=0.0)
        cells = [Cell("cde", "re", 4), Cell("ccs", "re", 4)]
        policy = SupervisorPolicy(
            timeout_s=2.5, max_retries=0, checkpoint_stride=1,
            backoff_base_s=0.01,
        )
        supervised = supervise_cells(
            cells, config=CONFIG, policy=policy, processes=2,
            journal_path=journal_path, fault_spec="*/re:1:hang",
            workdir=tmp_path / "work", live=agg,
        )
        # With zero retries every attempt dies on the timeout.
        assert all(
            not outcome.succeeded
            for outcome in supervised.outcomes.values()
        )

        stall_events = [
            e for e in agg.events if e["event"] == "stall_flagged"
        ]
        flagged = {e["worker"] for e in stall_events}
        assert flagged == {"cde/re", "ccs/re"}, (
            f"only {flagged} flagged during a full-fleet hang"
        )
        journal = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        timeouts = [r for r in journal if r["event"] == "attempt_timeout"]
        assert len(timeouts) == 2
        # Every stall flag lands before the first kill: detection ran
        # while zero workers were making progress.
        assert max(e["ts"] for e in stall_events) \
            < min(r["ts"] for r in timeouts)
