"""Service telemetry: histograms, the recorder, and the live daemon.

Unit tests drive :class:`LogHistogram` / :class:`TelemetryRecorder`
with a fake clock and fabricated jobs; the end-to-end class runs one
module-scoped daemon through a scripted warm/cold submission sequence
and asserts the ``stats`` verb, the ``watch`` stream, the ``repro
stats`` rendering and the merged distributed trace against exact
expected counters.
"""

import contextlib
import io
import json

import pytest

from repro.errors import ReproError
from repro.obs.distributed import merge_shards
from repro.obs.store import RunRegistry
from repro.obs.validate import validate_trace
from repro.service import (
    JobSpec,
    LogHistogram,
    ServiceClient,
    ServiceConfig,
    TelemetryRecorder,
    merge_histograms,
)
from repro.service.daemon import EngineDaemon, Job
from repro.service.server import ServiceServer
from repro.service.telemetry import TENANT_COUNTERS

FRAMES = 2


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float = 1.0) -> float:
        self.now += seconds
        return self.now


def make_job(job_id="j0001", tenant="default", alias="ccs",
             submitted_at=1000.0) -> Job:
    spec = JobSpec(alias, num_frames=FRAMES, tenant=tenant)
    job = Job(job_id, spec, spec.digest())
    job.submitted_at = submitted_at
    return job


class TestLogHistogram:
    def test_exact_quantiles_from_buckets(self):
        hist = LogHistogram(1.0, 64.0, factor=2.0)
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)
        # p50 lands in the bucket with upper edge 2; p99 walks to the
        # bucket holding 3.0 (edge 4) and clamps to the observed max.
        assert hist.quantile(0.50) == 2.0
        assert hist.quantile(0.99) == 3.0

    def test_quantiles_clamped_to_observed_range(self):
        hist = LogHistogram(1.0, 64.0)
        hist.observe(5.0)
        assert hist.quantile(0.01) == 5.0
        assert hist.quantile(0.99) == 5.0

    def test_empty_histogram_answers_zero(self):
        hist = LogHistogram(1.0, 64.0)
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_overflow_bucket_uses_observed_max(self):
        hist = LogHistogram(1.0, 4.0)
        hist.observe(1000.0)
        assert hist.quantile(0.99) == 1000.0

    def test_merge_adds_counts_and_extends_range(self):
        left = LogHistogram(1.0, 64.0)
        right = LogHistogram(1.0, 64.0)
        left.observe(1.0)
        right.observe(32.0)
        left.merge(right)
        assert left.count == 2
        assert left.min == 1.0
        assert left.max == 32.0

    def test_merge_requires_matching_scheme(self):
        with pytest.raises(ReproError, match="cannot merge"):
            LogHistogram(1.0, 64.0).merge(LogHistogram(1.0, 128.0))

    def test_dict_round_trip(self):
        hist = LogHistogram(1e-3, 600.0)
        for value in (0.01, 0.1, 5.0):
            hist.observe(value)
        loaded = LogHistogram.from_dict(hist.to_dict())
        assert loaded.counts == hist.counts
        assert loaded.quantile(0.5) == hist.quantile(0.5)

    def test_from_dict_rejects_wrong_bucket_count(self):
        data = LogHistogram(1.0, 64.0).to_dict()
        data["counts"] = [0, 1]
        with pytest.raises(ReproError, match="counts length"):
            LogHistogram.from_dict(data)

    def test_bad_scheme_rejected(self):
        with pytest.raises(ReproError, match="bad histogram scheme"):
            LogHistogram(0.0, 64.0)

    def test_merge_histograms_helper(self):
        left = LogHistogram(1.0, 64.0)
        right = LogHistogram(1.0, 64.0)
        left.observe(2.0)
        right.observe(8.0)
        merged = merge_histograms([left.to_dict(), right.to_dict()])
        assert merged["count"] == 2
        with pytest.raises(ReproError, match="no histograms"):
            merge_histograms([])


class TestTelemetryRecorder:
    def test_tenant_counters_reconcile(self):
        clock = FakeClock()
        telemetry = TelemetryRecorder(clock=clock)
        done = make_job("j0001", tenant="alice")
        telemetry.job_admitted(done)
        telemetry.job_refused("alice", "backpressure")
        retried = make_job("j0002", tenant="bob")
        telemetry.job_admitted(retried)
        telemetry.job_retried(retried)
        telemetry.job_failed(retried)
        done.started_at = clock.tick()
        done.finished_at = clock.tick()
        telemetry.job_finished(done, warm=True)
        snapshot = telemetry.snapshot()
        assert snapshot["tenants"]["alice"] == {
            "submitted": 1, "completed": 1, "refused": 1,
            "retried": 0, "crashed": 0,
        }
        assert snapshot["tenants"]["bob"] == {
            "submitted": 1, "completed": 0, "refused": 0,
            "retried": 1, "crashed": 1,
        }

    def test_withdrawn_job_rolls_submitted_back(self):
        telemetry = TelemetryRecorder()
        job = make_job(tenant="alice")
        telemetry.job_admitted(job)
        telemetry.job_withdrawn(job)
        tenants = telemetry.snapshot()["tenants"]
        assert tenants["alice"]["submitted"] == 0

    def test_latency_histograms_observe_lifecycle(self):
        clock = FakeClock()
        telemetry = TelemetryRecorder(clock=clock)
        job = make_job(submitted_at=clock.now)
        telemetry.job_admitted(job)
        job.started_at = clock.tick(0.5)
        telemetry.job_dispatched(job, batch_size=3,
                                 queue_wait_s=job.started_at
                                 - job.submitted_at)
        job.finished_at = clock.tick(2.0)
        telemetry.job_finished(job, warm=False)
        histograms = telemetry.snapshot()["histograms"]
        assert histograms["queue_wait_s"]["count"] == 1
        assert histograms["batch_size"]["count"] == 1
        assert histograms["execute_s"]["count"] == 1
        assert histograms["e2e_s"]["count"] == 1
        assert histograms["e2e_s"]["p50"] >= 2.0

    def test_event_ring_streams_incrementally(self):
        telemetry = TelemetryRecorder()
        job = make_job(tenant="alice")
        telemetry.job_admitted(job)
        telemetry.job_dispatched(job, batch_size=1, queue_wait_s=0.0)
        telemetry.job_finished(job, warm=True)
        events = telemetry.events_since(0)
        assert [e["event"] for e in events] \
            == ["admitted", "started", "done"]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert telemetry.events_since(2) == events[2:]
        assert telemetry.last_seq() == 3
        assert all(e["tenant"] == "alice" for e in events)

    def test_pool_totals_sum_across_worker_lifetimes(self):
        telemetry = TelemetryRecorder()
        telemetry.worker_pool(1, {"requests": 4, "warm_hits": 2,
                                  "engines_built": 2,
                                  "engines_evicted": 0,
                                  "engines_discarded": 0})
        # Worker 1 crashes; its replacement gets a new id, and the
        # last report of the dead worker keeps counting.
        telemetry.worker_pool(2, {"requests": 6, "warm_hits": 4,
                                  "engines_built": 2,
                                  "engines_evicted": 1,
                                  "engines_discarded": 0})
        pool = telemetry.snapshot()["pool"]
        assert pool["totals"]["requests"] == 10
        assert pool["totals"]["warm_hits"] == 6
        assert pool["warm_hit_rate"] == pytest.approx(0.6)
        assert set(pool["workers"]) == {"1", "2"}

    def test_snapshot_shape(self):
        snapshot = TelemetryRecorder().snapshot()
        assert snapshot["schema"] == "repro-service-telemetry-v1"
        assert set(snapshot["histograms"]) \
            == {"queue_wait_s", "execute_s", "e2e_s", "batch_size"}
        assert snapshot["warm"]["rate"] == 0.0
        assert snapshot["last_seq"] == 0

    def test_flush_writes_jsonl_and_registry(self, tmp_path):
        telemetry = TelemetryRecorder()
        job = make_job(tenant="alice")
        telemetry.job_admitted(job)
        log = tmp_path / "stats.jsonl"
        registry = RunRegistry(tmp_path / "registry")
        telemetry.flush(path=log, registry=registry, reason="shutdown")
        [record] = [json.loads(line) for line in open(log)]
        assert record["kind"] == "service-telemetry"
        assert record["reason"] == "shutdown"
        assert record["snapshot"]["tenants"]["alice"]["submitted"] == 1
        entries = registry.query(kind="service-telemetry")
        assert len(entries) == 1

    def test_maybe_flush_is_interval_gated(self, tmp_path):
        telemetry = TelemetryRecorder()
        log = tmp_path / "stats.jsonl"
        # Inside the first interval: nothing flushes yet (the gate
        # starts at recorder creation, not at the first call).
        telemetry.maybe_flush(path=log, interval_s=3600.0)
        assert not log.exists()
        telemetry.maybe_flush(path=log, interval_s=0.0)
        telemetry.maybe_flush(path=log, interval_s=3600.0)
        assert len(open(log).read().splitlines()) == 1

    def test_maybe_flush_without_sinks_never_writes(self, tmp_path):
        telemetry = TelemetryRecorder()
        telemetry.maybe_flush(interval_s=0.0)   # nowhere to write
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def scripted(tmp_path_factory):
    """One daemon run through a scripted warm/cold sequence.

    One worker with room for two warm engines; submissions are
    sequential (each waited), so the pool sees exactly:
    ``ccs`` build, ``ccs`` hit, ``cde`` build, ``ccs`` hit —
    4 requests, 2 warm hits, 2 engines built, none evicted.
    """
    root = tmp_path_factory.mktemp("telemetry")
    sock = str(root / "repro.sock")
    shard_dir = str(root / "shards")
    stats_log = str(root / "stats.jsonl")
    config = ServiceConfig(
        workers=1, max_engines=2, trace_dir=shard_dir,
        telemetry_log=stats_log,
    )
    daemon = EngineDaemon(config).start()
    server = ServiceServer(daemon, sock).start_in_thread()
    try:
        with ServiceClient(sock) as client:
            sequence = [("ccs", "alice", shard_dir), ("ccs", "alice", None),
                        ("cde", "bob", None), ("ccs", "alice", None)]
            jobs = []
            for game, tenant, trace_dir in sequence:
                [submitted] = client.submit(
                    {"game": game, "num_frames": FRAMES,
                     "tenant": tenant},
                    trace_dir=trace_dir,
                )
                jobs.append(client.wait(submitted["job_id"],
                                        timeout=120))
        yield {
            "sock": sock,
            "shard_dir": shard_dir,
            "stats_log": stats_log,
            "jobs": jobs,
        }
    finally:
        server.stop()
        daemon.close()


class TestDaemonEndToEnd:
    def test_scripted_sequence_ran_warm_as_planned(self, scripted):
        assert [job["state"] for job in scripted["jobs"]] == ["done"] * 4
        assert [job["warm"] for job in scripted["jobs"]] \
            == [False, True, False, True]

    def test_stats_verb_reports_exact_pool_counters(self, scripted):
        with ServiceClient(scripted["sock"]) as client:
            snapshot = client.stats()
        telemetry = snapshot["telemetry"]
        assert telemetry["pool"]["totals"] == {
            "requests": 4, "warm_hits": 2, "engines_built": 2,
            "engines_evicted": 0, "engines_discarded": 0,
        }
        assert telemetry["pool"]["warm_hit_rate"] == pytest.approx(0.5)
        assert telemetry["warm"] == {
            "warm_jobs": 2, "cold_jobs": 2, "rate": 0.5,
        }

    def test_stats_verb_latency_and_tenants_reconcile(self, scripted):
        with ServiceClient(scripted["sock"]) as client:
            snapshot = client.stats()
        telemetry = snapshot["telemetry"]
        for name in ("queue_wait_s", "execute_s", "e2e_s",
                     "batch_size"):
            assert telemetry["histograms"][name]["count"] == 4
        assert telemetry["histograms"]["e2e_s"]["p50"] > 0.0
        assert telemetry["tenants"] == {
            "alice": {"submitted": 3, "completed": 3, "refused": 0,
                      "retried": 0, "crashed": 0},
            "bob": {"submitted": 1, "completed": 1, "refused": 0,
                    "retried": 0, "crashed": 0},
        }
        assert snapshot["queue_depth"] == 0
        assert snapshot["workers"] == 1

    def test_watch_replays_the_job_lifecycle(self, scripted):
        with ServiceClient(scripted["sock"]) as client:
            events = []
            for message in client.watch(interval=0.05, since=0):
                if message["kind"] == "stats":
                    break
                events.append(message["event"])
        kinds = [e["event"] for e in events]
        assert kinds.count("admitted") == 4
        assert kinds.count("started") == 4
        assert kinds.count("done") == 4
        sequences = [e["seq"] for e in events]
        assert sequences == sorted(sequences)
        first = [e for e in events
                 if e.get("job_id") == scripted["jobs"][0]["job_id"]]
        assert [e["event"] for e in first] \
            == ["admitted", "started", "done"]

    def test_repro_stats_renders_the_snapshot(self, scripted):
        from repro.__main__ import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["stats", "--socket", scripted["sock"]])
        out = buffer.getvalue()
        assert code == 0
        assert "2/4 warm hits (50.0%)" in out
        assert "end-to-end (s)" in out
        for column in TENANT_COUNTERS:
            assert column in out
        assert "alice" in out and "bob" in out

    def test_repro_stats_json_is_the_raw_snapshot(self, scripted):
        from repro.__main__ import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["stats", "--socket", scripted["sock"],
                         "--json"])
        assert code == 0
        snapshot = json.loads(buffer.getvalue())
        assert snapshot["telemetry"]["pool"]["totals"]["requests"] == 4

    def test_distributed_trace_merges_and_validates(self, scripted):
        # Shards flush per event, so the merged trace is complete as
        # soon as every job is terminal — no daemon shutdown needed.
        payload = merge_shards(scripted["shard_dir"])
        counts = validate_trace(payload)
        assert counts["pids"] >= 2       # client+daemon share this pid
        metadata = payload["metadata"]
        assert metadata["repaired_spans"] == 0
        [trace_id] = metadata["trace_ids"]
        traced = {
            event["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "B"
            and (event.get("args") or {}).get("trace_id") == trace_id
        }
        # One trace id spans the client submit, the daemon lifecycle
        # and the worker's engine + frame spans.
        assert {"submit", "job", "engine", "frame"} <= traced

    def test_traced_spans_parent_under_the_client_submit(self, scripted):
        payload = merge_shards(scripted["shard_dir"])
        [trace_id] = payload["metadata"]["trace_ids"]
        begins = [
            event for event in payload["traceEvents"]
            if event["ph"] == "B"
            and (event.get("args") or {}).get("trace_id") == trace_id
        ]
        [submit] = [e for e in begins if e["name"] == "submit"]
        root = submit["args"]["span_id"]
        [job] = [e for e in begins if e["name"] == "job"]
        [engine] = [e for e in begins if e["name"] == "engine"]
        assert job["args"]["parent_span_id"] == root
        assert engine["args"]["parent_span_id"] == root


class TestShutdownFlush:
    def test_close_flushes_a_final_snapshot_once(self, tmp_path):
        log = tmp_path / "stats.jsonl"
        daemon = EngineDaemon(ServiceConfig(
            workers=1, telemetry_log=str(log),
        )).start()
        daemon.close()
        daemon.close()                   # idempotent: no second flush
        records = [json.loads(line) for line in open(log)]
        assert [r["reason"] for r in records] == ["shutdown"]
        assert records[0]["snapshot"]["schema"] \
            == "repro-service-telemetry-v1"

    def test_shutdown_verb_reaches_the_final_flush(self, tmp_path):
        sock = str(tmp_path / "down.sock")
        log = tmp_path / "stats.jsonl"
        daemon = EngineDaemon(ServiceConfig(
            workers=1, telemetry_log=str(log),
        )).start()
        server = ServiceServer(daemon, sock).start_in_thread()
        try:
            with ServiceClient(sock) as client:
                assert client.shutdown()["stopping"] is True
            server._thread.join(timeout=10)
        finally:
            server.stop()
            # The daemon owner (`repro serve`) closes on server exit —
            # the same path SIGTERM and Ctrl-C take.
            daemon.close()
        records = [json.loads(line) for line in open(log)]
        assert records[-1]["reason"] == "shutdown"
