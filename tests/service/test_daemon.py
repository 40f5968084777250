"""EngineDaemon behaviour: admission control, batching, fault recovery,
tenant registries and the daemon-owned heartbeat.

Admission tests run against a daemon with no scheduler or workers (the
queue can only fill, never drain — fully deterministic).  Scheduling
tests pre-load the queue *before* the scheduler thread exists, so the
first dispatch always sees the complete queue and batching decisions
are reproducible.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import (
    BackpressureError,
    ServiceError,
    SupervisionError,
    TenantError,
)
from repro.harness.supervisor import FAULT_ENV_VAR
from repro.obs.live import read_heartbeat
from repro.obs.store import RunRegistry
from repro.service.daemon import EngineDaemon, ServiceConfig
from repro.service.jobs import JobSpec

FRAMES = 2


def spec(alias="ccs", technique="re", tenant="default", **overrides):
    return JobSpec(
        alias, technique, FRAMES, tenant=tenant,
        overrides=tuple(sorted(overrides.items())),
    )


def admission_only_daemon(**config):
    """A daemon whose queue fills but never drains: admission logic
    runs for real, no worker processes are ever spawned."""
    daemon = EngineDaemon(ServiceConfig(**config))
    daemon._running = True
    return daemon


def start_with_preloaded_queue(daemon, specs):
    """Admit ``specs`` before the scheduler exists, then start it.

    The first ``_dispatch_locked`` therefore sees the whole queue at
    once — batch composition is deterministic, not a race against how
    fast the test thread can submit."""
    jobs = []
    with daemon._lock:
        daemon._running = True
        daemon.started_at = time.time()
        for one in specs:
            jobs.append(daemon.submit(one))
        for _ in range(max(1, daemon.config.workers)):
            daemon._spawn_worker()
    daemon._scheduler = threading.Thread(
        target=daemon._scheduler_loop, name="test-scheduler", daemon=True,
    )
    daemon._scheduler.start()
    return jobs


class TestAdmission:
    def test_flood_hits_backpressure(self):
        daemon = admission_only_daemon(max_queue=3, tenant_max_pending=99)
        for _ in range(3):
            daemon.submit(spec())
        with pytest.raises(BackpressureError):
            daemon.submit(spec())
        assert daemon.stats.submitted == 3
        assert daemon.stats.rejected_backpressure == 1
        # A refusal leaves no state: the queue did not grow.
        assert len(daemon._queue) == 3

    def test_tenant_cap_is_per_tenant(self):
        daemon = admission_only_daemon(max_queue=99, tenant_max_pending=2)
        daemon.submit(spec(tenant="alice"))
        daemon.submit(spec(tenant="alice"))
        with pytest.raises(TenantError):
            daemon.submit(spec(tenant="alice"))
        # Another tenant is unaffected by alice's cap.
        daemon.submit(spec(tenant="bob"))
        assert daemon.stats.rejected_tenant == 1
        assert daemon.stats.submitted == 3

    def test_payload_admission_is_atomic(self):
        daemon = admission_only_daemon(max_queue=2)
        with pytest.raises(BackpressureError):
            daemon.submit_payload({
                "kind": "sweep", "game": "ccs", "num_frames": FRAMES,
                "parameters": {"tile_size": [8, 16, 32]},
            })
        # The two jobs admitted before the refusal were withdrawn.
        assert len(daemon._queue) == 0
        assert daemon.stats.submitted == 0

    def test_invalid_spec_never_reaches_queue(self):
        daemon = admission_only_daemon()
        with pytest.raises(ServiceError):
            daemon.submit(JobSpec("nope", "re", FRAMES))
        with pytest.raises(TenantError):
            daemon.submit(JobSpec("ccs", "re", FRAMES, tenant="a/b"))
        assert len(daemon._queue) == 0

    def test_submit_refused_when_not_running(self):
        daemon = EngineDaemon(ServiceConfig())
        with pytest.raises(ServiceError):
            daemon.submit(spec())


class TestScheduling:
    def test_compatible_jobs_batch_and_share_warmth(self):
        daemon = EngineDaemon(ServiceConfig(
            workers=1, batch_max=4, max_engines=2,
        ))
        jobs = start_with_preloaded_queue(daemon, [
            spec(), spec(), spec(),          # one digest
            spec(tile_size=8),               # a different digest
        ])
        try:
            for job in jobs:
                done = daemon.wait(job.job_id, timeout=120)
                assert done.state == "done", done.error
            # 3 compatible jobs went out as one batch, the odd config
            # as its own dispatch.
            assert daemon.stats.batches_dispatched == 2
            assert daemon.stats.jobs_batched == 3
            # Within the batch the first build warms the next two; the
            # different digest is necessarily a cold engine.
            assert [j.warm for j in jobs] == [False, True, True, False]
            assert daemon.stats.warm_jobs == 2
            assert daemon.stats.cold_jobs == 2
            assert daemon.stats.completed == 4
        finally:
            daemon.close()

    def test_results_carry_summary(self):
        daemon = EngineDaemon(ServiceConfig(workers=1))
        [job] = start_with_preloaded_queue(daemon, [spec()])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.summary["total_cycles"] > 0
            assert done.summary["final_frame_crc"] == \
                done.result.final_frame_crc
            public = done.public()
            assert public["state"] == "done"
            assert public["game"] == "ccs"
        finally:
            daemon.close()


class TestFaultRecovery:
    def test_malformed_fault_spec_refused_before_any_fork(self, monkeypatch):
        # The spec is parsed in the daemon: parsed in each worker, a bad
        # one would kill every worker at startup and its respawn too.
        monkeypatch.setenv(FAULT_ENV_VAR, "bogus")
        before = set(multiprocessing.active_children())
        with pytest.raises(SupervisionError, match="bad fault spec"):
            EngineDaemon(ServiceConfig())
        assert set(multiprocessing.active_children()) == before

    def test_worker_crash_retries_and_daemon_survives(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "ccs/re:1:crash:1")
        daemon = EngineDaemon(ServiceConfig(workers=1, max_retries=1))
        [job] = start_with_preloaded_queue(daemon, [spec()])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "done", done.error
            assert done.attempts == 2
            assert daemon.stats.worker_crashes == 1
            assert daemon.stats.worker_restarts == 1
            assert daemon.stats.retried == 1
            # The daemon (not just the job) survived: fresh work runs.
            after = daemon.submit(spec(alias="cde"))
            assert daemon.wait(after.job_id, timeout=120).state == "done"
        finally:
            daemon.close()

    def test_wildcard_fault_spec_matches_any_cell(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "*/*:1:crash:1")
        daemon = EngineDaemon(ServiceConfig(workers=1, max_retries=1))
        [job] = start_with_preloaded_queue(
            daemon, [spec(alias="mst", technique="baseline")],
        )
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "done", done.error
            assert done.attempts == 2
            assert daemon.stats.worker_crashes == 1
        finally:
            daemon.close()

    def test_retries_exhausted_fails_job_not_daemon(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "ccs/re:1:crash:9")
        daemon = EngineDaemon(ServiceConfig(workers=1, max_retries=1))
        [job] = start_with_preloaded_queue(daemon, [spec()])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "failed"
            assert "crash" in done.error
            assert daemon.stats.failed == 1
            # Unfaulted work still completes on the respawned worker.
            other = daemon.submit(spec(alias="cde"))
            assert daemon.wait(other.job_id, timeout=120).state == "done"
        finally:
            daemon.close()

    def test_injected_error_fails_without_killing_worker(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "ccs/re:1:error:9")
        daemon = EngineDaemon(ServiceConfig(workers=1, max_retries=0))
        [job] = start_with_preloaded_queue(daemon, [spec()])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "failed"
            assert "InjectedFault" in done.error
            # An in-process error is reported over the pipe — no crash,
            # no respawn.
            assert daemon.stats.worker_crashes == 0
        finally:
            daemon.close()


class TestTimeouts:
    """The hang path: a job past ``job_timeout_s`` gets its worker
    terminated and is retried.  The limit leaves a cold engine on the
    respawned worker ample time for the retry."""

    def test_hung_worker_is_terminated_and_job_retried(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "ccs/re:1:hang:1")
        daemon = EngineDaemon(ServiceConfig(
            workers=1, job_timeout_s=2.0, max_retries=1,
        ))
        [job] = start_with_preloaded_queue(daemon, [spec()])
        [hung] = daemon._workers.values()
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "done", done.error
            assert done.attempts == 2
            assert daemon.stats.worker_crashes == 1
            assert daemon.stats.worker_restarts == 1
            hung.process.join(timeout=10)
            assert hung.process.exitcode == -signal.SIGTERM
            events = daemon.telemetry_events(0)
        finally:
            daemon.close()
        # With no other timed duty, the batch's deadline alone woke the
        # scheduler for the kill.
        started = next(e for e in events if e["event"] == "started")
        retried = next(e for e in events if e["event"] == "retried")
        assert retried["ts"] - started["ts"] < 2.0 + 1.0

    def test_stall_flagged_before_the_kill(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULT_ENV_VAR, "ccs/re:1:hang:1")
        live_path = tmp_path / "live.json"
        daemon = EngineDaemon(ServiceConfig(
            workers=1, job_timeout_s=2.0, max_retries=1,
            live_path=str(live_path), stall_after_s=0.3,
        ))
        [job] = start_with_preloaded_queue(daemon, [spec()])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "done", done.error
            retried = next(e for e in daemon.telemetry_events(0)
                           if e["event"] == "retried")
        finally:
            daemon.close()
        # The scheduler ticks the heartbeat after checking timeouts, so
        # a stall noticed only when the kill woke it would come later.
        flagged = [e["ts"] for e in read_heartbeat(live_path)["events"]
                   if e["event"] == "stall_flagged"]
        assert flagged and flagged[0] < retried["ts"]


class TestEventDrivenScheduler:
    def test_payload_dispatches_as_one_batch(self):
        """Unlike the preloaded tests, the scheduler is already waiting
        when the payload arrives: admission must still be atomic with
        respect to dispatch, or the wake splits the batch."""
        daemon = EngineDaemon(ServiceConfig(workers=1)).start()
        try:
            time.sleep(0.2)         # the scheduler is idle in its wait
            jobs = daemon.submit_payload({
                "kind": "experiment", "id": "fig17a", "games": ["ccs"],
                "num_frames": FRAMES,
            })
            for job in jobs:
                done = daemon.wait(job.job_id, timeout=120)
                assert done.state == "done", done.error
            assert daemon.stats.batches_dispatched == 1
            assert daemon.stats.jobs_batched == 3
        finally:
            daemon.close()

    def test_idle_scheduler_blocks(self):
        # No heartbeat, no telemetry sink, no job timeout: no deadline.
        daemon = EngineDaemon(ServiceConfig(workers=1))
        passes = []
        dispatch = daemon._dispatch_locked

        def counting_dispatch():
            passes.append(time.monotonic())
            dispatch()

        daemon._dispatch_locked = counting_dispatch
        daemon.start()
        try:
            time.sleep(0.5)
            idle_passes = len(passes)
        finally:
            daemon.close()
        assert idle_passes <= 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_start_and_close_leak_no_fds(self):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        EngineDaemon(ServiceConfig(workers=1)).start().close()
        before = open_fds()
        for _ in range(20):
            EngineDaemon(ServiceConfig(workers=1)).start().close()
        assert open_fds() == before


class TestTenancyAndTelemetry:
    def test_runs_recorded_under_tenant_namespaces(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        daemon = EngineDaemon(ServiceConfig(workers=1), registry=registry)
        jobs = start_with_preloaded_queue(daemon, [
            spec(tenant="alice"), spec(tenant="bob"),
        ])
        try:
            for job in jobs:
                done = daemon.wait(job.job_id, timeout=120)
                assert done.state == "done", done.error
                assert done.run_id is not None
        finally:
            daemon.close()
        assert registry.tenants() == ["alice", "bob"]
        alice, bob = jobs
        manifest = registry.for_tenant("alice").manifest(alice.run_id)
        assert manifest["kind"] == "service-job"
        assert manifest["tenant"] == "alice"
        assert manifest["job_id"] == alice.job_id
        assert registry.for_tenant("bob").manifest(bob.run_id)

    def test_registry_write_failure_does_not_fail_job(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        daemon = EngineDaemon(ServiceConfig(workers=1), registry=registry)

        def broken_for_tenant(_tenant):
            raise OSError("disk on fire")

        daemon.registry = type(registry)(registry.root)
        daemon.registry.for_tenant = broken_for_tenant
        [job] = start_with_preloaded_queue(daemon, [spec(tenant="alice")])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "done", done.error
            assert done.run_id is None
        finally:
            daemon.close()
        assert len(daemon.registry.write_errors()) == 1

    def test_heartbeat_owned_by_daemon(self, tmp_path):
        live_path = tmp_path / "live.json"
        daemon = EngineDaemon(ServiceConfig(
            workers=1, live_path=str(live_path),
        ))
        assert daemon.live.owner == f"repro-serve:{os.getpid()}"
        [job] = start_with_preloaded_queue(daemon, [spec()])
        try:
            done = daemon.wait(job.job_id, timeout=120)
            assert done.state == "done", done.error
            daemon.live.tick(force=True)
            snapshot = read_heartbeat(live_path)
            assert snapshot["owner"].startswith("repro-serve:")
        finally:
            daemon.close()
