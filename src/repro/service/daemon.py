"""The engine-pool daemon: admission, batching, persistent workers.

:class:`EngineDaemon` is the long-lived heart of the render service.
It accepts validated :class:`~repro.service.jobs.JobSpec` jobs, applies
**admission control** before anything is queued (a bounded queue and a
per-tenant pending cap — overload answers with a typed refusal,
:class:`~repro.errors.BackpressureError` /
:class:`~repro.errors.TenantError`, instead of growing without bound),
**batches compatible jobs** — same :meth:`GpuConfig.digest`, so they
can share a worker's warm engines and memo state — onto one worker
dispatch, and records every completed run into the submitting tenant's
registry namespace (:meth:`~repro.obs.store.RunRegistry.for_tenant`).

Workers: jobs run on :class:`~repro.harness.workers.Worker` processes,
the persistent-worker substrate
:func:`~repro.harness.supervisor.supervise_cells` runs its attempts on.
Each worker owns its own :class:`~repro.service.pool.WarmEnginePool` and
serves job after job; a batch puts several jobs in flight on one worker
at once.  A crashed job therefore kills one worker — never the daemon —
and shows as EOF on the worker's pipe.  The daemon respawns the worker
(cold pool, warmth is the only loss) and requeues its in-flight jobs
until ``max_retries`` is exhausted.  ``REPRO_FAULT_SPEC``
(``alias/technique:frame:kind[:times]``, ``*`` wildcards) is parsed
once, when the daemon is built, so a malformed spec raises
:class:`~repro.errors.SupervisionError` before any worker forks; each
job gets its frame-boundary hook from
:meth:`~repro.harness.supervisor.FaultSpec.frame_hook`, so the recovery
path is testable.

Telemetry: the daemon owns at most one
:class:`~repro.obs.live.LiveAggregator` — the single writer of its
``live.json`` heartbeat — and routes every worker's per-frame telemetry
(tagged tuples on the same pipe as results) through it.  Readers
(``repro status``) use :func:`~repro.obs.live.read_heartbeat`, never a
second aggregator.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import multiprocessing.connection
import os
import threading
import time
import typing

from ..errors import (
    BackpressureError,
    ReproError,
    ServiceError,
    TenantError,
)
from ..harness.supervisor import FAULT_ENV_VAR, FaultSpec
from ..harness.workers import EOF, Worker
from ..obs.distributed import ShardTracer, TraceShard
from ..obs.live import ChannelLiveSink, LiveAggregator
from .jobs import JobSpec, expand_payload
from .pool import WarmEnginePool, execute_job
from .telemetry import TelemetryRecorder

__all__ = [
    "EngineDaemon",
    "Job",
    "ServiceConfig",
    "ServiceStats",
]


def _job_tid(job_id: str) -> int:
    """A job's trace track: its number (``j0042`` -> 42)."""
    try:
        return int(job_id.lstrip("j"))
    except ValueError:
        return 0


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of one daemon."""

    #: Persistent worker processes (each with its own warm pool).
    workers: int = 1
    #: Bounded queue: jobs *waiting* beyond this are refused
    #: (:class:`BackpressureError`), never buffered without bound.
    max_queue: int = 16
    #: Per-tenant cap on queued+running jobs (:class:`TenantError`).
    tenant_max_pending: int = 8
    #: Most compatible jobs dispatched to a worker as one batch.
    batch_max: int = 4
    #: Warm engines each worker's pool keeps resident.
    max_engines: int = 4
    #: Re-dispatches after a job's worker crashed (total attempts =
    #: retries + 1); the supervisor's retry policy, service-shaped.
    max_retries: int = 1
    #: Wall-clock limit per job, counted from when its worker can start
    #: on it (its dispatch to an idle worker, or the reply to the job
    #: before it in the batch); a worker that exceeds it is terminated
    #: like a crash (``None`` = unlimited).
    job_timeout_s: float = None
    #: Heartbeat file the daemon-owned aggregator writes (``None`` =
    #: no live telemetry).
    live_path: str = None
    #: No-telemetry threshold before a running job is flagged stalled.
    stall_after_s: float = 10.0
    #: Directory for distributed trace shards (daemon + worker
    #: processes each write ``shard-<role>-<pid>.jsonl`` here;
    #: ``None`` = no request tracing).
    trace_dir: str = None
    #: JSONL file periodic telemetry snapshots append to (``None`` =
    #: snapshots only reachable over the socket / registry).
    telemetry_log: str = None
    #: Seconds between periodic snapshot flushes.
    telemetry_interval_s: float = 30.0


@dataclasses.dataclass
class ServiceStats:
    """Daemon-lifetime counters (all deterministic given a schedule)."""

    submitted: int = 0
    rejected_backpressure: int = 0
    rejected_tenant: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    batches_dispatched: int = 0
    jobs_batched: int = 0       # jobs that shared a multi-job dispatch
    warm_jobs: int = 0
    cold_jobs: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class Job:
    """One admitted job and its lifecycle state."""

    job_id: str
    spec: JobSpec
    digest: str
    state: str = "queued"           # queued | running | done | failed
    attempts: int = 0
    worker: int = None
    warm: bool = None
    error: str = None
    summary: dict = None
    result: object = None           # RunResult (in-process callers)
    run_id: str = None              # tenant-registry id, when recorded
    submitted_at: float = dataclasses.field(default_factory=time.time)
    started_at: float = None
    finished_at: float = None

    def public(self) -> dict:
        """The JSON-able projection socket clients see."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "game": self.spec.alias,
            "technique": self.spec.technique,
            "num_frames": self.spec.num_frames,
            "state": self.state,
            "attempts": self.attempts,
            "worker": self.worker,
            "warm": self.warm,
            "error": self.error,
            "summary": self.summary,
            "run_id": self.run_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def _summarize(result) -> dict:
    """Headline numbers of a finished run, JSON-able."""
    return {
        "total_cycles": result.total_cycles,
        "total_energy_nj": result.total_energy_nj,
        "total_traffic_bytes": result.total_traffic_bytes,
        "fragments_shaded": result.fragments_shaded,
        "tiles_skipped": result.tiles_skipped,
        "skipped_fraction": result.skipped_fraction(),
        "final_frame_crc": result.final_frame_crc,
    }


class _JobRunner:
    """One worker's request handler: runs each job on the worker's own
    warm pool and, with ``trace_dir``, traces it into the worker's shard.

    Built in the daemon and forked with its worker.  ``execute_job`` is
    looked up in this module when a job runs, so a wrapper installed
    before the fork (the benchmark's traced service pass) reaches the
    workers."""

    def __init__(self, worker_id: int, max_engines: int, trace_dir,
                 fault: FaultSpec) -> None:
        self.worker_id = worker_id
        self.trace_dir = trace_dir
        self.fault = fault
        self.pool = WarmEnginePool(max_engines=max_engines)
        self.shard = None

    def __call__(self, conn, job_id: str, spec_dict: dict,
                 attempt: int) -> tuple:
        """Run one job; returns ``(RunResult, info)``.  Per-frame
        telemetry goes out on ``conn`` through a
        :class:`ChannelLiveSink`.  With ``trace_dir`` the job gets an
        ``engine`` span (frame/stage spans nested inside, via the
        :class:`ShardTracer` handed to :func:`execute_job`) on the job's
        own track, stamped with the request's trace context."""
        spec = JobSpec.from_dict(spec_dict)
        hook = (self.fault.frame_hook(spec.cell(), attempt)
                if self.fault else None)
        live = ChannelLiveSink(
            conn, f"{spec.tenant}:{spec.label}", attempt=attempt,
        )
        tracer = None
        if self.trace_dir:
            if self.shard is None:       # opened in the worker: its pid
                self.shard = TraceShard(self.trace_dir,
                                        f"worker{self.worker_id}")
            context = spec.trace_context()
            tracer = ShardTracer(
                self.shard, tid=_job_tid(job_id),
                trace_id=context.trace_id if context else None,
                parent_span_id=context.span_id if context else None,
                label=f"engine {job_id}",
            )
            tracer.begin("engine", job_id=job_id, attempt=attempt,
                         cell=spec.label, worker=self.worker_id)
        try:
            result, info = execute_job(
                spec, pool=self.pool, live=live, frame_hook=hook,
                tracer=tracer,
            )
        except Exception:
            if tracer is not None:
                tracer.close_open_spans()
            raise
        if tracer is not None:
            tracer.end("engine")
        return result, dict(info, pool=self.pool.stats.as_dict())


# ----------------------------------------------------------------------
# Daemon (parent process)
# ----------------------------------------------------------------------

class EngineDaemon:
    """Warm render service over persistent fault-isolated workers.

    Thread-safe: :meth:`submit` / :meth:`wait` / :meth:`status` may be
    called from any thread (the socket server calls them from its event
    loop and executor).  One internal scheduler thread owns dispatch,
    worker pipes and registry writes; it sleeps until a worker message,
    an admission or its nearest deadline.

    ``registry`` is the *root* :class:`~repro.obs.store.RunRegistry`;
    each finished job is recorded under its tenant's namespace.  Pass
    ``None`` to disable recording.
    """

    def __init__(self, config: ServiceConfig = None, registry=None,
                 live: LiveAggregator = None) -> None:
        self.config = config or ServiceConfig()
        fault_spec = os.environ.get(FAULT_ENV_VAR)
        self.fault = FaultSpec.parse(fault_spec) if fault_spec else None
        self.registry = registry
        if live is None and self.config.live_path:
            live = LiveAggregator(
                path=self.config.live_path, stream=None,
                stall_after_s=self.config.stall_after_s,
                owner=f"repro-serve:{os.getpid()}",
            )
        self.live = live
        self.telemetry = TelemetryRecorder()
        self.trace = (TraceShard(self.config.trace_dir, "daemon")
                      if self.config.trace_dir else None)
        self.stats = ServiceStats()
        self.jobs: dict = {}
        self._queue: collections.deque = collections.deque()
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._workers: dict = {}
        self._worker_ids = itertools.count(1)
        self._scheduler: threading.Thread = None
        # The scheduler's wake pipe (read end, write end), open from
        # the scheduler thread's start until close().
        self._wake_r: int = None
        self._wake_w: int = None
        self._running = False
        self.started_at = None

    # Lifecycle ----------------------------------------------------------
    def start(self) -> "EngineDaemon":
        with self._lock:
            if self._running:
                return self
            self._running = True
            self.started_at = time.time()
            for _ in range(max(1, self.config.workers)):
                self._spawn_worker()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-service-scheduler",
            daemon=True,
        )
        self._scheduler.start()
        return self

    def close(self) -> None:
        """Stop the scheduler and tear the workers down.  Queued jobs
        that never ran stay ``queued`` — the daemon refuses new work
        once closed, it does not pretend pending work finished.  Busy
        workers are terminated at once: with the scheduler stopped,
        nothing would read what they finish."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._wake_locked()
            self._done.notify_all()
        if self._scheduler is not None:
            self._scheduler.join(timeout=10.0)
        if self._wake_r is not None:
            os.close(self._wake_r)
            os.close(self._wake_w)
            self._wake_r = self._wake_w = None
        for worker in self._workers.values():
            worker.retire(terminate=not worker.idle)
        self._workers.clear()
        # The final sampling window must survive a short-lived daemon:
        # flush one last snapshot before anything else is torn down
        # (the `shutdown` verb and SIGTERM both route through here).
        self.telemetry.flush(
            path=self.config.telemetry_log,
            registry=self.registry,
            reason="shutdown",
        )
        if self.trace is not None:
            self.trace.close()
        if self.live is not None:
            self.live.close()

    def __enter__(self) -> "EngineDaemon":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # Admission ----------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admit one job or raise a typed refusal.

        Validation first (malformed specs and bad tenant ids never
        reach the queue), then the bounded queue, then the tenant cap.
        A refused job leaves no state behind; retrying later is safe.
        """
        return self._admit([spec])[0]

    def submit_payload(self, payload: typing.Mapping) -> list:
        """Expand and admit one wire payload (render/sweep/experiment).

        Expansion is atomic — if any expanded spec fails validation or
        admission, previously admitted siblings are withdrawn so a
        refused payload leaves nothing queued.  The scheduler sees the
        whole expansion at once, so its compatible jobs share a batch."""
        return self._admit(expand_payload(payload))

    def _admit(self, specs) -> list:
        """Admit every spec or none, under one hold of the lock, then
        wake the scheduler once."""
        specs = [spec.validated() for spec in specs]
        digests = [spec.digest() for spec in specs]
        admitted = []
        with self._lock:
            try:
                for spec, digest in zip(specs, digests):
                    admitted.append(self._admit_locked(spec, digest))
            except ServiceError:
                for job in admitted:
                    self._queue.remove(job.job_id)
                    del self.jobs[job.job_id]
                    self.stats.submitted -= 1
                    self.telemetry.job_withdrawn(job)
                    if self.trace is not None:
                        tid = _job_tid(job.job_id)
                        self.trace.instant("withdrawn", tid=tid)
                        self.trace.close_track(tid)
                raise
            self._wake_locked()
        return admitted

    def _admit_locked(self, spec: JobSpec, digest: str) -> Job:
        if not self._running:
            raise ServiceError("service daemon is not running")
        if len(self._queue) >= self.config.max_queue:
            self.stats.rejected_backpressure += 1
            self.telemetry.job_refused(spec.tenant, "backpressure")
            raise BackpressureError(
                f"job queue is full ({self.config.max_queue} "
                "queued); the service applies backpressure instead "
                "of buffering without bound — resubmit later"
            )
        pending = sum(
            1 for job in self.jobs.values()
            if job.spec.tenant == spec.tenant
            and job.state in ("queued", "running")
        )
        if pending >= self.config.tenant_max_pending:
            self.stats.rejected_tenant += 1
            self.telemetry.job_refused(spec.tenant, "tenant")
            raise TenantError(
                f"tenant {spec.tenant!r} already has {pending} "
                f"pending job(s) (cap "
                f"{self.config.tenant_max_pending}); wait for them "
                "to finish"
            )
        job = Job(f"j{next(self._ids):04d}", spec, digest)
        self.jobs[job.job_id] = job
        self._queue.append(job.job_id)
        self.stats.submitted += 1
        self.telemetry.job_admitted(job)
        if self.trace is not None:
            tid = _job_tid(job.job_id)
            context = spec.trace_context()
            args = {"job_id": job.job_id, "tenant": spec.tenant,
                    "cell": spec.label}
            if context is not None:
                args["trace_id"] = context.trace_id
                args["parent_span_id"] = context.span_id
            self.trace.name_thread(tid, f"job {job.job_id}")
            self.trace.begin("job", tid=tid, **args)
            self.trace.begin("queue", tid=tid)
        return job

    def _wake_locked(self) -> None:
        """Wake the scheduler from its wait (it dispatches on its next
        pass anyway if it has not started yet).  A full pipe already
        guarantees a wake, so that write is dropped."""
        if self._wake_w is None:
            return
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass

    # Introspection ------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            return job

    def wait(self, job_id: str, timeout: float = None) -> Job:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._done:
            while True:
                job = self.job(job_id)
                if job.state in ("done", "failed"):
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServiceError(
                            f"timed out waiting for job {job_id} "
                            f"(state {job.state!r})"
                        )
                self._done.wait(
                    remaining if remaining is not None else 1.0
                )

    def status(self) -> dict:
        """A JSON-able snapshot (``repro status`` renders this)."""
        with self._lock:
            recent = list(self.jobs.values())[-50:]
            return {
                "running": self._running,
                "pid": os.getpid(),
                "started_at": self.started_at,
                "queue_depth": len(self._queue),
                "workers": {
                    worker_id: {
                        "pid": worker.process.pid,
                        "inflight": list(worker.inflight),
                    }
                    for worker_id, worker in self._workers.items()
                },
                "stats": self.stats.as_dict(),
                "jobs": [job.public() for job in recent],
                "live_path": self.live.path if self.live else None,
            }

    def stats_snapshot(self) -> dict:
        """The ``stats`` verb's payload: daemon state + telemetry.

        Unlike :meth:`status` this carries the quantitative view —
        latency histograms with percentiles, warm-hit rates (daemon-
        and pool-level), per-tenant counters — and omits the per-job
        listing.
        """
        with self._lock:
            snapshot = {
                "running": self._running,
                "pid": os.getpid(),
                "started_at": self.started_at,
                "uptime_s": (time.time() - self.started_at
                             if self.started_at else 0.0),
                "queue_depth": len(self._queue),
                "workers": len(self._workers),
                "stats": self.stats.as_dict(),
            }
        snapshot["telemetry"] = self.telemetry.snapshot()
        return snapshot

    def telemetry_seq(self) -> int:
        """The newest lifecycle-event sequence number (``watch``)."""
        return self.telemetry.last_seq()

    def telemetry_events(self, since: int) -> list:
        """Lifecycle events newer than ``since`` (``watch`` streaming)."""
        return self.telemetry.events_since(since)

    # Scheduler ----------------------------------------------------------
    def _spawn_worker(self) -> Worker:
        worker_id = next(self._worker_ids)
        worker = Worker(
            _JobRunner(worker_id, self.config.max_engines,
                       self.config.trace_dir, self.fault),
            timeout_s=self.config.job_timeout_s,
        )
        self._workers[worker_id] = worker
        return worker

    def _scheduler_loop(self) -> None:
        """Dispatch, then block until something needs the scheduler.

        Wake sources are the worker pipes (results, telemetry, EOF of a
        crashed worker) and the wake pipe (admission, close); the wait
        times out at the nearest deadline (:meth:`_next_deadline_locked`)
        and blocks indefinitely when there is none."""
        with self._lock:
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_w, False)
        while True:
            with self._lock:
                if not self._running:
                    return
                self._dispatch_locked()
                conns = {
                    worker.conn: worker_id
                    for worker_id, worker in self._workers.items()
                }
                timeout = self._next_deadline_locked()
            ready = multiprocessing.connection.wait(
                [self._wake_r, *conns], timeout=timeout,
            )
            for conn in ready:
                if conn in conns:
                    self._drain_worker(conns[conn])
                else:
                    # Clear pending wakes; any left over only end the
                    # next wait at once.
                    os.read(self._wake_r, 4096)
            self._check_timeouts()
            if self.live is not None:
                self.live.tick()
            self.telemetry.maybe_flush(
                path=self.config.telemetry_log,
                registry=self.registry,
                interval_s=self.config.telemetry_interval_s,
            )

    def _next_deadline_locked(self) -> float:
        """Seconds until the nearest timed duty (``None`` = none): an
        in-flight job's timeout, the heartbeat's next tick or stall
        check, the next periodic telemetry flush."""
        now = time.monotonic()
        delays = [
            worker.deadline - now for worker in self._workers.values()
            if worker.deadline is not None
        ]
        tick = (self.live.seconds_until_tick() if self.live is not None
                else None)
        if tick is not None:
            delays.append(tick)
        flush = self.telemetry.seconds_until_flush(
            path=self.config.telemetry_log,
            registry=self.registry,
            interval_s=self.config.telemetry_interval_s,
        )
        if flush is not None:
            delays.append(flush)
        return max(0.0, min(delays)) if delays else None

    def _dispatch_locked(self) -> None:
        """Send batches of digest-compatible queued jobs to idle
        workers.  Compatible jobs share a worker so the second one hits
        the engine (or at least the memo state) the first one warmed."""
        idle = [(worker_id, worker)
                for worker_id, worker in self._workers.items() if worker.idle]
        while idle and self._queue:
            head_id = self._queue[0]
            head = self.jobs[head_id]
            batch = [head_id]
            for job_id in list(self._queue)[1:]:
                if len(batch) >= self.config.batch_max:
                    break
                if self.jobs[job_id].digest == head.digest:
                    batch.append(job_id)
            worker_id, worker = idle.pop(0)
            self.stats.batches_dispatched += 1
            if len(batch) > 1:
                self.stats.jobs_batched += len(batch)
            for job_id in batch:
                self._queue.remove(job_id)
                job = self.jobs[job_id]
                job.state = "running"
                job.attempts += 1
                job.worker = worker_id
                job.started_at = time.time()
                self.telemetry.job_dispatched(
                    job, len(batch), job.started_at - job.submitted_at,
                )
                if self.trace is not None:
                    tid = _job_tid(job_id)
                    self.trace.end("queue", tid=tid)
                    self.trace.begin(
                        "execute", tid=tid, worker=worker_id,
                        batch=len(batch), attempt=job.attempts,
                    )
                worker.send(job_id, job.spec.to_dict(), job.attempts)

    def _drain_worker(self, worker_id: int) -> None:
        with self._lock:
            worker = self._workers[worker_id]
            replies = worker.drain(
                self.live.update if self.live is not None else None
            )
        for reply in replies:
            if reply is EOF:
                self._worker_died(worker_id, "worker crashed (pipe EOF)")
            elif reply[0] == "error":
                with self._lock:
                    self._job_failed_locked(self.jobs[reply[1]], reply[2])
            else:
                self._job_done(worker_id, self.jobs[reply[1]], *reply[2:])

    def _job_done(self, worker_id: int, job: Job, result, info) -> None:
        # Record *before* the job turns terminal: a waiter woken by the
        # state flip must already see the tenant-registry run_id.
        job.warm = bool(info.get("warm"))
        job.summary = _summarize(result)
        job.result = result
        self._record_job(job, result)
        with self._lock:
            job.state = "done"
            job.finished_at = time.time()
            self.stats.completed += 1
            if job.warm:
                self.stats.warm_jobs += 1
            else:
                self.stats.cold_jobs += 1
            self.telemetry.worker_pool(worker_id, info["pool"])
            self.telemetry.job_finished(job, job.warm)
            if self.trace is not None:
                tid = _job_tid(job.job_id)
                self.trace.end("execute", tid=tid)
                self.trace.end("job", tid=tid, warm=job.warm)
            self._done.notify_all()

    def _job_failed_locked(self, job: Job, error: str) -> None:
        """Retry (requeue at the front — it already waited) or fail."""
        if self.trace is not None:
            self.trace.end("execute", tid=_job_tid(job.job_id))
        if job.attempts <= self.config.max_retries:
            self.stats.retried += 1
            job.state = "queued"
            job.error = None
            self._queue.appendleft(job.job_id)
            self.telemetry.job_retried(job)
            if self.trace is not None:
                tid = _job_tid(job.job_id)
                self.trace.instant("retry", tid=tid, error=error,
                                   attempt=job.attempts)
                self.trace.begin("queue", tid=tid)
            return
        job.state = "failed"
        job.error = error
        job.finished_at = time.time()
        self.stats.failed += 1
        self.telemetry.job_failed(job)
        if self.trace is not None:
            tid = _job_tid(job.job_id)
            self.trace.instant("failed", tid=tid, error=error)
            self.trace.end("job", tid=tid)
        self._done.notify_all()

    def _worker_died(self, worker_id: int, reason: str,
                     terminate: bool = False) -> None:
        """Requeue (or fail) a lost worker's in-flight jobs, respawn it
        while the daemon runs, and reap it (``terminate``: still alive)."""
        with self._lock:
            worker = self._workers.pop(worker_id)
            self.stats.worker_crashes += 1
            for job_id in worker.inflight:
                self._job_failed_locked(self.jobs[job_id], reason)
            if self._running:
                self._spawn_worker()
                self.stats.worker_restarts += 1
        worker.retire(terminate=terminate)

    def _check_timeouts(self) -> None:
        with self._lock:
            overdue = [worker_id
                       for worker_id, worker in self._workers.items()
                       if worker.overdue()]
        for worker_id in overdue:
            # Terminated like a crash: its jobs are requeued.
            self._worker_died(
                worker_id,
                f"job exceeded timeout "
                f"({self.config.job_timeout_s:.1f}s); worker terminated",
                terminate=True,
            )

    # Registry -----------------------------------------------------------
    def _record_job(self, job: Job, result) -> None:
        """Record into the tenant's namespace; never fails the job."""
        if self.registry is None:
            return
        try:
            tenant_registry = self.registry.for_tenant(job.spec.tenant)
            job.run_id = tenant_registry.record_run(
                result, kind="service-job",
                extra={
                    "job_id": job.job_id,
                    "tenant": job.spec.tenant,
                    "warm": job.warm,
                    "attempts": job.attempts,
                },
            )
        except (OSError, ReproError) as exc:
            self.registry.note_write_error(exc)
