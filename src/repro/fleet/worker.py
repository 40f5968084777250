"""The fleet worker: claim points, execute them supervised, mark done.

One worker is one process (``repro fleet work``) sharing nothing with
its peers but the registry directory.  Its loop:

1. Scan the spec's points in grid order; ``try_claim`` the first one
   with no done record and no live claim (reaping expired claims as it
   goes, which is how a crashed peer's work gets requeued).
2. Execute the claimed point through the fault-tolerant supervisor —
   one :class:`~repro.harness.parallel.Cell` whose config *is* the
   point's config — with a ``progress_hook`` that renews the lease and
   appends a heartbeat as frames complete.  A lease the worker can no
   longer renew (expired + stolen while it was wedged) aborts the
   attempt: the point belongs to someone else now.
3. ``mark_done`` (exactly-once ``O_EXCL``); only the winner records the
   run manifest into the registry — stamped with the fleet id, point id
   and worker — then amends the done record with the ``run_id`` and
   releases its claim.
4. When no point is claimable, publish an idle heartbeat, reap expired
   claims, sleep, rescan; exit once every point has a done record.

Execution wall time per point feeds a per-worker
:class:`~repro.service.telemetry.LogHistogram` on the shared fleet
scheme, published inside heartbeats so the coordinator (and
``repro trend``) can merge shards across workers.

Crash injection (``crash_after_claims=N``) hard-exits the process with
:data:`~repro.harness.supervisor.CRASH_EXITCODE` right after winning
its N-th claim — before any child process spawns — leaving exactly the
orphaned-claim crime scene the reaping path must clean up.  Tests and
the CI fleet job drive requeue through it deterministically.
"""

from __future__ import annotations

import os
import time

from ..errors import FleetError, ReproError
from ..harness.parallel import Cell
from ..harness.supervisor import (
    CRASH_EXITCODE,
    SupervisorPolicy,
    supervise_cells,
)
from ..obs.store import RunRegistry
from ..service.telemetry import fleet_execute_histogram
from .claims import ClaimStore, HeartbeatLog
from .points import fleet_root, load_spec

__all__ = ["FleetWorker"]


class FleetWorker:
    """Claim-execute-publish loop for one fleet member.

    ``worker_id`` must be unique within the fleet (the launcher uses
    ``w0..wN-1``; a multi-host deployment would include the hostname).
    ``record_registry`` defaults to a :class:`RunRegistry` at the fleet's
    own registry root; pass ``None`` to skip manifest recording (tests).
    """

    def __init__(self, registry_root, fleet_id: str, worker_id: str,
                 poll_s: float = 0.2, max_wait_s: float = None,
                 crash_after_claims: int = None, policy=None,
                 trace: bool = False, record_registry="default",
                 clock=time.time) -> None:
        self.registry_root = os.fspath(registry_root)
        self.worker_id = worker_id
        self.spec = load_spec(registry_root, fleet_id)
        self.points = self.spec.points()
        self.claims = ClaimStore(registry_root, fleet_id, clock=clock)
        self.heartbeats = HeartbeatLog(registry_root, fleet_id, worker_id,
                                       clock=clock)
        self.poll_s = poll_s
        self.max_wait_s = max_wait_s
        self.crash_after_claims = crash_after_claims
        self.policy = policy or SupervisorPolicy(timeout_s=120.0,
                                                 max_retries=1)
        self.histogram = fleet_execute_histogram()
        self.registry = (RunRegistry(self.registry_root)
                         if record_registry == "default"
                         else record_registry)
        self._clock = clock
        self._claims_won = 0
        self.completed: list = []
        self.shard = None
        if trace:
            from ..obs.distributed import TraceShard

            self.shard = TraceShard(
                os.path.join(fleet_root(registry_root, fleet_id), "trace"),
                role=f"fleet-{worker_id}",
            )

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Work until every point in the fleet has a done record.

        Returns a summary dict (worker id, points completed here,
        failures observed, merged-ready histogram).  Raises
        :class:`FleetError` if ``max_wait_s`` elapses first — a wedged
        fleet must not hang CI forever.
        """
        started = time.monotonic()
        self.heartbeats.beat(state="start", points_total=len(self.points))
        while True:
            done = self.claims.done_ids()
            if len(done) >= len(self.points):
                break
            point = self._claim_next(done)
            if point is not None:
                self._execute(point)
                continue
            # Nothing claimable: reap expired leases so crashed peers'
            # points requeue, tell the world we are idle (not stale),
            # and rescan after a beat.
            reaped = self.claims.reap_expired()
            if reaped:
                self.heartbeats.beat(state="reaped", reaped=reaped)
                continue
            self.heartbeats.beat(
                force=False, state="idle",
                points_done=len(done), points_total=len(self.points),
            )
            if (self.max_wait_s is not None
                    and time.monotonic() - started > self.max_wait_s):
                raise FleetError(
                    f"worker {self.worker_id}: fleet "
                    f"{self.spec.fleet_id!r} incomplete after "
                    f"{self.max_wait_s}s ({len(done)}/{len(self.points)} "
                    "points done)"
                )
            time.sleep(self.poll_s)
        failed = sorted(
            pid for pid, record in self.claims.done_records().items()
            if record.get("state") != "done"
        )
        self.heartbeats.beat(
            state="exit", points_done=len(self.claims.done_ids()),
            points_total=len(self.points), completed=len(self.completed),
            failed=failed, histogram=self.histogram.to_dict(),
        )
        return {
            "worker": self.worker_id,
            "completed": list(self.completed),
            "failed": failed,
            "histogram": self.histogram.to_dict(),
        }

    # ------------------------------------------------------------------
    def _claim_next(self, done: set):
        """Try to claim the first available point; ``None`` when every
        remaining point is done or validly claimed by a peer."""
        for point in self.points:
            if point.point_id in done:
                continue
            record = self.claims.try_claim(
                point.point_id, self.worker_id, self.spec.lease_s,
            )
            if record is None:
                continue
            self._claims_won += 1
            self.heartbeats.beat(state="claimed", point_id=point.point_id,
                                 claims=self._claims_won)
            if (self.crash_after_claims is not None
                    and self._claims_won >= self.crash_after_claims):
                # Simulated SIGKILL: no cleanup, no release — the claim
                # stays behind for lease expiry + reaping to requeue.
                self.heartbeats.beat(state="crashing",
                                     point_id=point.point_id)
                os._exit(CRASH_EXITCODE)
            return point
        return None

    def _execute(self, point) -> None:
        cell = Cell(self.spec.alias, self.spec.technique,
                    self.spec.num_frames, config=point.config,
                    tag=point.tag)
        lease_holder = {"last_renew": self._clock(), "lost": False}

        def progress_hook(kind, payload) -> None:
            # Renew well inside the lease window (every third), and
            # piggyback a rate-limited executing heartbeat.
            now = self._clock()
            if now - lease_holder["last_renew"] >= self.spec.lease_s / 3.0:
                self.claims.renew(point.point_id, self.worker_id,
                                  self.spec.lease_s)
                lease_holder["last_renew"] = now
            frames = payload if kind == "progress" else None
            self.heartbeats.beat(force=False, state="executing",
                                 point_id=point.point_id, frames=frames)

        span = None
        if self.shard is not None:
            span = self.shard.begin(
                "fleet_point", trace_id=self.spec.fleet_id,
                point_id=point.point_id, worker=self.worker_id,
                tag=point.tag,
            )
        t0 = time.monotonic()
        try:
            supervised = supervise_cells(
                [cell], config=point.config, policy=self.policy,
                progress_hook=progress_hook,
            )
        except FleetError:
            # Lease lost mid-execute: the point was stolen; walk away
            # (the thief owns it now; our claim file is already gone).
            self.heartbeats.beat(state="lease_lost",
                                 point_id=point.point_id)
            if self.shard is not None and span is not None:
                self.shard.end("fleet_point")
            return
        execute_s = time.monotonic() - t0
        if self.shard is not None and span is not None:
            self.shard.end("fleet_point")

        outcome = supervised.outcomes[cell]
        if not outcome.succeeded:
            # Deterministic failure after supervisor retries: record it
            # terminally so the fleet finishes instead of ping-ponging
            # the poison point between workers forever.
            won = self.claims.mark_done(
                point.point_id, self.worker_id, state="failed",
                error=outcome.failure, execute_s=execute_s,
            )
            self.claims.release(point.point_id, self.worker_id)
            self.heartbeats.beat(state="point_failed",
                                 point_id=point.point_id, won=won)
            return

        result = outcome.result
        summary = {
            "total_cycles": result.total_cycles,
            "final_frame_crc": result.final_frame_crc,
            "tiles_skipped": result.tiles_skipped,
            "num_frames": result.num_frames,
        }
        won = self.claims.mark_done(
            point.point_id, self.worker_id, summary=summary,
            execute_s=execute_s,
        )
        if won:
            run_id = self._record_manifest(point, result)
            if run_id:
                self.claims.amend_done(point.point_id, self.worker_id,
                                       run_id=run_id)
            self.completed.append(point.point_id)
            self.histogram.observe(execute_s)
        # Not winning is fine: a peer finished the same point after
        # stealing our expired lease — results are deterministic and
        # the registry content-addresses manifests, so nothing is lost.
        self.claims.release(point.point_id, self.worker_id)
        self.heartbeats.beat(
            state="point_done", point_id=point.point_id, won=won,
            execute_s=execute_s, completed=len(self.completed),
            histogram=self.histogram.to_dict(),
        )

    def _record_manifest(self, point, result):
        """Best-effort registry append, stamped with fleet identity."""
        if self.registry is None:
            return None
        try:
            return self.registry.record_run(
                result, kind="sweep-point",
                extra={
                    "parameters": point.assignment,
                    "fleet_id": self.spec.fleet_id,
                    "point_id": point.point_id,
                    "fleet_worker": self.worker_id,
                },
            )
        except (OSError, ReproError) as exc:
            self.heartbeats.beat(state="registry_error", error=str(exc),
                                 point_id=point.point_id)
            return None
