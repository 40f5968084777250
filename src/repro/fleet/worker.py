"""The fleet worker: one supervised run fed by the points it claims.

One worker is one process (``repro fleet work``) sharing nothing with
its peers but the registry directory.  It is one
:func:`~repro.harness.supervisor.supervise_cells` run on one persistent
worker process, so host memos outlive a point:

1. The claim source scans the spec's points in grid order and
   ``try_claim``s the first one with no done record and no live claim,
   yielding it as a :class:`~repro.harness.parallel.Cell` whose config
   *is* the point's config.  The supervisor takes a cell only when its
   worker is free, so a claimed point starts at once.  When nothing is
   claimable the source reaps expired claims (how a crashed peer's
   points are requeued), else sleeps until the nearest peer claim's
   promised expiry or :data:`RECHECK_S`, whichever is sooner.  It stops
   once every point has a done record.
2. The supervisor's ``progress_hook`` renews the lease every third of
   it as frames complete.  A lease the worker can no longer renew
   (expired and stolen while it was wedged) ends the run, and the
   attempt in flight with it: the point belongs to someone else now.
   The worker then starts a fresh run for the points that remain.
3. On the cell's terminal outcome the hook calls ``mark_done``
   (exactly-once ``O_EXCL``); only the winner records the run manifest
   into the registry — stamped with the fleet id, point id and worker —
   then amends the done record with the ``run_id`` (or the registry
   error) and releases its claim.

The worker publishes nothing else: every fleet view is derived from the
claim, done and reaped records (:mod:`repro.fleet.coordinator`).

Crash injection (``crash_after_claims=N``) hard-exits the process with
:data:`~repro.harness.supervisor.CRASH_EXITCODE` right after winning
its N-th claim, leaving exactly the orphaned-claim crime scene the
reaping path must clean up; the idle supervised child reads EOF on its
pipe and exits.  Tests and the CI fleet job drive requeue through it
deterministically.
"""

from __future__ import annotations

import dataclasses
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
from .claims import ClaimStore
from .points import FleetPoint, fleet_root, load_spec

__all__ = ["FleetWorker"]

#: Longest the claim source sleeps while nothing is claimable: a peer
#: may finish or release a point well before its lease expires.
RECHECK_S = 0.05


class _LeaseLost(FleetError):
    """A renewal found the point's claim reaped by a peer."""


@dataclasses.dataclass
class _Lease:
    """One claimed point while the supervisor runs it."""

    point: FleetPoint
    dispatched: float        # time.monotonic() when the cell was taken
    renewed: float           # lease clock at the claim or last renewal


class FleetWorker:
    """Claim-execute-publish loop for one fleet member.

    ``worker_id`` must be unique within the fleet (the launcher uses
    ``w0..wN-1``; a multi-host deployment would include the hostname).
    ``record_registry`` defaults to a :class:`RunRegistry` at the fleet's
    own registry root; pass ``None`` to skip manifest recording (tests).
    """

    def __init__(self, registry_root, fleet_id: str, worker_id: str,
                 max_wait_s: float = None, crash_after_claims: int = None,
                 policy=None, trace: bool = False,
                 record_registry="default", clock=time.time) -> None:
        self.registry_root = os.fspath(registry_root)
        self.worker_id = worker_id
        self.spec = load_spec(registry_root, fleet_id)
        self.points = self.spec.points()
        self.claims = ClaimStore(registry_root, fleet_id, clock=clock)
        self.max_wait_s = max_wait_s
        self.crash_after_claims = crash_after_claims
        self.policy = policy or SupervisorPolicy(timeout_s=120.0,
                                                 max_retries=1)
        self.registry = (RunRegistry(self.registry_root)
                         if record_registry == "default"
                         else record_registry)
        self._clock = clock
        self._claims_won = 0
        self._leases: dict = {}      # Cell -> _Lease
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
        failures observed).  Raises :class:`FleetError` if ``max_wait_s``
        elapses while nothing is claimable — a wedged fleet must not
        hang CI forever.
        """
        deadline = (None if self.max_wait_s is None
                    else time.monotonic() + self.max_wait_s)
        while True:
            try:
                supervise_cells(
                    self._claimed(deadline), policy=self.policy,
                    processes=1, progress_hook=self._on_event,
                )
                break
            except _LeaseLost:
                pass        # a fresh run for the points that remain
        return {
            "worker": self.worker_id,
            "completed": list(self.completed),
            "failed": sorted(
                pid for pid, record in self.claims.done_records().items()
                if record.get("state") != "done"
            ),
        }

    # The claim source --------------------------------------------------
    def _claimed(self, deadline):
        """Yield each point this worker wins, as a cell; return once
        every point has a done record."""
        while True:
            done = self.claims.done_ids()
            if len(done) >= len(self.points):
                return
            point = self._claim_next(done)
            if point is not None:
                cell = Cell(self.spec.alias, self.spec.technique,
                            self.spec.num_frames, config=point.config,
                            tag=point.tag)
                self._leases[cell] = _Lease(point, time.monotonic(),
                                            self._clock())
                if self.shard is not None:
                    self.shard.begin(
                        "fleet_point", trace_id=self.spec.fleet_id,
                        point_id=point.point_id, worker=self.worker_id,
                        tag=point.tag,
                    )
                yield cell
                continue
            if self.claims.reap_expired():
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise FleetError(
                    f"worker {self.worker_id}: fleet "
                    f"{self.spec.fleet_id!r} incomplete after "
                    f"{self.max_wait_s}s ({len(done)}/{len(self.points)} "
                    "points done)"
                )
            now = self._clock()
            time.sleep(min([RECHECK_S] + [
                max(0.0, record["expires_at"] - now)
                for record in self.claims.claims().values()
            ]))

    def _claim_next(self, done: set):
        """Try to claim the first available point; ``None`` when every
        remaining point is done or validly claimed by a peer."""
        for point in self.points:
            if point.point_id in done:
                continue
            if self.claims.try_claim(point.point_id, self.worker_id,
                                     self.spec.lease_s) is None:
                continue
            self._claims_won += 1
            if (self.crash_after_claims is not None
                    and self._claims_won >= self.crash_after_claims):
                # Simulated SIGKILL: no cleanup, no release — the claim
                # stays behind for lease expiry + reaping to requeue.
                os._exit(CRASH_EXITCODE)
            return point
        return None

    # The supervisor's hook ----------------------------------------------
    def _on_event(self, cell, kind, payload) -> None:
        """Renew the lease as frames complete; publish the outcome."""
        lease = self._leases[cell]
        if kind == "done":
            del self._leases[cell]
            self._end_span()
            self._publish(lease, payload)
            return
        now = self._clock()
        if now - lease.renewed < self.spec.lease_s / 3.0:
            return
        try:
            self.claims.renew(lease.point.point_id, self.worker_id,
                              self.spec.lease_s)
        except FleetError as exc:
            # Stolen while we were slow: walk away (the thief owns the
            # point now; our claim file is already gone).
            del self._leases[cell]
            self._end_span()
            raise _LeaseLost(*exc.args) from None
        lease.renewed = now

    def _end_span(self) -> None:
        if self.shard is not None:
            self.shard.end("fleet_point")

    def _publish(self, lease: _Lease, outcome) -> None:
        point = lease.point
        execute_s = time.monotonic() - lease.dispatched
        if not outcome.succeeded:
            # Deterministic failure after supervisor retries: record it
            # terminally so the fleet finishes instead of ping-ponging
            # the poison point between workers forever.
            self.claims.mark_done(
                point.point_id, self.worker_id, state="failed",
                error=outcome.failure, execute_s=execute_s,
            )
        else:
            result = outcome.result
            summary = {
                "total_cycles": result.total_cycles,
                "final_frame_crc": result.final_frame_crc,
                "tiles_skipped": result.tiles_skipped,
                "num_frames": result.num_frames,
            }
            # Not winning is fine: a peer finished the same point after
            # stealing our expired lease — results are deterministic and
            # the registry content-addresses manifests, so nothing is lost.
            if self.claims.mark_done(point.point_id, self.worker_id,
                                     summary=summary, execute_s=execute_s):
                fields = self._record_manifest(point, result)
                if fields:
                    self.claims.amend_done(point.point_id, self.worker_id,
                                           **fields)
                self.completed.append(point.point_id)
        self.claims.release(point.point_id, self.worker_id)

    def _record_manifest(self, point, result) -> dict:
        """Best-effort registry append, stamped with fleet identity; the
        done-record fields that report it."""
        if self.registry is None:
            return {}
        try:
            return {"run_id": self.registry.record_run(
                result, kind="sweep-point",
                extra={
                    "parameters": point.assignment,
                    "fleet_id": self.spec.fleet_id,
                    "point_id": point.point_id,
                    "fleet_worker": self.worker_id,
                },
            )}
        except (OSError, ReproError) as exc:
            return {"registry_error": str(exc)}
