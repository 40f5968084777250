"""The fleet claim/lease protocol over plain atomic filesystem ops.

Workers share nothing but a directory, so every coordination primitive
reduces to a POSIX guarantee:

* **Claim** — ``O_CREAT|O_EXCL`` on ``claims/<point_id>.json``.  The
  kernel picks exactly one winner among racing creators.
* **Renew** — the owner rewrites its claim via tmp + ``os.replace``.
  Readers only ever see a complete record.
* **Steal** — an *expired* claim is removed with a single-winner
  ``os.rename`` into ``reaped/`` (concurrent renames of the same
  source: one succeeds, the rest get ``FileNotFoundError``), after
  which the point is claimable again.  The reaped record is kept for
  forensics, suffixed with the reap time so repeated reaps of the same
  point never collide.
* **Done** — ``O_CREAT|O_EXCL`` on ``done/<point_id>.json``.  Even if
  a lease expired mid-execute and two workers finished the same point,
  exactly one done record exists; the loser discards its result (which
  is harmless — execution is deterministic and the registry
  content-addresses manifests, so duplicated work dedupes anyway).

The lease state machine: ``unclaimed -> claimed -> (renewed)* ->
done`` on the happy path; ``claimed -> expired -> reaped ->
unclaimed`` when a worker dies or wedges.  Expiry compares the
*owner's* promised ``expires_at`` against the *observer's* clock — see
the clock-skew row of the failure matrix in DESIGN §13.

These records are also the fleet's only status: the coordinator's
views are read from ``claims/``, ``done/`` and ``reaped/``, and no
worker publishes anything else.
"""

from __future__ import annotations

import json
import os
import time

from ..errors import FleetError
from ..obs.store import claim_record, done_record
from .points import fleet_root

__all__ = ["ClaimStore"]


def _read_json(path):
    """Best-effort JSON read returning ``None`` for missing files and
    mid-replace torn reads (the caller retries on its next pass)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


class ClaimStore:
    """One worker's (or coordinator's) view of a fleet's claim state.

    ``clock`` is wall-clock (:func:`time.time`); it only ever feeds
    lease arithmetic, never ordering decisions — ordering comes from
    the filesystem primitives.
    """

    def __init__(self, registry_root, fleet_id: str,
                 clock=time.time) -> None:
        self.fleet_id = fleet_id
        self.root = fleet_root(registry_root, fleet_id)
        self.claims_dir = os.path.join(self.root, "claims")
        self.done_dir = os.path.join(self.root, "done")
        self.reaped_dir = os.path.join(self.root, "reaped")
        self._clock = clock
        for path in (self.claims_dir, self.done_dir, self.reaped_dir):
            os.makedirs(path, exist_ok=True)

    # Paths --------------------------------------------------------------
    def claim_path(self, point_id: str) -> str:
        return os.path.join(self.claims_dir, f"{point_id}.json")

    def done_path(self, point_id: str) -> str:
        return os.path.join(self.done_dir, f"{point_id}.json")

    # Claim / renew / release -------------------------------------------
    def try_claim(self, point_id: str, worker: str,
                  lease_s: float) -> dict:
        """Atomically claim a point; ``None`` if someone else holds it
        (or it is already done).  The single-winner guarantee is the
        kernel's ``O_EXCL``."""
        if self.is_done(point_id):
            return None
        record = claim_record(point_id, self.fleet_id, worker, lease_s,
                              clock=self._clock)
        payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            fd = os.open(self.claim_path(point_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except FileExistsError:
            return None
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return record

    def renew(self, point_id: str, worker: str, lease_s: float) -> dict:
        """Extend a lease the caller owns; raises :class:`FleetError`
        if the claim vanished or changed hands (the lease expired and
        was stolen mid-execute — the worker must stop, its point now
        belongs to someone else)."""
        path = self.claim_path(point_id)
        current = _read_json(path)
        if current is None or current.get("worker") != worker:
            holder = current.get("worker") if current else None
            raise FleetError(
                f"lease lost for point {point_id}: held by "
                f"{holder!r}, not {worker!r} — it expired and was reaped"
            )
        record = claim_record(
            point_id, self.fleet_id, worker, lease_s,
            renewals=int(current.get("renewals", 0)) + 1,
            clock=self._clock,
        )
        record["claimed_at"] = current.get("claimed_at",
                                           record["claimed_at"])
        tmp = f"{path}.{worker}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return record

    def release(self, point_id: str, worker: str) -> bool:
        """Drop a claim the caller owns (after its done record exists).
        Returns whether anything was removed."""
        path = self.claim_path(point_id)
        current = _read_json(path)
        if current is None or current.get("worker") != worker:
            return False
        try:
            os.remove(path)
        except FileNotFoundError:
            return False
        return True

    # Done ---------------------------------------------------------------
    def mark_done(self, point_id: str, worker: str, summary: dict = None,
                  run_id: str = None, state: str = "done",
                  error: str = None, execute_s: float = None) -> bool:
        """Write the exactly-once terminal record.  Returns ``True`` for
        the winner; ``False`` means another worker already finished this
        point (duplicate execution after a lease steal — discard)."""
        record = done_record(
            point_id, self.fleet_id, worker, summary=summary,
            run_id=run_id, state=state, error=error,
            execute_s=execute_s, clock=self._clock,
        )
        payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            fd = os.open(self.done_path(point_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except FileExistsError:
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return True

    def amend_done(self, point_id: str, worker: str, **fields) -> bool:
        """Owner-only update of an existing done record (the manifest
        ``run_id`` is recorded *after* winning :meth:`mark_done`, so the
        record is first written without it)."""
        path = self.done_path(point_id)
        current = _read_json(path)
        if current is None or current.get("worker") != worker:
            return False
        current.update(fields)
        tmp = f"{path}.{worker}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(current, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return True

    def is_done(self, point_id: str) -> bool:
        return os.path.exists(self.done_path(point_id))

    def done_ids(self) -> set:
        return {
            name[:-len(".json")] for name in os.listdir(self.done_dir)
            if name.endswith(".json")
        }

    def done_records(self) -> dict:
        """point_id -> done record, skipping torn/partial files."""
        records = {}
        for pid in self.done_ids():
            record = _read_json(self.done_path(pid))
            if record is not None:
                records[pid] = record
        return records

    # Observation / reaping ---------------------------------------------
    def claims(self) -> dict:
        """point_id -> live claim record (snapshot; racy by nature)."""
        records = {}
        for name in os.listdir(self.claims_dir):
            if not name.endswith(".json") or name.endswith(".tmp"):
                continue
            record = _read_json(os.path.join(self.claims_dir, name))
            if record is not None:
                records[name[:-len(".json")]] = record
        return records

    def expired(self, now: float = None) -> list:
        """Claim records whose lease has lapsed by *our* clock."""
        now = self._clock() if now is None else now
        return [
            record for record in self.claims().values()
            if record.get("expires_at", 0) <= now
        ]

    def reaped(self) -> list:
        """Every reaped claim record, oldest reap first, each with the
        ``reaped_at`` time (the reaper's clock) its file name carries."""
        records = []
        for name in os.listdir(self.reaped_dir):
            record = _read_json(os.path.join(self.reaped_dir, name))
            if record is not None:
                stem = name[:-len(".json")]
                record["reaped_at"] = float(stem.split(".", 2)[2])
                records.append(record)
        return sorted(records, key=lambda record: record["reaped_at"])

    def reap(self, point_id: str) -> bool:
        """Steal one expired claim: single-winner rename into
        ``reaped/``.  Returns whether *we* won the steal (the point is
        then unclaimed; losers saw ``FileNotFoundError``)."""
        src = self.claim_path(point_id)
        # Suffix with our pid + a counter-free timestamp: repeated reaps
        # of the same point across the fleet's life must not collide.
        dst = os.path.join(
            self.reaped_dir,
            f"{point_id}.{os.getpid()}.{self._clock():.6f}.json",
        )
        try:
            os.rename(src, dst)
        except FileNotFoundError:
            return False
        return True

    def reap_expired(self, now: float = None) -> list:
        """Reap every expired claim; returns the point ids we stole."""
        stolen = []
        for record in self.expired(now):
            pid = record["point_id"]
            if self.is_done(pid):
                # Terminal already — the claim is leftover garbage (a
                # worker died between mark_done and release); clear it.
                self.reap(pid)
                continue
            if self.reap(pid):
                stolen.append(pid)
        return stolen

