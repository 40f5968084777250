"""The fleet coordinator: views read from records, reaping, launcher.

The coordinator owns no work and keeps no state — points complete
whether or not one is running.  Every view is read, when asked for,
from the records the claim protocol already writes
(:mod:`repro.fleet.claims`):

* ``claims/`` — each live claim's holder, ``claimed_at``, ``renewals``
  and promised ``expires_at``;
* ``done/`` — each terminal record's worker, state, ``execute_s`` and
  ``completed_at``;
* ``reaped/`` — each reaped claim, which names its holder.

A worker is **stalled** when it holds a claim whose promised
``expires_at`` has passed by the observer's clock — the signal
:meth:`~repro.fleet.claims.ClaimStore.reap_expired` acts on — so a
worker whose clock runs ahead is never flagged early, and one that has
released its claims never is.  The execute-wall histogram is rebuilt
from the done records' ``execute_s`` on the shared fleet scheme.

:func:`launch_fleet` is the local N-process mode CI uses: it writes the
spec, spawns ``repro fleet work`` subprocesses and waits for them (they
exit once every point has a done record), then journals the done and
reaped records it finds and reports per-worker exit codes.  Workers
that crash are deliberately *not* respawned — the acceptance test is
that the fleet completes anyway through lease expiry, which the
surviving workers' own reaping drives.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from ..errors import FleetError
from ..harness.supervisor import RunJournal
from ..service.telemetry import fleet_execute_histogram
from .claims import ClaimStore
from .points import fleet_root, load_spec

__all__ = ["FleetCoordinator", "launch_fleet"]

#: Seconds between redraws of ``fleet watch`` (its ``--interval``
#: default) and of ``fleet launch --verbose``.
WATCH_INTERVAL_S = 1.0


class FleetCoordinator:
    """Read-side view of one fleet, derived from its claim, done and
    reaped records each time it is asked."""

    def __init__(self, registry_root, fleet_id: str,
                 clock=time.time) -> None:
        self.spec = load_spec(registry_root, fleet_id)
        self.points = self.spec.points()
        self.claims = ClaimStore(registry_root, fleet_id, clock=clock)
        self._clock = clock

    def reap_orphans(self) -> list:
        """Steal expired claims so a dead worker's points requeue even
        when no worker is idle-scanning (all busy on long points)."""
        return self.claims.reap_expired()

    # State --------------------------------------------------------------
    def point_map(self, done: dict = None, live: dict = None) -> list:
        """Per-point status in grid order:
        ``(point_id, tag, status, holder)`` with status one of
        ``done`` / ``failed`` / ``claimed`` / ``unclaimed``."""
        done = self.claims.done_records() if done is None else done
        live = self.claims.claims() if live is None else live
        rows = []
        for point in self.points:
            pid = point.point_id
            if pid in done:
                state = ("done" if done[pid].get("state") == "done"
                         else "failed")
                rows.append((pid, point.tag, state,
                             done[pid].get("worker")))
            elif pid in live:
                rows.append((pid, point.tag, "claimed",
                             live[pid].get("worker")))
            else:
                rows.append((pid, point.tag, "unclaimed", None))
        return rows

    def merged_histogram(self, done: dict = None):
        """Execute-wall histogram of every point done so far (``None``
        before the first), on the shared fleet scheme."""
        done = self.claims.done_records() if done is None else done
        histogram = fleet_execute_histogram()
        for record in done.values():
            if (record.get("state") == "done"
                    and record.get("execute_s") is not None):
                histogram.observe(record["execute_s"])
        return histogram.to_dict() if histogram.count else None

    @property
    def complete(self) -> bool:
        return len(self.claims.done_ids()) >= len(self.points)

    def failed_points(self, done: dict = None) -> list:
        done = self.claims.done_records() if done is None else done
        return sorted(
            pid for pid, record in done.items()
            if record.get("state") != "done"
        )

    def events(self, done: dict = None, reaped: list = None) -> list:
        """The done and reaped records as events, oldest first."""
        done = self.claims.done_records() if done is None else done
        reaped = self.claims.reaped() if reaped is None else reaped
        events = [
            {"event": "claim_reaped", "ts": record["reaped_at"],
             "point_id": record["point_id"], "worker": record["worker"]}
            for record in reaped
        ]
        events += [
            {"event": ("point_done" if record["state"] == "done"
                       else "point_failed"),
             "ts": record["completed_at"], "point_id": pid,
             "worker": record["worker"], "execute_s": record["execute_s"]}
            for pid, record in done.items()
        ]
        return sorted(events, key=lambda event: event["ts"])

    def _workers(self, done: dict, live: dict, reaped: list) -> dict:
        """Per-worker state, counts, last-record age and rate.  A record's
        time is its writer's clock: a claim's last renewal (``expires_at
        - lease_s``), a done record's ``completed_at``."""
        now = self._clock()
        marks: dict = {}        # worker -> [(start, end, kind, record)]
        for kind, records in (("held", live.values()), ("reaped", reaped)):
            for record in records:
                marks.setdefault(record["worker"], []).append((
                    record["claimed_at"],
                    record["expires_at"] - record["lease_s"], kind, record,
                ))
        for record in done.values():
            end = record["completed_at"]
            marks.setdefault(record["worker"], []).append((
                end - (record.get("execute_s") or 0.0), end,
                record["state"], record,
            ))
        complete = len(done) >= len(self.points)
        workers = {}
        for worker, mine in sorted(marks.items()):
            held = [record for _, _, kind, record in mine if kind == "held"]
            completed = sum(kind == "done" for _, _, kind, _ in mine)
            span_start = min(start for start, _, _, _ in mine)
            _, last, last_kind, _ = max(mine, key=lambda mark: mark[1])
            if held:
                state = "executing"
            elif last_kind == "reaped":
                state = "reaped"
            else:
                state = "finished" if complete else "idle"
            span = last - span_start
            workers[worker] = {
                "state": state,
                "completed": completed,
                "claims": len(mine),
                "beat_age_s": max(0.0, now - last),
                "stalled": any(r["expires_at"] <= now for r in held),
                "throughput_per_min": (
                    completed * 60.0 / span if span > 0 else 0.0
                ),
            }
        return workers

    def status(self) -> dict:
        """One snapshot of everything the records say."""
        done = self.claims.done_records()
        live = self.claims.claims()
        reaped = self.claims.reaped()
        points = self.point_map(done, live)
        by_state: dict = {}
        for _, _, state, _ in points:
            by_state[state] = by_state.get(state, 0) + 1
        workers = self._workers(done, live, reaped)
        return {
            "fleet_id": self.spec.fleet_id,
            "points_total": len(points),
            "points": by_state,
            "complete": len(done) >= len(self.points),
            "failed_points": self.failed_points(done),
            "workers": workers,
            "stalled": sorted(w for w, info in workers.items()
                              if info["stalled"]),
            "histogram": self.merged_histogram(done),
            "events": self.events(done, reaped)[-20:],
        }

    # Rendering ----------------------------------------------------------
    def render_status(self, width: int = 80) -> str:
        """Plain-text status: claim map + worker table.  Pure ASCII, no
        ANSI — safe verbatim in CI logs and on dumb terminals; the map
        wraps to ``width``."""
        from ..harness.reporting import format_table

        status = self.status()
        symbols = {"done": "#", "failed": "X", "claimed": "c",
                   "unclaimed": "."}
        points = self.point_map()
        map_line = "".join(symbols[state] for _, _, state, _ in points)
        wrap = max(16, int(width) - 12)
        wrapped = [map_line[i:i + wrap]
                   for i in range(0, len(map_line), wrap)] or [""]
        done = sum(1 for _, _, s, _ in points if s == "done")
        lines = [
            f"fleet {self.spec.fleet_id}: {done}/{len(points)} points "
            f"done ({self.spec.alias}/{self.spec.technique}, "
            f"{self.spec.num_frames} frames)",
            "points  " + f"\n{'':8}".join(wrapped)
            + "   [#=done X=failed c=claimed .=unclaimed]",
        ]
        if status["workers"]:
            rows = []
            for worker, info in status["workers"].items():
                age = info["beat_age_s"]
                rows.append([
                    worker,
                    "STALLED" if info["stalled"] else info["state"],
                    info["completed"],
                    info["claims"],
                    f"{age:.1f}s" if age is not None else "-",
                    f"{info['throughput_per_min']:.1f}/min",
                ])
            lines.append(format_table(
                ["worker", "state", "done", "claims", "beat", "rate"],
                rows,
            ))
        hist = status["histogram"]
        if hist and hist.get("count"):
            lines.append(
                f"execute wall: n={hist['count']} p50={hist['p50']:.3f}s "
                f"p95={hist['p95']:.3f}s max={hist['max']:.3f}s"
            )
        if status["failed_points"]:
            lines.append("FAILED points: "
                         + ", ".join(status["failed_points"]))
        return "\n".join(lines)


def launch_fleet(registry_root, spec, workers: int = 3,
                 crash_after: dict = None, max_wait_s: float = 300.0,
                 stream=None, worker_args: list = None) -> dict:
    """Spawn a local N-process fleet for ``spec`` and see it through.

    ``spec`` is a :class:`~repro.fleet.points.FleetSpec` (saved here) or
    a fleet id that was already saved.  ``crash_after`` maps worker id
    (``w0``..) -> claim count after which that worker hard-exits —
    deterministic crash injection for requeue tests.  ``stream``, when
    given, gets the status redrawn every :data:`WATCH_INTERVAL_S` while
    the workers run.  Returns the coordinator's status plus per-worker
    ``exit_codes``; raises :class:`FleetError` on timeout or when every
    worker exited with points remaining.  Crashed workers stay dead on
    purpose: completion must come from lease-expiry requeue.
    """
    registry_root = os.fspath(registry_root)
    if isinstance(spec, str):
        spec = load_spec(registry_root, spec)
    else:
        spec.save(registry_root)
    crash_after = crash_after or {}
    root = fleet_root(registry_root, spec.fleet_id)
    journal = RunJournal(os.path.join(root, "journal.jsonl"))
    journal.append("fleet_start", fleet_id=spec.fleet_id, workers=workers,
                   points=len(spec.point_ids()),
                   crash_after={k: v for k, v in crash_after.items()})

    procs = {}
    for index in range(workers):
        worker_id = f"w{index}"
        cmd = [
            sys.executable, "-m", "repro", "fleet", "work",
            "--registry", registry_root, "--fleet-id", spec.fleet_id,
            "--worker", worker_id, "--max-wait", str(max_wait_s),
        ]
        if worker_id in crash_after:
            cmd += ["--crash-after-claims", str(crash_after[worker_id])]
        cmd += list(worker_args or [])
        procs[worker_id] = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=_pythonpath()),
        )
        journal.append("worker_spawned", worker=worker_id,
                       pid=procs[worker_id].pid)

    coordinator = FleetCoordinator(registry_root, spec.fleet_id)
    deadline = time.monotonic() + max_wait_s
    exit_codes = {}
    try:
        for worker_id, proc in procs.items():
            while worker_id not in exit_codes:
                timeout = deadline - time.monotonic()
                if stream is not None:
                    timeout = min(timeout, WATCH_INTERVAL_S)
                try:
                    exit_codes[worker_id] = proc.wait(timeout=max(0.0,
                                                                  timeout))
                except subprocess.TimeoutExpired:
                    if time.monotonic() >= deadline:
                        raise FleetError(
                            f"fleet {spec.fleet_id!r} incomplete after "
                            f"{max_wait_s}s"
                        ) from None
                    print(coordinator.render_status(), file=stream)
    finally:
        for worker_id, proc in procs.items():
            if worker_id in exit_codes:
                continue
            try:
                exit_codes[worker_id] = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_codes[worker_id] = proc.wait()
        for event in coordinator.events():
            journal.append(**event)
        status = coordinator.status()
        journal.append("fleet_done", complete=status["complete"],
                       failed_points=status["failed_points"],
                       exit_codes=exit_codes)
        journal.close()
    if not status["complete"]:
        raise FleetError(
            f"fleet {spec.fleet_id!r}: all workers exited with "
            f"{len(coordinator.claims.done_ids())}/"
            f"{len(coordinator.points)} points done"
        )
    status["exit_codes"] = exit_codes
    return status


def _pythonpath() -> str:
    """Child workers must resolve ``repro`` the same way we did."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH")
    return f"{here}{os.pathsep}{existing}" if existing else here
