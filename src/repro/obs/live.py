"""Live telemetry for parallel and supervised experiment fleets.

A long sweep fanned across workers is opaque until it finishes — the
journal records attempts after the fact and the supervisor's timeout is
the *last* line of defence.  This module adds the first line: workers
stream per-frame progress and key counters to an aggregator in the
supervising process, which

* renders a periodic one-line-per-worker **status table**,
* writes a ``live.json`` **heartbeat** any dashboard (or a human with
  ``watch cat``) can poll, and
* flags **stalled** workers — no telemetry for ``stall_after_s`` —
  *before* the supervisor's timeout kill fires, so a wedged cell is
  visible while it is still wedged.

Cost discipline mirrors the :class:`~repro.obs.tracer.Tracer`:
:class:`LiveSink` is the falsy no-op — with telemetry disabled the
render loop pays exactly one truthiness check per frame and never calls
a method.  :class:`ChannelLiveSink` is the enabled worker side; it posts
small dicts over whatever channel it is given (a worker's
multiprocessing ``Connection``, or the aggregator itself when the run
is in-process).  :class:`LiveAggregator` is the supervising side.
"""

from __future__ import annotations

import io
import json
import os
import time

__all__ = [
    "ChannelLiveSink",
    "LiveAggregator",
    "LiveSink",
    "NULL_LIVE",
    "TELEMETRY_TAG",
    "read_heartbeat",
]

#: First element of the tuple a :class:`ChannelLiveSink` sends over a
#: ``Connection``, so mixed-protocol pipes (the supervisor's and the
#: daemon's worker pipes) can route telemetry by tag.
TELEMETRY_TAG = "telemetry"


class LiveSink:
    """No-op live-telemetry sink: the API surface, and the disabled
    implementation.  Instances are falsy so hot loops write
    ``if live:`` — disabled telemetry is a single truthiness check."""

    enabled = False

    def __bool__(self) -> bool:
        return self.enabled

    def frame_done(self, frames_rendered: int, num_frames: int,
                   **counters) -> None:
        """Report one completed frame (cumulative counters)."""

    def finish(self, ok: bool = True) -> None:
        """Report that the worker's run ended."""


#: Shared ready-made null sink for callers that want a non-None default.
NULL_LIVE = LiveSink()


class ChannelLiveSink(LiveSink):
    """Worker-side sink posting telemetry dicts over a channel.

    ``channel`` may be a multiprocessing ``Connection`` (``.send``) or a
    :class:`LiveAggregator` (``.update``) for in-process runs.
    """

    enabled = True

    def __init__(self, channel, worker: str, attempt: int = 0) -> None:
        self.worker = worker
        self.attempt = attempt
        if hasattr(channel, "send"):
            self._post = lambda payload: channel.send(
                (TELEMETRY_TAG, payload))
        else:
            self._post = channel.update

    def _payload(self, **fields) -> dict:
        payload = {"worker": self.worker, "ts": time.time()}
        if self.attempt:
            payload["attempt"] = self.attempt
        payload.update(fields)
        return payload

    def frame_done(self, frames_rendered: int, num_frames: int,
                   **counters) -> None:
        try:
            self._post(self._payload(
                frames=int(frames_rendered), total=int(num_frames),
                counters=dict(counters),
            ))
        except (OSError, ValueError):   # dying parent; telemetry is
            pass                        # best-effort, never fatal

    def finish(self, ok: bool = True) -> None:
        try:
            self._post(self._payload(event="done", ok=bool(ok)))
        except (OSError, ValueError):
            pass


class LiveAggregator:
    """Supervising-side collector: status table, heartbeat, stall flags.

    ``path`` is where the heartbeat JSON goes (``None`` disables the
    file); ``stream`` is where the periodic status table is printed
    (``None`` keeps a silent in-memory buffer tests can read);
    ``stall_after_s`` is the no-telemetry threshold after which a
    running worker is flagged; ``interval_s`` gates how often
    :meth:`tick` actually re-renders.

    Everything notable lands on :attr:`events` (stall flagged/cleared,
    worker done) with wall-clock timestamps, and the heartbeat embeds
    the trailing events, so "was the hang flagged before the timeout
    killed it" is answerable after the run from ``live.json`` alone.

    Heartbeat ownership: exactly one process may own (write) a given
    ``path`` — the foreground aggregator of a ``--live`` run, or the
    service daemon (:mod:`repro.service.daemon`), which attaches one
    aggregator for its whole lifetime and routes every worker's
    telemetry through it.  Readers (``repro status``, dashboards) use
    :func:`read_heartbeat`, which only ever sees complete snapshots
    because the write is an atomic ``os.replace``.  ``owner`` stamps the
    writing process's identity into the heartbeat so a reader can tell a
    daemon's ``live.json`` from a foreground run's.

    ``use_payload_ts`` switches staleness to the payload's own ``ts``
    wall-clock stamp (clamped against clock skew) instead of arrival
    time — for consumers like the fleet coordinator that *tail files*
    rather than receive telemetry live, where arrival time says when
    the tail loop ran, not when the worker last made progress.
    """

    def __init__(self, path="live.json", stall_after_s: float = 5.0,
                 interval_s: float = 1.0, stream=None,
                 clock=time.monotonic, owner: str = None,
                 use_payload_ts: bool = False) -> None:
        self.path = path
        self.stall_after_s = stall_after_s
        self.interval_s = interval_s
        self.stream = stream if stream is not None else io.StringIO()
        self._own_stream = stream is None
        self._clock = clock
        self._last_tick = -1e18
        self.started_at = time.time()
        self.owner = owner
        self.use_payload_ts = use_payload_ts
        self.workers: dict = {}     # worker label -> state dict
        self.events: list = []

    # Ingest -------------------------------------------------------------
    def _state(self, worker: str) -> dict:
        return self.workers.setdefault(worker, {
            "frames": 0, "total": None, "counters": {}, "attempt": None,
            "last_update": self._clock(), "last_update_ts": time.time(),
            "status": "running", "stalled": False,
        })

    def update(self, payload) -> None:
        """Ingest one telemetry payload (tagged tuple or bare dict)."""
        if isinstance(payload, tuple):      # ("telemetry", {...})
            payload = payload[1]
        state = self._state(payload["worker"])
        payload_ts = payload.get("ts", time.time())
        if self.use_payload_ts:
            # Staleness derives from the *payload's* wall-clock stamp,
            # not arrival time: a fleet coordinator tailing heartbeat
            # files reads records long after they were written.  The
            # age is clamped at zero so a worker whose clock runs ahead
            # of ours never reads as stale-er (or fresher than now).
            age = max(0.0, time.time() - float(payload_ts))
            state["last_update"] = self._clock() - age
        else:
            state["last_update"] = self._clock()
        state["last_update_ts"] = payload_ts
        if payload.get("attempt") is not None:
            state["attempt"] = payload["attempt"]
        if payload.get("event") == "done":
            state["status"] = "done" if payload.get("ok", True) else "failed"
            state["stalled"] = False
        else:
            if state["status"] not in ("done", "failed"):
                state["status"] = "running"
            state["frames"] = payload.get("frames", state["frames"])
            state["total"] = payload.get("total", state["total"])
            state["counters"].update(payload.get("counters", {}))
            if state["stalled"]:
                state["stalled"] = False
                self.events.append({
                    "event": "stall_cleared", "worker": payload["worker"],
                    "ts": time.time(),
                })
        self.tick()

    def mark_status(self, worker: str, status: str) -> None:
        """Supervisor bookkeeping: retrying / done / failed."""
        state = self._state(worker)
        state["status"] = status
        if status in ("done", "failed"):
            state["stalled"] = False
            self.events.append({
                "event": f"worker_{status}", "worker": worker,
                "ts": time.time(),
            })
        self.tick(force=True)

    # Stall detection ----------------------------------------------------
    def _refresh_stalls(self) -> None:
        now = self._clock()
        for worker, state in self.workers.items():
            if state["status"] != "running" or state["stalled"]:
                continue
            if now - state["last_update"] > self.stall_after_s:
                state["stalled"] = True
                self.events.append({
                    "event": "stall_flagged", "worker": worker,
                    "ts": time.time(),
                    "last_update_ts": state["last_update_ts"],
                    "frames": state["frames"],
                })

    def stalled(self) -> list:
        """Labels of currently-stalled workers (refreshes detection)."""
        self._refresh_stalls()
        return sorted(
            worker for worker, state in self.workers.items()
            if state["stalled"]
        )

    # Output -------------------------------------------------------------
    def render_status_table(self) -> str:
        from ..harness.reporting import format_table

        rows = []
        for worker in sorted(self.workers):
            state = self.workers[worker]
            total = state["total"]
            progress = (
                f"{state['frames']}/{total}" if total
                else str(state["frames"])
            )
            status = "STALLED" if state["stalled"] else state["status"]
            counters = state["counters"]
            rows.append([
                worker, progress, status,
                state["attempt"] if state["attempt"] is not None else "-",
                counters.get("tiles_skipped", 0),
                counters.get("fragments_shaded", 0),
            ])
        return format_table(
            ["worker", "frames", "status", "attempt",
             "tiles_skipped", "fragments_shaded"], rows,
        )

    def snapshot(self) -> dict:
        """The heartbeat payload (what ``live.json`` holds)."""
        return {
            "ts": time.time(),
            "started_at": self.started_at,
            "owner": self.owner,
            "workers": {
                worker: {
                    "frames": state["frames"],
                    "total": state["total"],
                    "status": state["status"],
                    "stalled": state["stalled"],
                    "attempt": state["attempt"],
                    "last_update_ts": state["last_update_ts"],
                    "counters": dict(state["counters"]),
                }
                for worker, state in self.workers.items()
            },
            "stalled": sorted(
                worker for worker, state in self.workers.items()
                if state["stalled"]
            ),
            "events": self.events[-50:],
        }

    def _write_heartbeat(self) -> None:
        if self.path is None:
            return
        tmp = f"{os.fspath(self.path)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.snapshot(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path)
        except OSError:                 # best-effort heartbeat
            pass

    def tick(self, force: bool = False) -> bool:
        """Refresh stalls and, at most every ``interval_s`` (or when
        forced or a new stall appeared), emit the heartbeat + table.
        Returns whether output was emitted."""
        stalls_before = len([
            e for e in self.events if e["event"] == "stall_flagged"
        ])
        self._refresh_stalls()
        new_stall = len([
            e for e in self.events if e["event"] == "stall_flagged"
        ]) > stalls_before
        now = self._clock()
        if not force and not new_stall:
            if now - self._last_tick < self.interval_s:
                return False
        self._last_tick = now
        self._write_heartbeat()
        if self.workers:
            print(self.render_status_table() + "\n", file=self.stream)
        return True

    def seconds_until_tick(self):
        """Seconds until :meth:`tick` next has work: the heartbeat
        interval, or sooner, the first running worker's stall
        threshold; ``None`` when neither is due.

        With ``interval_s <= 0`` the heartbeat sets no deadline:
        :meth:`tick` emits on every call anyway, and a waiting loop that
        woke for it at once would spin.
        """
        deadlines = [
            state["last_update"] + self.stall_after_s
            for state in self.workers.values()
            if state["status"] == "running" and not state["stalled"]
        ]
        if self.interval_s > 0:
            deadlines.append(self._last_tick + self.interval_s)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - self._clock())

    def status_output(self) -> str:
        """Everything printed so far when no stream was provided."""
        return (
            self.stream.getvalue() if self._own_stream else ""
        )

    def close(self) -> None:
        """Final forced tick so the heartbeat reflects terminal state."""
        self.tick(force=True)


def read_heartbeat(path):
    """Read a ``live.json`` heartbeat written by a :class:`LiveAggregator`.

    The read-side half of the heartbeat contract: the aggregator writes
    atomically (``os.replace``), so a reader either sees a complete
    snapshot or the previous one — never a torn file.  ``repro status``
    reads the daemon's heartbeat through this instead of attaching a
    second (racing) writer.  Returns the snapshot dict, or ``None`` when
    the file is missing or not yet valid JSON (a heartbeat that never
    got its first tick).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
