"""Tracer protocol and the Chrome-trace-event recording implementation.

The simulator's time-resolved telemetry flows through a :class:`Tracer`:
*spans* (``begin``/``end`` pairs, or the ``span`` context manager) mark
how long a pipeline stage ran, *instant events* mark point decisions
(tile skipped, signature hit/miss, OT-queue stall), and *counter events*
sample per-frame totals onto a counter track.

Two implementations:

* :class:`Tracer` itself is the no-op null tracer.  It is *falsy*, so
  hot paths guard with ``if tracer:`` and pay a single truthiness check
  per decision when tracing is off.
* :class:`TraceRecorder` accumulates Chrome trace-event JSON — the
  format ``chrome://tracing`` and Perfetto load natively — and writes a
  ``{"traceEvents": [...], "metadata": {...}}`` payload.

Stage timing is a view of the same stream: :func:`span_totals` folds a
recorder's B/E events into inclusive seconds and calls per span name
(what ``repro --profile run`` prints).

Timestamps are microseconds of host wall-clock since the recorder was
created (the trace-event ``ts`` unit).  Every event carries ``pid``,
``tid``, ``ts``, ``ph`` and ``name``; :mod:`repro.obs.validate` pins the
schema in tests so viewer compatibility is checked, not assumed.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from ..errors import ReproError


class Tracer:
    """No-op tracer: the API surface, and the disabled implementation.

    Instances are falsy so hot loops can write ``if tracer:`` — with
    tracing disabled nothing is ever called, not even a no-op method.
    """

    enabled = False

    def __bool__(self) -> bool:
        return self.enabled

    # Span API -----------------------------------------------------------
    def begin(self, name: str, tid: int = 0, **args) -> None:
        """Open a span on track ``tid``."""

    def end(self, name: str = None, tid: int = 0) -> None:
        """Close the innermost open span on track ``tid``."""

    @contextlib.contextmanager
    def span(self, name: str, tid: int = 0, **args):
        """``with tracer.span("raster"):`` — begin/end as a context."""
        self.begin(name, tid=tid, **args)
        try:
            yield self
        finally:
            self.end(name, tid=tid)

    # Point events -------------------------------------------------------
    def instant(self, name: str, tid: int = 0, **args) -> None:
        """Record a point-in-time event (a tile decision, a stall)."""

    def counter(self, name: str, values: dict, tid: int = 0) -> None:
        """Sample a named counter track (``values`` is series -> number)."""

    # Metadata -----------------------------------------------------------
    def annotate(self, **fields) -> None:
        """Merge fields into the trace-level metadata (attempt ids...)."""

    def close_open_spans(self) -> None:
        """End every still-open span (used before writing a partial
        trace from a run that died mid-frame, keeping B/E balanced)."""


#: Shared ready-made null tracer for callers that want a non-None default.
NULL_TRACER = Tracer()


class TraceRecorder(Tracer):
    """Recording tracer emitting Chrome trace-event JSON.

    >>> tracer = TraceRecorder(pid=1)
    >>> with tracer.span("frame", frame=0):
    ...     tracer.instant("tile_skip", tile=3)
    >>> [e["ph"] for e in tracer.events if e["ph"] != "M"]
    ['B', 'i', 'E']
    """

    enabled = True

    #: Track names emitted as ``thread_name`` metadata, per tid.
    TRACK_NAMES = {0: "pipeline"}

    def __init__(self, pid: int = None, metadata: dict = None,
                 clock=time.perf_counter) -> None:
        self.pid = os.getpid() if pid is None else int(pid)
        self.metadata: dict = dict(metadata or {})
        self.events: list = []
        self._clock = clock
        self._t0 = clock()
        self._stacks: dict = {}        # tid -> [open span names]
        self._named_tracks: set = set()
        self._meta_event("process_name", {"name": "repro-sim"}, tid=0)

    # Internals ----------------------------------------------------------
    def _ts(self) -> float:
        """Microseconds since the recorder was created."""
        return (self._clock() - self._t0) * 1e6

    def _event(self, ph: str, name: str, tid: int, ts: float = None,
               **extra) -> dict:
        if tid not in self._named_tracks:
            self._named_tracks.add(tid)
            track = self.TRACK_NAMES.get(tid, f"track-{tid}")
            self._meta_event("thread_name", {"name": track}, tid=tid)
        event = {
            "name": name,
            "ph": ph,
            "pid": self.pid,
            "tid": int(tid),
            "ts": self._ts() if ts is None else ts,
        }
        event.update(extra)
        self.events.append(event)
        return event

    def _meta_event(self, name: str, args: dict, tid: int) -> None:
        self.events.append({
            "name": name, "ph": "M", "pid": self.pid, "tid": int(tid),
            "ts": 0.0, "args": args,
        })

    # Span API -----------------------------------------------------------
    def begin(self, name: str, tid: int = 0, **args) -> None:
        self._stacks.setdefault(tid, []).append(name)
        self._event("B", name, tid, args=args)

    def end(self, name: str = None, tid: int = 0) -> None:
        stack = self._stacks.get(tid)
        if not stack:
            raise ReproError(
                f"Tracer.end() with no open span on track {tid}"
            )
        opened = stack.pop()
        if name is not None and name != opened:
            raise ReproError(
                f"Tracer.end({name!r}) closes span {opened!r}"
            )
        self._event("E", opened, tid)

    # Point events -------------------------------------------------------
    def instant(self, name: str, tid: int = 0, **args) -> None:
        self._event("i", name, tid, s="t", args=args)

    def counter(self, name: str, values: dict, tid: int = 0) -> None:
        self._event("C", name, tid, args=dict(values))

    # Metadata / output --------------------------------------------------
    def annotate(self, **fields) -> None:
        self.metadata.update(fields)

    def close_open_spans(self) -> None:
        for tid, stack in self._stacks.items():
            while stack:
                self._event("E", stack.pop(), tid)

    def to_json(self) -> dict:
        """The complete trace payload (Perfetto's JSON object form)."""
        if any(self._stacks.values()):
            open_spans = {
                tid: list(stack)
                for tid, stack in self._stacks.items() if stack
            }
            raise ReproError(f"unbalanced trace: open spans {open_spans}")
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "metadata": dict(self.metadata),
        }

    def write(self, path) -> None:
        """Write the trace where ``chrome://tracing`` / Perfetto load it."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)
            handle.write("\n")


def span_totals(events) -> dict:
    """Inclusive seconds and call count per span name, from B/E events.

    Returns ``{name: (seconds, calls)}`` in first-opened order.  Spans
    pair per ``(pid, tid)`` track, so nested spans each count their full
    duration: a ``frame`` includes its ``geometry`` and ``raster``.

    >>> ticks = iter([0.0, 0.0, 1.0, 3.0, 4.0])
    >>> tracer = TraceRecorder(pid=1, clock=lambda: next(ticks))
    >>> with tracer.span("frame"):
    ...     with tracer.span("raster"):
    ...         pass
    >>> span_totals(tracer.events)
    {'frame': (4.0, 1), 'raster': (2.0, 1)}
    """
    open_at: dict = {}               # (pid, tid) -> [begin ts]
    totals: dict = {}                # name -> [microseconds, calls]
    for event in events:
        phase = event["ph"]
        if phase == "B":
            open_at.setdefault((event["pid"], event["tid"]), []).append(
                event["ts"])
            totals.setdefault(event["name"], [0.0, 0])
        elif phase == "E":
            begun = open_at[(event["pid"], event["tid"])].pop()
            total = totals[event["name"]]
            total[0] += event["ts"] - begun
            total[1] += 1
    return {
        name: (micros / 1e6, calls)
        for name, (micros, calls) in totals.items()
    }
