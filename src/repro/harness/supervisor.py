"""Supervised, fault-tolerant experiment orchestration.

:func:`supervise_cells` is the harness's one way to run cells in worker
processes (:func:`repro.harness.parallel.run_cells` sends every run that
is not serial and in-process here).  Up to ``processes`` persistent
:class:`~repro.harness.workers.Worker` processes live for the whole run
and serve attempt after attempt, so one game's cells share a worker's
host memos; a crashed or wedged simulation loses only its attempt and
its worker, which is replaced.  On top of that the supervisor adds:

* **per-attempt wall-clock timeouts** — an attempt that exceeds
  ``SupervisorPolicy.timeout_s`` from its dispatch is terminated with
  its worker and treated like a crash;
* **bounded retry with exponential backoff** — a failed cell is retried
  up to ``max_retries`` times, waiting ``backoff_base_s * 2**(n-1)``
  (capped at ``backoff_max_s``) after the n-th failure;
* **crash detection** — a worker that dies without reporting (killed,
  segfault, ``os._exit``) is detected by its closed pipe and exit code,
  and only its cell is rescheduled;
* **checkpoint recovery** — with ``checkpoint_stride > 0`` the worker
  saves a :class:`~repro.engine.session.RenderSession` checkpoint every
  ``stride`` frames (atomically; see
  :func:`repro.engine.checkpoint.save_checkpoint`), and a retried
  attempt resumes from the last checkpoint instead of starting over —
  the combined result is bit-identical to an uninterrupted run, down to
  per-tile CRCs;
* **an append-only JSONL run journal** — every attempt, retry, timeout,
  crash and recovery is a record in ``journal_path``, written only by
  the supervising parent (single writer, no interleaving).

Fault injection: recovery paths are themselves testable through a
deterministic hook.  A spec string — from the ``REPRO_FAULT_SPEC``
environment variable or the CLI's ``--inject-fault`` — of the form
``alias/technique:frame:kind[:times]`` makes the matching cell fail at
the first checkpoint-stride boundary at or after ``frame``, on its
first ``times`` attempts (default 1).  ``alias`` and/or ``technique``
may be ``*`` to match every cell — e.g. ``*/*:1:hang`` hangs the whole
fleet, exercising full-fleet stall detection:

* ``crash`` — the worker hard-exits (``os._exit``), simulating a kill;
* ``error`` — the attempt raises an :class:`InjectedFault` (the worker
  reports it and keeps serving);
* ``hang``  — the worker sleeps forever, tripping the timeout.

Because the fault fires *after* the boundary's checkpoint is on disk,
the retry demonstrably resumes mid-run rather than restarting.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import os
import shutil
import tempfile
import time
import typing
from multiprocessing.connection import wait

from ..config import GpuConfig
from ..engine.checkpoint import try_load_checkpoint
from ..errors import ReproError, SupervisionError
from .parallel import (
    Cell,
    cell_label,
    coerce_cells,
    ensure_unique_paths,
    per_cell_path,
)
from .runner import RunResult, run_workload
from .workers import EOF, Worker

__all__ = [
    "FAULT_ENV_VAR",
    "FAULT_KINDS",
    "CellOutcome",
    "FaultSpec",
    "InjectedFault",
    "RunJournal",
    "SupervisedRun",
    "SupervisorPolicy",
    "attempt_history",
    "supervise_cells",
]

#: Environment variable the supervisor reads a fault spec from when the
#: caller passes none (the CLI's ``--inject-fault`` takes precedence).
FAULT_ENV_VAR = "REPRO_FAULT_SPEC"

#: Supported fault kinds, in the spec's ``kind`` position.
FAULT_KINDS = ("crash", "error", "hang")

#: Exit code an injected ``crash`` fault dies with, so tests can tell a
#: deliberate kill from an accidental one in the journal.
CRASH_EXITCODE = 86


class InjectedFault(ReproError):
    """Raised inside a worker by an ``error``-kind injected fault."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """Parsed ``alias/technique:frame:kind[:times]`` fault directive."""

    alias: str
    technique: str
    frame: int
    kind: str
    times: int = 1

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        parts = str(spec).split(":")
        if len(parts) not in (3, 4) or "/" not in parts[0]:
            raise SupervisionError(
                f"bad fault spec {spec!r}: expected "
                f"'alias/technique:frame:kind[:times]'"
            )
        alias, _, technique = parts[0].partition("/")
        kind = parts[2]
        if kind not in FAULT_KINDS:
            raise SupervisionError(
                f"bad fault kind {kind!r}: choose from {FAULT_KINDS}"
            )
        try:
            frame = int(parts[1])
            times = int(parts[3]) if len(parts) == 4 else 1
        except ValueError:
            raise SupervisionError(
                f"bad fault spec {spec!r}: frame and times must be integers"
            ) from None
        if frame < 0 or times < 1:
            raise SupervisionError(
                f"bad fault spec {spec!r}: frame must be >= 0, times >= 1"
            )
        return cls(alias, technique, frame, kind, times)

    def __str__(self) -> str:
        return f"{self.alias}/{self.technique}:{self.frame}:{self.kind}:{self.times}"

    def matches(self, cell: Cell) -> bool:
        """``*`` for alias and/or technique matches every cell — used to
        simulate fleet-wide faults (e.g. ``*/re:1:hang``)."""
        return (self.alias in ("*", cell.alias)
                and self.technique in ("*", cell.technique))

    def should_fire(self, attempt: int, frames_rendered: int) -> bool:
        """Fire at the first stride boundary at/after ``frame``, on the
        first ``times`` attempts."""
        return attempt <= self.times and frames_rendered >= self.frame

    def fire(self) -> None:
        """Inject the fault: hard exit, hang, or raise."""
        if self.kind == "crash":
            os._exit(CRASH_EXITCODE)
        if self.kind == "hang":
            while True:          # the parent's timeout terminates us
                time.sleep(3600)
        raise InjectedFault(f"injected fault at frame boundary ({self})")

    def frame_hook(self, cell: Cell, attempt: int):
        """The ``after_step(frames_rendered)`` hook that injects this
        fault into one attempt of ``cell``, or ``None`` when the spec
        does not match the cell.  Supervised attempts and the service
        daemon's workers both call it at their frame boundaries."""
        if not self.matches(cell):
            return None

        def hook(frames_rendered: int) -> None:
            if self.should_fire(attempt, frames_rendered):
                self.fire()

        return hook


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Fault-tolerance knobs for one supervised run."""

    #: Per-attempt wall-clock limit in seconds; ``None`` = unlimited.
    timeout_s: float = None
    #: Retries after the first attempt (total attempts = retries + 1).
    max_retries: int = 2
    #: First backoff delay; doubles per failure.
    backoff_base_s: float = 0.05
    backoff_max_s: float = 5.0
    #: Frames between worker checkpoints; 0 disables mid-run checkpoints
    #: (retries then restart the cell from frame 0).
    checkpoint_stride: int = 0

    def backoff(self, failed_attempt: int) -> float:
        """Delay before the attempt following ``failed_attempt`` (1-based)."""
        delay = self.backoff_base_s * 2 ** (failed_attempt - 1)
        return min(self.backoff_max_s, delay)


class RunJournal:
    """Append-only JSONL journal of one supervised run.

    Records are flat JSON objects with an ``event`` name, a wall-clock
    ``ts``, and event-specific fields.  Only the supervising parent
    writes (one line per event, flushed immediately), so the file is
    valid JSONL even if the run is killed mid-write.  All records are
    also kept in memory on :attr:`records` for callers that never touch
    the filesystem.
    """

    def __init__(self, path=None) -> None:
        self.path = path
        self.records: list = []
        self._handle = open(path, "a", encoding="utf-8") if path else None

    def append(self, event: str, **fields) -> dict:
        record = {"event": event, "ts": time.time()}
        record.update(fields)
        self.records.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def read(path) -> list:
        """Parse a journal file back into its list of records."""
        records = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records


#: Journal fields that are pure functions of the cell matrix, policy and
#: fault spec — the fields :func:`attempt_history` compares across runs.
_HISTORY_FIELDS = (
    "attempt", "resume_frame", "frames", "kind", "error",
    "final_frame_crc", "backoff_s",
)


def attempt_history(records_or_path) -> dict:
    """Deterministic per-cell event timeline of a journal.

    Returns ``{cell_label: [(event, attempt, resume_frame, ...), ...]}``
    keeping only fields that do not depend on wall-clock or scheduling
    (timestamps, exit codes and global interleaving are dropped), so a
    serial and a parallel run of the same matrix — same faults, same
    policy — produce *equal* histories.
    """
    records = records_or_path
    if not isinstance(records, list):
        records = RunJournal.read(records)
    history: dict = {}
    for record in records:
        cell = record.get("cell")
        if cell is None:
            continue
        entry = (record["event"],) + tuple(
            record.get(field) for field in _HISTORY_FIELDS
        )
        history.setdefault(cell, []).append(entry)
    return history


@dataclasses.dataclass
class CellOutcome:
    """Terminal state of one cell after supervision."""

    cell: Cell
    result: RunResult = None
    attempts: int = 0
    #: Frame the successful attempt resumed from (0 = rendered fresh).
    resumed_from_frame: int = 0
    #: Terminal failure description; ``None`` when the cell succeeded.
    failure: str = None

    @property
    def succeeded(self) -> bool:
        return self.result is not None


@dataclasses.dataclass
class SupervisedRun:
    """Everything a supervised run produced."""

    outcomes: dict                     # Cell -> CellOutcome
    records: list                      # journal records, in order
    journal_path: object = None

    def results(self) -> dict:
        """``{cell: RunResult}`` for the cells that succeeded."""
        return {
            cell: outcome.result
            for cell, outcome in self.outcomes.items() if outcome.succeeded
        }

    @property
    def failed(self) -> dict:
        """``{cell: CellOutcome}`` for the cells that exhausted retries."""
        return {
            cell: outcome
            for cell, outcome in self.outcomes.items() if not outcome.succeeded
        }

    def raise_on_failure(self) -> "SupervisedRun":
        if self.failed:
            raise SupervisionError(
                "supervised run failed for "
                + ", ".join(sorted(cell_label(c) for c in self.failed)),
                self,
            )
        return self


@dataclasses.dataclass
class _CellState:
    """Parent-side bookkeeping for one cell across attempts; each
    attempt request carries it to the worker."""

    cell: Cell
    config: GpuConfig
    ckpt_path: object = None
    trace_path: object = None
    metrics_path: object = None
    attempt: int = 0
    next_eligible: float = 0.0
    #: Last frame a checkpoint is known to exist for (this run).
    checkpoint_frame: int = 0


def _run_attempt(conn, label: str, state: _CellState, checkpoint_stride: int,
                 fault: FaultSpec, live_enabled: bool) -> tuple:
    """A worker's request handler: run (or resume) one attempt of the
    cell labelled ``label``; returns ``(RunResult, resumed_from_frame)``.

    It sends ``("progress", frames_rendered)`` after every stride
    boundary (its checkpoint, if any, is already on disk) and, with
    ``live_enabled``, one ``("telemetry", {...})`` record per rendered
    frame.  The trace is rewritten per attempt; the metrics log is
    appended to, flushed per record, so even a crashed attempt leaves
    its completed frames on disk."""
    cell, attempt = state.cell, state.attempt
    checkpoint = try_load_checkpoint(state.ckpt_path)
    resumed_from = len(checkpoint["frames"]) if checkpoint is not None else 0
    live = None
    if live_enabled:
        from ..obs.live import ChannelLiveSink

        live = ChannelLiveSink(conn, label, attempt=attempt)
    fault_hook = fault.frame_hook(cell, attempt) if fault else None

    def after_step(frames_rendered: int) -> None:
        conn.send(("progress", frames_rendered))
        if fault_hook is not None:
            fault_hook(frames_rendered)

    result = run_workload(
        cell.alias, cell.technique, config=state.config,
        num_frames=cell.num_frames,
        exact_signatures=cell.exact_signatures, resume_from=checkpoint,
        checkpoint_path=state.ckpt_path,
        checkpoint_stride=checkpoint_stride,
        after_step=after_step, trace_path=state.trace_path,
        metrics_path=state.metrics_path, metrics_mode="a", live=live,
        header_fields={
            "cell": label,
            "attempt": attempt,
            "resumed_from_frame": resumed_from,
        },
    )
    return result, resumed_from


def supervise_cells(cells: typing.Iterable, config: GpuConfig = None,
                    policy: SupervisorPolicy = None, processes: int = None,
                    journal_path=None, fault_spec=None,
                    workdir=None, trace_path=None,
                    metrics_path=None, live=None,
                    progress_hook=None) -> SupervisedRun:
    """Run every cell under supervision; never raises for cell failures.

    ``cells`` is a sequence, read whole up front (duplicates collapse and
    artifact paths are checked for collisions before anything runs), or
    an iterator of :class:`Cell`, read lazily: the next cell is taken
    only when a worker is free and no cell is pending, eligible or
    backing off, so a taken cell starts at once.  Its ``next()`` may
    block until it has a cell; with ``processes=1`` the run then has
    nothing else to do.  An iterator's cells always get per-cell
    artifact paths, and its outcomes are keyed in the order taken.

    ``processes`` bounds how many attempts run concurrently (default 1 —
    still fully supervised, in one isolated worker).  Workers are forked
    on demand up to that bound and serve attempt after attempt; a free
    worker gets the next eligible cell of the game it rendered last
    (else one of a game no busy worker is rendering, else the first
    eligible cell), so one game's cells share its host memos.  A worker
    that crashes or times out is replaced at the next dispatch.

    ``workdir`` holds the per-cell recovery checkpoints; if omitted a
    temporary directory is used and removed afterwards.  In a
    caller-provided ``workdir``, checkpoints of cells that never succeed
    are *kept*, so re-running the same matrix resumes them; a successful
    cell's checkpoint is always deleted.

    ``trace_path`` / ``metrics_path`` enable observability
    (:mod:`repro.obs`) inside the workers: each attempt writes a Chrome
    trace stamped with its cell/attempt/resume-frame metadata and
    appends per-frame metrics records under its own stamped header, so
    the journal, the trace and the metrics log tell one correlated
    story.  With more than one cell the paths are suffixed per cell
    (see the journal's ``attempt_start`` records for the exact paths).

    ``fault_spec`` accepts a :class:`FaultSpec` or spec string; when
    ``None`` the ``REPRO_FAULT_SPEC`` environment variable is consulted.
    Inspect :attr:`SupervisedRun.failed` (or call
    :meth:`SupervisedRun.raise_on_failure`) for cells that exhausted
    their retries.

    ``live`` accepts a :class:`~repro.obs.live.LiveAggregator`: every
    worker then streams per-frame progress and key counters back over
    its pipe, and the aggregator renders a periodic status table,
    writes its ``live.json`` heartbeat, and flags stalled workers —
    *before* the timeout kill fires, since its stall threshold is
    independent of (and should be below) ``policy.timeout_s``.

    ``progress_hook`` is a lower-level tap on the same stream: a
    callable invoked in the supervisor process as ``hook(cell, kind,
    payload)`` for every ``"progress"`` (frames rendered) and
    ``"telemetry"`` message, and once with ``"done"`` and the cell's
    :class:`CellOutcome` when it reaches its terminal state.  Fleet
    workers use it to renew their point lease per frame and to record
    each point's outcome; passing a hook enables per-frame telemetry in
    the workers even when no ``live`` aggregator is attached.  Hook
    exceptions propagate, ending the run and any attempt in flight — a
    fleet worker that cannot renew its lease must not keep rendering.
    """
    lazy = isinstance(cells, collections.abc.Iterator)
    source = cells if lazy else None
    cells = [] if lazy else coerce_cells(cells)
    config = config or GpuConfig.benchmark()
    policy = policy or SupervisorPolicy()
    if fault_spec is None:
        fault_spec = os.environ.get(FAULT_ENV_VAR) or None
    fault = (
        FaultSpec.parse(fault_spec)
        if isinstance(fault_spec, str) else fault_spec
    )
    width = 1 if processes in (None, 0) else max(1, int(processes))
    if not lazy:
        width = min(width, len(cells)) if cells else 1

    own_workdir = workdir is None and policy.checkpoint_stride > 0
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-supervise-")
    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)

    many = lazy or len(cells) > 1
    taken: dict = {}       # Cell -> None, in the order taken
    used_paths: dict = {"trace": {}, "metrics": {}, "checkpoint": {}}
    pending: list = []

    def take(cell: Cell) -> None:
        """Make ``cell`` pending, its artifact paths checked against
        every cell taken before it."""
        cell_config = cell.config or config
        ckpt_path = None
        if workdir is not None and policy.checkpoint_stride > 0:
            exact = "-exact" if cell.exact_signatures else ""
            ckpt_path = os.path.join(
                workdir,
                f"{cell.alias}-{cell.technique}-f{cell.num_frames}{exact}"
                f"-{cell_config.digest()[:8]}.ckpt",
            )
        state = _CellState(
            cell, cell_config, ckpt_path,
            trace_path=per_cell_path(trace_path, cell, len(taken), many),
            metrics_path=per_cell_path(metrics_path, cell, len(taken), many),
        )
        for what, path in (("trace", state.trace_path),
                           ("metrics", state.metrics_path),
                           ("checkpoint", state.ckpt_path)):
            ensure_unique_paths([path], what, seen=used_paths[what])
        taken[cell] = None
        pending.append(state)

    try:
        for cell in cells:
            take(cell)
    except ReproError:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        raise

    journal = RunJournal(journal_path)
    journal.append(
        "run_start", cells=None if lazy else len(cells), processes=width,
        config_digest=config.digest(),
        policy=dataclasses.asdict(policy),
        fault=str(fault) if fault else None,
    )

    # Live workers in spawn order, each with the state of the last
    # attempt it was sent (``None`` before its first).
    workers: dict = {}
    outcomes: dict = {}    # Cell -> CellOutcome
    handler = functools.partial(
        _run_attempt, checkpoint_stride=policy.checkpoint_stride,
        fault=fault, live_enabled=live is not None or progress_hook is not None,
    )

    def spawn() -> Worker:
        worker = Worker(handler, timeout_s=policy.timeout_s or None)
        workers[worker] = None
        return worker

    def last_game(worker: Worker) -> str:
        state = workers[worker]
        return state.cell.alias if state is not None else None

    def launch(worker: Worker, state: _CellState) -> None:
        state.attempt += 1
        if state.attempt == 1 and state.metrics_path is not None:
            # Attempts append; start each supervised run from a clean log.
            open(state.metrics_path, "w", encoding="utf-8").close()
        worker.send(cell_label(state.cell), state)
        workers[worker] = state
        extra = {}
        if state.trace_path is not None:
            extra["trace"] = str(state.trace_path)
        if state.metrics_path is not None:
            extra["metrics"] = str(state.metrics_path)
        journal.append(
            "attempt_start", cell=cell_label(state.cell),
            attempt=state.attempt, resume_frame=state.checkpoint_frame,
            num_frames=state.cell.num_frames, pid=worker.process.pid,
            **extra,
        )

    def dispatch() -> None:
        """Hand eligible cells to free workers, forking up to ``width``
        and taking the next cell of a lazy ``cells`` when one can start;
        the pairing rule is the one in the docstring above."""
        nonlocal source
        now = time.monotonic()
        busy = {s.cell.alias for w, s in workers.items() if not w.idle}
        while True:
            free = [w for w in workers if w.idle]
            if (source is not None and not pending
                    and (free or len(workers) < width)):
                cell = next(source, None)
                if cell is None:
                    source = None
                elif cell not in taken:
                    take(cell)
                continue
            eligible = [s for s in pending if s.next_eligible <= now]
            if not eligible:
                return
            if not free:
                if len(workers) >= width:
                    return
                free = [spawn()]
            worker, state = min(
                ((w, s) for w in free for s in eligible),
                key=lambda pair: (pair[1].cell.alias != last_game(pair[0]),
                                  pair[1].cell.alias in busy),
            )
            pending.remove(state)
            busy.add(state.cell.alias)
            launch(worker, state)

    def next_timeout() -> float:
        """Seconds until the nearest deadline (``None`` = none): a busy
        worker's attempt timeout, a backing-off cell's eligibility while
        a worker is free for it, the live aggregator's next tick."""
        deadlines = [w.deadline for w in workers if w.deadline is not None]
        if pending and sum(not w.idle for w in workers) < width:
            deadlines.append(min(s.next_eligible for s in pending))
        timeout = (
            max(0.0, min(deadlines) - time.monotonic()) if deadlines
            else None
        )
        tick = live.seconds_until_tick() if live is not None else None
        if tick is not None:
            timeout = tick if timeout is None else min(timeout, tick)
        return timeout

    def retire(worker: Worker, terminate: bool = False) -> None:
        """Reap a dead (or, with ``terminate``, an overdue) worker; the
        next dispatch forks a replacement if one is needed."""
        del workers[worker]
        worker.retire(terminate)

    def retry_or_fail(state: _CellState, kind: str, **fields) -> None:
        journal.append(
            f"attempt_{kind}", cell=cell_label(state.cell),
            attempt=state.attempt, kind=kind, **fields,
        )
        if live is not None:
            live.mark_status(
                cell_label(state.cell),
                "retrying" if state.attempt <= policy.max_retries
                else "failed",
            )
        if state.attempt <= policy.max_retries:
            delay = policy.backoff(state.attempt)
            state.next_eligible = time.monotonic() + delay
            journal.append(
                "cell_retry", cell=cell_label(state.cell),
                attempt=state.attempt, backoff_s=round(delay, 6),
                resume_frame=state.checkpoint_frame,
            )
            pending.append(state)
        else:
            failure = f"{kind} after {state.attempt} attempts"
            if fields.get("error"):
                failure += f": {fields['error']}"
            outcomes[state.cell] = CellOutcome(
                state.cell, attempts=state.attempt, failure=failure,
            )
            journal.append(
                "cell_failed", cell=cell_label(state.cell),
                attempt=state.attempt, kind=kind,
                error=fields.get("error"),
            )
            if progress_hook is not None:
                progress_hook(state.cell, "done", outcomes[state.cell])

    def succeed(state: _CellState, result: RunResult,
                resumed_from: int) -> None:
        if live is not None:
            live.mark_status(cell_label(state.cell), "done")
        outcomes[state.cell] = CellOutcome(
            state.cell, result=result, attempts=state.attempt,
            resumed_from_frame=resumed_from,
        )
        journal.append(
            "cell_done", cell=cell_label(state.cell),
            attempt=state.attempt, resume_frame=resumed_from,
            frames=result.num_frames,
            final_frame_crc=result.final_frame_crc,
        )
        if state.ckpt_path is not None and os.path.exists(state.ckpt_path):
            os.remove(state.ckpt_path)
        if progress_hook is not None:
            progress_hook(state.cell, "done", outcomes[state.cell])

    def route(state: _CellState, message) -> None:
        """Route an attempt's progress and telemetry records."""
        if message[0] == "telemetry":
            if live is not None:
                live.update(message)
            if progress_hook is not None:
                progress_hook(state.cell, "telemetry", message[1])
            return
        frames = int(message[1])
        if progress_hook is not None:
            progress_hook(state.cell, "progress", frames)
        if state.ckpt_path is not None and frames < state.cell.num_frames:
            state.checkpoint_frame = frames

    try:
        dispatch()
        while (pending or source is not None
               or not all(w.idle for w in workers)):
            timeout = next_timeout()
            if workers:
                wait([w.conn for w in workers], timeout=timeout)
            else:
                # Every cell is backing off and no worker is alive.
                time.sleep(timeout)
            if live is not None:
                live.tick()

            for worker, state in list(workers.items()):
                replies = worker.drain(functools.partial(route, state))
                for reply in replies:
                    if reply is EOF:
                        # The worker died: mid-attempt, or (killed from
                        # outside) while free.
                        busy = not worker.idle
                        retire(worker)
                        if busy:
                            retry_or_fail(
                                state, "crash",
                                exitcode=worker.process.exitcode,
                            )
                    elif reply[0] == "ok":
                        succeed(state, reply[2], int(reply[3]))
                    else:
                        retry_or_fail(state, "error", error=reply[2])
                if not replies and worker.overdue():
                    retire(worker, terminate=True)
                    retry_or_fail(
                        state, "timeout", timeout_s=policy.timeout_s,
                    )
            dispatch()

        journal.append(
            "run_complete",
            succeeded=sum(1 for o in outcomes.values() if o.succeeded),
            failed=sum(1 for o in outcomes.values() if not o.succeeded),
        )
    finally:
        for worker in workers:
            worker.retire(terminate=not worker.idle)
        journal.close()
        if live is not None:
            live.close()
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    # Key outcomes in the caller's cell order (the order taken).
    ordered = {cell: outcomes[cell] for cell in taken}
    return SupervisedRun(
        outcomes=ordered, records=journal.records, journal_path=journal_path,
    )
