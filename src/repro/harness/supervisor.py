"""Supervised, fault-tolerant experiment orchestration.

:func:`supervise_cells` is the harness's one way to run cells in worker
processes (:func:`repro.harness.parallel.run_cells` sends every run that
is not serial and in-process here).  Up to ``processes`` forked workers
live for the whole run and serve attempt after attempt over their
pipes, so one game's cells share a worker's host memos; a crashed or
wedged simulation loses only its attempt and its worker, which is
replaced.  On top of that the supervisor adds:

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

import dataclasses
import json
import multiprocessing
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


# ----------------------------------------------------------------------
# Worker side (child process)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _CellState:
    """Parent-side bookkeeping for one cell across attempts; each
    attempt message carries it to the worker."""

    cell: Cell
    config: GpuConfig
    ckpt_path: object = None
    trace_path: object = None
    metrics_path: object = None
    attempt: int = 0
    next_eligible: float = 0.0
    #: Last frame a checkpoint is known to exist for (this run).
    checkpoint_frame: int = 0


def _run_attempt(conn, state: _CellState, checkpoint_stride: int,
                 fault: FaultSpec, live_enabled: bool) -> tuple:
    """Run (or resume) one attempt of ``state``'s cell; returns
    ``(RunResult, resumed_from_frame)``.  The trace is rewritten per
    attempt; the metrics log is appended to, flushed per record, so even
    a crashed attempt leaves its completed frames on disk."""
    cell, attempt = state.cell, state.attempt
    checkpoint = try_load_checkpoint(state.ckpt_path)
    resumed_from = len(checkpoint["frames"]) if checkpoint is not None else 0
    live = None
    if live_enabled:
        from ..obs.live import ChannelLiveSink

        live = ChannelLiveSink(conn, cell_label(cell), attempt=attempt)
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
            "cell": cell_label(cell),
            "attempt": attempt,
            "resumed_from_frame": resumed_from,
        },
    )
    return result, resumed_from


def _worker_main(conn) -> None:
    """Persistent worker body: serve attempts until ``("stop",)`` or EOF.

    Messages in: ``("attempt", _CellState, checkpoint_stride, fault,
    live_enabled)`` or ``("stop",)``.  Messages out, per attempt:
    ``("progress", frames_rendered)`` after every stride boundary (its
    checkpoint, if any, is already on disk), with ``live_enabled`` one
    ``("telemetry", {...})`` record per rendered frame, then exactly one
    of ``("ok", RunResult, resumed_from_frame)`` or ``("error",
    description)``.

    An exception fails only its attempt; the worker reports it and
    serves the next one.  An injected ``crash``, a ``hang`` the parent
    kills at its timeout, or any other ``BaseException`` ends the worker
    without a reply — the parent reads the EOF and the exit code.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        try:
            conn.send(("ok",) + _run_attempt(conn, *message[1:]))
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):       # the parent is gone
                return


# ----------------------------------------------------------------------
# Supervisor side (parent process)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _Worker:
    """Parent-side record of one persistent worker process."""

    process: object
    conn: object
    #: The attempt it is running; ``None`` while it is free.
    state: _CellState = None
    deadline: float = None
    #: Game of the last attempt it ran; dispatch prefers that game.
    alias: str = None


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                       # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


def supervise_cells(cells: typing.Sequence, config: GpuConfig = None,
                    policy: SupervisorPolicy = None, processes: int = None,
                    journal_path=None, fault_spec=None,
                    workdir=None, trace_path=None,
                    metrics_path=None, live=None,
                    progress_hook=None) -> SupervisedRun:
    """Run every cell under supervision; never raises for cell failures.

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
    callable invoked in the supervisor process for every progress /
    telemetry message (``hook(kind, payload)`` with kind ``"progress"``
    or ``"telemetry"``).  Fleet workers use it to renew their point
    lease per frame; passing a hook enables per-frame telemetry in the
    workers even when no ``live`` aggregator is attached.  Hook
    exceptions propagate — a fleet worker that cannot renew its lease
    must not keep rendering.
    """
    cells = coerce_cells(cells)
    config = config or GpuConfig.benchmark()
    policy = policy or SupervisorPolicy()
    if fault_spec is None:
        fault_spec = os.environ.get(FAULT_ENV_VAR) or None
    fault = (
        FaultSpec.parse(fault_spec)
        if isinstance(fault_spec, str) else fault_spec
    )
    width = 1 if processes in (None, 0) else max(1, int(processes))
    width = min(width, len(cells)) if cells else 1

    own_workdir = workdir is None and policy.checkpoint_stride > 0
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-supervise-")
    if workdir is not None:
        os.makedirs(workdir, exist_ok=True)

    many = len(cells) > 1
    pending: list = []
    try:
        for index, cell in enumerate(cells):
            cell_config = cell.config or config
            ckpt_path = None
            if workdir is not None and policy.checkpoint_stride > 0:
                exact = "-exact" if cell.exact_signatures else ""
                ckpt_path = os.path.join(
                    workdir,
                    f"{cell.alias}-{cell.technique}-f{cell.num_frames}{exact}"
                    f"-{cell_config.digest()[:8]}.ckpt",
                )
            pending.append(_CellState(
                cell, cell_config, ckpt_path,
                trace_path=per_cell_path(trace_path, cell, index, many),
                metrics_path=per_cell_path(metrics_path, cell, index, many),
            ))
        ensure_unique_paths([s.trace_path for s in pending], "trace")
        ensure_unique_paths([s.metrics_path for s in pending], "metrics")
        ensure_unique_paths([s.ckpt_path for s in pending], "checkpoint")
    except ReproError:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        raise
    for state in pending:
        if state.metrics_path is not None:
            # Attempts append; start each supervised run from a clean log.
            open(state.metrics_path, "w", encoding="utf-8").close()

    ctx = _mp_context()
    journal = RunJournal(journal_path)
    journal.append(
        "run_start", cells=len(cells), processes=width,
        config_digest=config.digest(),
        policy=dataclasses.asdict(policy),
        fault=str(fault) if fault else None,
    )

    workers: list = []     # live _Worker records, in spawn order
    outcomes: dict = {}    # Cell -> CellOutcome
    live_enabled = live is not None or progress_hook is not None

    def spawn() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
        )
        process.start()
        child_conn.close()
        workers.append(_Worker(process, parent_conn))
        return workers[-1]

    def launch(worker: _Worker, state: _CellState) -> None:
        state.attempt += 1
        worker.conn.send(
            ("attempt", state, policy.checkpoint_stride, fault, live_enabled)
        )
        worker.state, worker.alias = state, state.cell.alias
        worker.deadline = (
            time.monotonic() + policy.timeout_s
            if policy.timeout_s else None
        )
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
        """Hand eligible cells to free workers, forking up to ``width``;
        the pairing rule is the one in the docstring above."""
        now = time.monotonic()
        busy = {w.state.cell.alias for w in workers if w.state is not None}
        while True:
            eligible = [s for s in pending if s.next_eligible <= now]
            if not eligible:
                return
            free = [w for w in workers if w.state is None]
            if not free:
                if len(workers) >= width:
                    return
                free = [spawn()]
            worker, state = min(
                ((w, s) for w in free for s in eligible),
                key=lambda pair: (pair[1].cell.alias != pair[0].alias,
                                  pair[1].cell.alias in busy),
            )
            pending.remove(state)
            busy.add(state.cell.alias)
            launch(worker, state)

    def next_timeout() -> float:
        """Seconds until the nearest deadline (``None`` = none): a busy
        worker's attempt timeout, a backing-off cell's eligibility while
        a worker is free for it, the live aggregator's next tick."""
        busy = [w for w in workers if w.state is not None]
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        if pending and len(busy) < width:
            deadlines.append(min(s.next_eligible for s in pending))
        timeout = (
            max(0.0, min(deadlines) - time.monotonic()) if deadlines
            else None
        )
        tick = live.seconds_until_tick() if live is not None else None
        if tick is not None:
            timeout = tick if timeout is None else min(timeout, tick)
        return timeout

    def retire(worker: _Worker, terminate: bool = False) -> None:
        """Reap a stopped or dead (or, with ``terminate``, an overdue)
        worker; the next dispatch forks a replacement if one is needed."""
        workers.remove(worker)
        if terminate:
            worker.process.terminate()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():        # pragma: no cover - safety net
            worker.process.kill()
            worker.process.join()

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

    def drain(worker: _Worker):
        """Pull queued messages; returns the attempt's reply, ``("eof",)``
        on a dead pipe, or ``None`` while there is none.  Progress and
        telemetry records are routed in passing."""
        while True:
            try:
                if not worker.conn.poll():
                    return None
                message = worker.conn.recv()
            except (EOFError, OSError):
                return ("eof",)
            if message[0] == "telemetry":
                if live is not None:
                    live.update(message)
                if progress_hook is not None:
                    progress_hook("telemetry", message[1])
                continue
            if message[0] != "progress":
                return message
            frames = int(message[1])
            if progress_hook is not None:
                progress_hook("progress", frames)
            if (worker.state.ckpt_path is not None
                    and frames < worker.state.cell.num_frames):
                worker.state.checkpoint_frame = frames

    try:
        while pending or any(w.state is not None for w in workers):
            dispatch()
            timeout = next_timeout()
            if workers:
                wait([w.conn for w in workers], timeout=timeout)
            else:
                # Every cell is backing off and no worker is alive.
                time.sleep(timeout)
            if live is not None:
                live.tick()

            for worker in list(workers):
                state = worker.state
                message = drain(worker)
                if message is None:
                    if (worker.deadline is not None
                            and time.monotonic() >= worker.deadline):
                        retire(worker, terminate=True)
                        retry_or_fail(
                            state, "timeout", timeout_s=policy.timeout_s,
                        )
                    continue
                if message[0] == "eof":
                    # The worker died: mid-attempt, or (killed from
                    # outside) while free.
                    retire(worker)
                    if state is not None:
                        retry_or_fail(
                            state, "crash", exitcode=worker.process.exitcode,
                        )
                    continue
                worker.state = worker.deadline = None
                if message[0] == "ok":
                    succeed(state, message[1], int(message[2]))
                else:
                    retry_or_fail(state, "error", error=message[1])

        journal.append(
            "run_complete",
            succeeded=sum(1 for o in outcomes.values() if o.succeeded),
            failed=sum(1 for o in outcomes.values() if not o.succeeded),
        )
    finally:
        for worker in list(workers):
            if worker.state is None:
                try:
                    worker.conn.send(("stop",))
                except OSError:
                    pass
            retire(worker, terminate=worker.state is not None)
        journal.close()
        if live is not None:
            live.close()
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    # Key outcomes in the caller's cell order.
    ordered = {cell: outcomes[cell] for cell in cells}
    return SupervisedRun(
        outcomes=ordered, records=journal.records, journal_path=journal_path,
    )
