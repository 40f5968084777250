"""Supervised, fault-tolerant experiment orchestration.

:func:`supervise_cells` runs a matrix of independent harness cells the
way a production fleet would: every *attempt* of every cell executes in
its own child process, so a crashed or wedged simulation loses only that
cell — never the run.  The supervisor adds, on top of the bare process
pool in :mod:`repro.harness.parallel`:

* **per-cell wall-clock timeouts** — an attempt that exceeds
  ``SupervisorPolicy.timeout_s`` is terminated and treated like a crash;
* **bounded retry with exponential backoff** — a failed cell is retried
  up to ``max_retries`` times, waiting
  ``backoff_base_s * backoff_factor**(attempt-1)`` (capped at
  ``backoff_max_s``) between attempts;
* **crash detection** — a worker that dies without reporting (killed,
  segfault, ``os._exit``) is detected by its closed result pipe and
  exit code, and only its cell is rescheduled;
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
* ``error`` — the worker raises an :class:`InjectedFault`;
* ``hang``  — the worker sleeps forever, tripping the timeout.

Because the fault fires *after* the boundary's checkpoint is on disk,
the retry demonstrably resumes mid-run rather than restarting.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import multiprocessing.connection
import os
import shutil
import tempfile
import time
import typing

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
    #: First backoff delay; grows by ``backoff_factor`` per failure.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    #: Frames between worker checkpoints; 0 disables mid-run checkpoints
    #: (retries then restart the cell from frame 0).
    checkpoint_stride: int = 0
    #: Parent poll granularity; bounds timeout-detection latency.
    poll_interval_s: float = 0.02

    def backoff(self, failed_attempt: int) -> float:
        """Delay before the attempt following ``failed_attempt`` (1-based)."""
        delay = self.backoff_base_s * self.backoff_factor ** (failed_attempt - 1)
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

def _attempt_main(conn, cell: Cell, config: GpuConfig,
                  policy: SupervisorPolicy, attempt: int, ckpt_path,
                  fault: FaultSpec, trace_path=None,
                  metrics_path=None, live_enabled: bool = False) -> None:
    """Child body: run (or resume) one cell, reporting over ``conn``.

    Messages: ``("progress", frames_rendered)`` after every stride
    boundary (its checkpoint, if any, is already on disk), then exactly
    one of ``("ok", RunResult, resumed_from_frame)`` or
    ``("error", description)``.  A crash sends nothing — the parent
    reads the EOF and the exit code instead.  With ``live_enabled`` the
    same pipe also carries ``("telemetry", {...})`` records — one per
    rendered frame — which the parent routes to its
    :class:`~repro.obs.live.LiveAggregator`.

    Observability: ``trace_path`` records a Chrome trace for this
    attempt (rewritten per attempt, metadata stamped with the cell,
    attempt number and resume frame, so the journal's ``attempt_start``
    records correlate with the trace that survived); ``metrics_path`` is
    appended to across attempts — each attempt contributes its own
    stamped header and the frames it rendered, flushed per record so
    even a crashed attempt leaves its completed frames on disk.
    """
    try:
        state = try_load_checkpoint(ckpt_path)
        resumed_from = len(state["frames"]) if state is not None else 0
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
            cell.alias, cell.technique, config=config,
            num_frames=cell.num_frames,
            exact_signatures=cell.exact_signatures, resume_from=state,
            checkpoint_path=ckpt_path,
            checkpoint_stride=policy.checkpoint_stride,
            after_step=after_step, trace_path=trace_path,
            metrics_path=metrics_path, metrics_mode="a", live=live,
            header_fields={
                "cell": cell_label(cell),
                "attempt": attempt,
                "resumed_from_frame": resumed_from,
            },
        )
        conn.send(("ok", result, resumed_from))
    except BaseException as exc:  # noqa: BLE001 - report, then die quietly
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Supervisor side (parent process)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _CellState:
    """Parent-side bookkeeping for one cell across attempts."""

    cell: Cell
    config: GpuConfig
    ckpt_path: object = None
    trace_path: object = None
    metrics_path: object = None
    attempt: int = 0
    next_eligible: float = 0.0
    #: Last frame a checkpoint is known to exist for (this run).
    checkpoint_frame: int = 0


@dataclasses.dataclass
class _Active:
    """One in-flight attempt."""

    state: _CellState
    process: object
    conn: object
    deadline: float = None


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
    still fully supervised, one isolated worker at a time).  ``workdir``
    holds the per-cell recovery checkpoints; if omitted a temporary
    directory is used and removed afterwards.  In a caller-provided
    ``workdir``, checkpoints of cells that never succeed are *kept*, so
    re-running the same matrix resumes them; a successful cell's
    checkpoint is always deleted.

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
    its result pipe, and the aggregator renders a periodic status table,
    writes its ``live.json`` heartbeat, and flags stalled workers —
    *before* the timeout kill fires, since its stall threshold is
    independent of (and should be below) ``policy.timeout_s``.

    ``progress_hook`` is a lower-level tap on the same stream: a
    callable invoked in the supervisor process for every progress /
    telemetry message (``hook(kind, payload)`` with kind ``"progress"``
    or ``"telemetry"``).  Fleet workers use it to renew their point
    lease per frame; passing a hook enables per-frame telemetry in the
    children even when no ``live`` aggregator is attached.  Hook
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

    active: dict = {}      # id(_CellState) -> _Active
    outcomes: dict = {}    # Cell -> CellOutcome

    def launch(state: _CellState) -> None:
        state.attempt += 1
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_attempt_main,
            args=(child_conn, state.cell, state.config, policy,
                  state.attempt, state.ckpt_path, fault,
                  state.trace_path, state.metrics_path,
                  live is not None or progress_hook is not None),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + policy.timeout_s
            if policy.timeout_s else None
        )
        active[id(state)] = _Active(state, process, parent_conn, deadline)
        extra = {}
        if state.trace_path is not None:
            extra["trace"] = str(state.trace_path)
        if state.metrics_path is not None:
            extra["metrics"] = str(state.metrics_path)
        journal.append(
            "attempt_start", cell=cell_label(state.cell),
            attempt=state.attempt, resume_frame=state.checkpoint_frame,
            num_frames=state.cell.num_frames, pid=process.pid, **extra,
        )

    def reap(entry: _Active) -> None:
        try:
            entry.conn.close()
        except OSError:
            pass
        entry.process.join(timeout=5)
        if entry.process.is_alive():        # pragma: no cover - safety net
            entry.process.kill()
            entry.process.join()

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

    def drain(entry: _Active):
        """Pull queued messages; returns the final message, ``("eof",)``
        on a dead pipe, or ``None`` while the attempt is still going.
        Telemetry records are routed to the live aggregator in passing."""
        while True:
            try:
                if not entry.conn.poll():
                    return None
                message = entry.conn.recv()
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
            if (entry.state.ckpt_path is not None
                    and frames < entry.state.cell.num_frames):
                entry.state.checkpoint_frame = frames

    try:
        while pending or active:
            now = time.monotonic()

            # Launch every eligible pending cell while there is room.
            while len(active) < width:
                eligible = [s for s in pending if s.next_eligible <= now]
                if not eligible:
                    break
                state = eligible[0]
                pending.remove(state)
                launch(state)

            if not active:
                # Everything pending is backing off; sleep to eligibility.
                wake = min(s.next_eligible for s in pending)
                time.sleep(max(0.0, min(wake - time.monotonic(),
                                        policy.poll_interval_s)))
                continue

            # Wait for worker traffic (bounded so deadlines stay live).
            wait_s = policy.poll_interval_s
            deadlines = [a.deadline for a in active.values() if a.deadline]
            if deadlines:
                wait_s = min(wait_s, max(0.0, min(deadlines) - now))
            multiprocessing.connection.wait(
                [a.conn for a in active.values()], timeout=wait_s
            )
            if live is not None:
                live.tick()

            for key in list(active):
                entry = active[key]
                state = entry.state
                message = drain(entry)
                if message is None:
                    if (entry.deadline is not None
                            and time.monotonic() >= entry.deadline):
                        entry.process.terminate()
                        reap(entry)
                        del active[key]
                        retry_or_fail(
                            state, "timeout", timeout_s=policy.timeout_s,
                        )
                    continue
                reap(entry)
                del active[key]
                if message[0] == "ok":
                    succeed(state, message[1], int(message[2]))
                elif message[0] == "error":
                    retry_or_fail(state, "error", error=message[1])
                else:  # eof: worker died without reporting
                    retry_or_fail(
                        state, "crash", exitcode=entry.process.exitcode,
                    )

        journal.append(
            "run_complete",
            succeeded=sum(1 for o in outcomes.values() if o.succeeded),
            failed=sum(1 for o in outcomes.values() if not o.succeeded),
        )
    finally:
        for entry in active.values():       # pragma: no cover - safety net
            entry.process.terminate()
            reap(entry)
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
