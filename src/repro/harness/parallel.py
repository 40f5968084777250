"""Process-pool harness runner: fan independent cells across workers.

A *cell* is one independent (workload, technique) simulation —
:func:`repro.harness.runner.run_workload` with fixed arguments.  Cells
share no simulator state (each builds its own scene and GPU), so a run
matrix parallelizes trivially across ``multiprocessing`` workers; the
suite and the experiment cache both fan out through :func:`run_cells`.

Determinism: every cell derives a seed from its own identity
(:func:`cell_seed`), and :func:`~repro.harness.runner.run_workload`
reseeds NumPy's legacy global generator from it before rendering, so a
cell's result is a pure function of the cell — identical whether it
runs serially, in any worker, or in any order.  (Workload
content already uses explicit per-scene generators; the reseeding
guards any library code that reaches for global randomness.)

``processes`` in ``(None, 0, 1)`` selects the serial fallback, which
runs cells in-process (and therefore shares the in-process raster and
tile memos — fastest on single-core machines).

Fault tolerance: the plain pool path assumes every worker succeeds — a
hung or crashed cell takes the whole ``pool.map`` down with it.  Passing
``policy`` (and/or ``journal_path`` / ``fault_spec``) routes the run
through :mod:`repro.harness.supervisor` instead: per-cell wall-clock
timeouts, bounded retry with exponential backoff, crash isolation, and
checkpoint-based recovery, with every attempt recorded in a JSONL run
journal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import typing

from ..config import GpuConfig
from ..errors import ReproError
from .runner import run_workload


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent unit of harness work.

    ``config`` optionally overrides the run-wide :class:`GpuConfig` for
    this cell alone (parameter sweeps fan out heterogeneous grids this
    way); ``None`` means "use the config the runner was given".
    ``tag``, when set, names the cell's per-cell artifacts (trace /
    metrics fan-out) instead of the positional ``-NN-alias-technique``
    scheme, and is its label in journals and live rows — sweeps tag
    points with their parameter assignment so neither is anonymous.
    """

    alias: str
    technique: str = "baseline"
    num_frames: int = 50
    exact_signatures: bool = False
    config: GpuConfig = None
    tag: str = None


def cell_seed(cell: Cell) -> int:
    """Deterministic 32-bit seed derived from the cell's identity.

    The per-cell config override is deliberately excluded: the seed
    covers what the cell *renders*, and reseeding exists only to guard
    stray global-randomness users, so sweep points of the same cell
    reseed identically.
    """
    digest = hashlib.sha256(
        f"{cell.alias}|{cell.technique}|{cell.num_frames}"
        f"|{cell.exact_signatures}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def cell_label(cell: Cell) -> str:
    """Human-readable cell identity used by journals and live rows: the
    cell's tag when it has one (sweep points), else ``alias/technique``."""
    return cell.tag or f"{cell.alias}/{cell.technique}"


def sanitize_component(text) -> str:
    """Filesystem-safe rendering of one artifact-name component.

    Anything outside ``[A-Za-z0-9._=-]`` collapses to ``_``.  Distinct
    inputs *can* sanitize to the same name — path-derivation call sites
    guard with :func:`ensure_unique_paths` so a collision raises instead
    of silently overwriting another cell's artifacts.
    """
    return re.sub(r"[^A-Za-z0-9._=-]", "_", str(text))


def per_cell_path(base, cell: Cell, index: int, many: bool):
    """Derive a per-cell artifact path (trace/metrics) from a base path.

    One untagged cell uses the base path verbatim; a matrix suffixes the
    stem with the cell's position and label (the index disambiguates
    points that share alias/technique across configs).  A *tagged* cell
    always uses its sanitized tag — sweeps name points after their
    parameter assignment this way."""
    if base is None:
        return None
    base = os.fspath(base)
    root, ext = os.path.splitext(base)
    if cell.tag is not None:
        return f"{root}-{sanitize_component(cell.tag)}{ext}"
    if not many:
        return base
    alias = sanitize_component(cell.alias)
    technique = sanitize_component(cell.technique)
    return f"{root}-{index:02d}-{alias}-{technique}{ext}"


def ensure_unique_paths(paths: typing.Sequence, what: str = "artifact") -> None:
    """Raise if any two derived artifact paths collide.

    Fan-out writes one trace/metrics file per cell; two cells mapping to
    the same path (sanitized tags or labels colliding) would silently
    overwrite each other, so that is an error, not a warning.
    """
    seen: dict = {}
    for path in paths:
        if path is None:
            continue
        if path in seen:
            raise ReproError(
                f"{what} path collision: {path!r} is derived by more than "
                "one cell (sanitized names collide); rename the colliding "
                "points or write to distinct stems"
            )
        seen[path] = True


def coerce_cells(cells: typing.Sequence) -> list:
    """Normalize a cell sequence: tuples become :class:`Cell`, duplicate
    cells collapse (keeping first-seen order) so result dicts keyed by
    cell cannot silently drop work."""
    coerced = [c if isinstance(c, Cell) else Cell(*c) for c in cells]
    return list(dict.fromkeys(coerced))


#: Telemetry queue a pool worker posts to; installed per worker process
#: by :func:`_pool_live_init` (queues travel to pool workers through the
#: initializer, not through pickled map payloads).
_LIVE_CHANNEL = None


def _pool_live_init(queue) -> None:
    global _LIVE_CHANNEL
    _LIVE_CHANNEL = queue


def _run_cell(payload: tuple, live=None) -> tuple:
    """Worker body: run one cell; returns ``(cell, RunResult)``.

    Live telemetry posts to ``live`` (the aggregator itself, on the
    serial path) or else to the queue this pool worker was given."""
    cell, config, trace_path, metrics_path = payload
    channel = live if live is not None else _LIVE_CHANNEL
    sink = None
    if channel is not None:
        from ..obs.live import ChannelLiveSink

        sink = ChannelLiveSink(channel, cell_label(cell))
    result = run_workload(
        cell.alias, cell.technique, config=cell.config or config,
        num_frames=cell.num_frames,
        exact_signatures=cell.exact_signatures,
        trace_path=trace_path, metrics_path=metrics_path, live=sink,
    )
    return cell, result


def run_cells(cells: typing.Sequence, config: GpuConfig = None,
              processes: int = None, policy=None, journal_path=None,
              fault_spec=None, workdir=None, trace_path=None,
              metrics_path=None, live=None) -> dict:
    """Run every cell, returning ``{cell: RunResult}``.

    ``processes`` > 1 fans cells across a process pool (capped at the
    machine's CPU count); ``None``/``0``/``1`` runs serially in-process.
    Results are keyed by cell regardless of completion order, so callers
    see the same mapping either way.

    ``trace_path`` / ``metrics_path`` record per-run observability
    (:mod:`repro.obs`) for every cell; with more than one cell the
    paths are suffixed per cell, the same scheme the supervisor uses.
    Derived paths are checked for collisions up front — two cells whose
    sanitized names map to the same file raise instead of overwriting
    each other.

    ``live`` accepts a :class:`~repro.obs.live.LiveAggregator`: workers
    stream per-frame progress/counters to it and it maintains the
    status table + ``live.json`` heartbeat while the pool runs.

    Passing any of ``policy`` (a
    :class:`~repro.harness.supervisor.SupervisorPolicy`),
    ``journal_path`` or ``fault_spec`` runs the cells under the
    fault-tolerant supervisor instead of the bare pool; cells that still
    fail after the policy's retries raise :class:`SupervisionError`
    (successful cells' results are attached to the exception).
    """
    cells = coerce_cells(cells)
    config = config or GpuConfig.benchmark()

    if policy is not None or journal_path is not None or fault_spec is not None:
        from .supervisor import supervise_cells

        return supervise_cells(
            cells, config=config, policy=policy, processes=processes,
            journal_path=journal_path, fault_spec=fault_spec,
            workdir=workdir, trace_path=trace_path,
            metrics_path=metrics_path, live=live,
        ).raise_on_failure().results()

    many = len(cells) > 1
    payloads = [
        (cell, config,
         per_cell_path(trace_path, cell, index, many),
         per_cell_path(metrics_path, cell, index, many))
        for index, cell in enumerate(cells)
    ]
    ensure_unique_paths([p[2] for p in payloads], "trace")
    ensure_unique_paths([p[3] for p in payloads], "metrics")
    if processes in (None, 0, 1) or len(cells) <= 1:
        try:
            return dict(_run_cell(payload, live) for payload in payloads)
        finally:
            if live is not None:
                live.close()

    import multiprocessing

    # Capped by the cell count only: requesting more workers than cores
    # merely timeslices, and single-core machines can still exercise the
    # pool path.
    workers = min(int(processes), len(cells))
    if live is None:
        with multiprocessing.Pool(workers) as pool:
            return dict(pool.map(_run_cell, payloads))

    queue = multiprocessing.Queue()
    try:
        with multiprocessing.Pool(
            workers, initializer=_pool_live_init, initargs=(queue,),
        ) as pool:
            async_result = pool.map_async(_run_cell, payloads)
            while not async_result.ready():
                _drain_live_queue(queue, live, timeout=0.1)
                live.tick()
            results = dict(async_result.get())
        _drain_live_queue(queue, live, timeout=0.0)
        return results
    finally:
        live.close()
        queue.close()


def _drain_live_queue(queue, live, timeout: float) -> None:
    """Forward queued worker telemetry to the aggregator."""
    import queue as queue_module

    while True:
        try:
            message = queue.get(
                timeout=timeout) if timeout else queue.get_nowait()
        except (queue_module.Empty, OSError, EOFError):
            return
        live.update(message)
        timeout = 0.0


def run_matrix(aliases: typing.Sequence, techniques: typing.Sequence,
               config: GpuConfig = None, num_frames: int = 50,
               processes: int = None, policy=None, journal_path=None,
               fault_spec=None) -> dict:
    """Run the full ``aliases x techniques`` grid; returns a mapping
    ``(alias, technique) -> RunResult``."""
    cells = [
        Cell(alias, technique, num_frames)
        for alias in aliases for technique in techniques
    ]
    results = run_cells(
        cells, config=config, processes=processes, policy=policy,
        journal_path=journal_path, fault_spec=fault_spec,
    )
    return {
        (cell.alias, cell.technique): run for cell, run in results.items()
    }


def merged_totals(results: dict) -> dict:
    """Aggregate stats across a :func:`run_matrix` result, per technique.

    Returns ``{technique: {cells, frames, total_cycles, total_energy_nj,
    fragments_shaded, tiles_skipped, traffic_bytes}}`` — the merged view
    a fleet of workers reports back to the suite.
    """
    merged: dict = {}
    for (_, technique), run in results.items():
        bucket = merged.setdefault(technique, {
            "cells": 0, "frames": 0, "total_cycles": 0,
            "total_energy_nj": 0.0, "fragments_shaded": 0,
            "tiles_skipped": 0, "traffic_bytes": 0,
        })
        bucket["cells"] += 1
        bucket["frames"] += run.num_frames
        bucket["total_cycles"] += run.total_cycles
        bucket["total_energy_nj"] += run.total_energy_nj
        bucket["fragments_shaded"] += run.fragments_shaded
        bucket["tiles_skipped"] += run.tiles_skipped
        bucket["traffic_bytes"] += run.total_traffic_bytes
    return merged
