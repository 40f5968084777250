"""Harness cells and their one entry point, :func:`run_cells`.

A *cell* is one independent (workload, technique) simulation —
:func:`repro.harness.runner.run_workload` with fixed arguments.  Cells
share no simulator state (each builds its own scene and GPU), so a run
matrix parallelizes trivially across worker processes; the suite, the
experiment cache and sweeps all fan out through :func:`run_cells`.

Determinism: every cell derives a seed from its own identity
(:func:`cell_seed`), and :func:`~repro.harness.runner.run_workload`
reseeds NumPy's legacy global generator from it before rendering, so a
cell's result is a pure function of the cell — identical whether it
runs serially, in any worker, or in any order.  (Workload
content already uses explicit per-scene generators; the reseeding
guards any library code that reaches for global randomness.)

``processes`` in ``(None, 0, 1)`` with no supervision argument runs
cells serially in-process (sharing the caller's raster and tile memos
— fastest on single-core machines).  Every other run goes through
:func:`repro.harness.supervisor.supervise_cells`, the one runner that
uses worker processes: persistent workers with crash isolation, and
per-cell timeouts, retries with backoff and checkpoint recovery as
policy, every attempt recorded in a JSONL run journal.
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


def run_cells(cells: typing.Sequence, config: GpuConfig = None,
              processes: int = None, policy=None, journal_path=None,
              fault_spec=None, workdir=None, trace_path=None,
              metrics_path=None, live=None) -> dict:
    """Run every cell, returning ``{cell: RunResult}``.

    ``processes`` > 1 fans cells across that many worker processes (at
    most one per cell); ``None``/``0``/``1`` runs serially in-process.
    Results are keyed by cell regardless of completion order, so callers
    see the same mapping either way.

    ``trace_path`` / ``metrics_path`` record per-run observability
    (:mod:`repro.obs`) for every cell; with more than one cell the
    paths are suffixed per cell, the same scheme the supervisor uses.
    Derived paths are checked for collisions up front — two cells whose
    sanitized names map to the same file raise instead of overwriting
    each other.

    ``live`` accepts a :class:`~repro.obs.live.LiveAggregator`: cells
    stream per-frame progress/counters to it and it maintains the
    status table + ``live.json`` heartbeat while they run.

    Worker runs go through
    :func:`~repro.harness.supervisor.supervise_cells`.  Passing any of
    ``policy`` (a :class:`~repro.harness.supervisor.SupervisorPolicy`),
    ``journal_path`` or ``fault_spec`` applies that policy (the default
    one when only a journal or fault is given), even serially; a plain
    multi-process run gets no retries.  Cells that still fail raise
    :class:`SupervisionError` (successful cells' results are attached
    to the exception).
    """
    cells = coerce_cells(cells)
    config = config or GpuConfig.benchmark()

    unsupervised = (
        policy is None and journal_path is None and fault_spec is None
    )
    if unsupervised and (processes in (None, 0, 1) or len(cells) <= 1):
        return _run_serial(cells, config, trace_path, metrics_path, live)
    from .supervisor import SupervisorPolicy, supervise_cells

    return supervise_cells(
        cells, config=config,
        policy=SupervisorPolicy(max_retries=0) if unsupervised else policy,
        processes=processes,
        journal_path=journal_path, fault_spec=fault_spec,
        workdir=workdir, trace_path=trace_path,
        metrics_path=metrics_path, live=live,
    ).raise_on_failure().results()


def _run_serial(cells: list, config: GpuConfig, trace_path, metrics_path,
                live) -> dict:
    """In-process body of :func:`run_cells`; live telemetry posts
    straight to the aggregator."""
    many = len(cells) > 1
    trace_paths = [per_cell_path(trace_path, cell, index, many)
                   for index, cell in enumerate(cells)]
    metrics_paths = [per_cell_path(metrics_path, cell, index, many)
                     for index, cell in enumerate(cells)]
    ensure_unique_paths(trace_paths, "trace")
    ensure_unique_paths(metrics_paths, "metrics")
    if live is not None:
        from ..obs.live import ChannelLiveSink
    results = {}
    try:
        for cell, cell_trace, cell_metrics in zip(cells, trace_paths,
                                                  metrics_paths):
            sink = (ChannelLiveSink(live, cell_label(cell))
                    if live is not None else None)
            results[cell] = run_workload(
                cell.alias, cell.technique, config=cell.config or config,
                num_frames=cell.num_frames,
                exact_signatures=cell.exact_signatures,
                trace_path=cell_trace, metrics_path=cell_metrics,
                live=sink,
            )
    finally:
        if live is not None:
            live.close()
    return results


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
