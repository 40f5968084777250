"""Run workloads under techniques and collect per-frame metrics.

This is the experiment driver the paper's evaluation flows through: it
renders N frames of a benchmark on a simulated GPU with a chosen
technique, converts activity to cycles and energy, and records per-tile
color checksums (and input signatures for RE runs) so the tile-level
analyses of Figs. 2 and 15a are *measured* from rendered output.

The heavy lifting lives in :class:`repro.engine.session.RenderSession`;
this module drives it, adds checkpoint/resume plumbing and the JSON run
manifest, and packages the outcome as a :class:`RunResult`.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from ..config import GpuConfig
from ..engine.factory import TECHNIQUES, make_technique
from ..engine.session import FrameMetrics, RenderSession, tile_color_crcs

__all__ = [
    "TECHNIQUES",
    "FrameMetrics",
    "RunResult",
    "make_technique",
    "result_from_session",
    "run_workload",
    "tile_color_crcs",
]


@dataclasses.dataclass
class RunResult:
    """A complete benchmark run: one game, one technique."""

    alias: str
    technique: str
    config: GpuConfig
    num_frames: int
    frames: list
    tile_color_crcs: np.ndarray            # (frames, tiles) uint32
    tile_input_sigs: np.ndarray = None     # (frames, tiles) uint32, RE only
    final_frame_crc: int = 0
    technique_stats: object = None
    #: End-of-run cumulative value of every StatsRegistry counter
    #: (``"raster.tiles_skipped"``...), the cross-run diffable view the
    #: registry manifests record; ``None`` on results rebuilt from
    #: sources that never sampled the registry.
    counters: dict = None
    #: Frames that cannot match a reference signature: the Signature
    #: Buffer needs ``compare_distance`` complete banks of history before
    #: its first valid comparison, so that many leading frames always
    #: render in full.
    warmup_frames: int = 2

    # Aggregates ----------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        return sum(f.cycles.total_cycles for f in self.frames)

    @property
    def geometry_cycles(self) -> float:
        return sum(f.cycles.geometry_cycles for f in self.frames)

    @property
    def raster_cycles(self) -> float:
        return sum(f.cycles.raster_cycles for f in self.frames)

    @property
    def total_energy_nj(self) -> float:
        return sum(f.energy.total_nj for f in self.frames)

    @property
    def gpu_energy_nj(self) -> float:
        return sum(f.energy.gpu_nj for f in self.frames)

    @property
    def dram_energy_nj(self) -> float:
        return sum(f.energy.dram_nj for f in self.frames)

    @property
    def fragments_shaded(self) -> int:
        return sum(f.fragments_shaded for f in self.frames)

    @property
    def fragments_rasterized(self) -> int:
        return sum(f.fragments_rasterized for f in self.frames)

    @property
    def tiles_skipped(self) -> int:
        return sum(f.tiles_skipped for f in self.frames)

    def traffic_bytes(self, stream: str) -> int:
        return sum(f.traffic.get(stream, 0) for f in self.frames)

    @property
    def total_traffic_bytes(self) -> int:
        return sum(sum(f.traffic.values()) for f in self.frames)

    def skipped_fraction(self, warmup: int = None) -> float:
        """Fraction of tiles skipped, ignoring the warm-up frames that
        cannot match (no reference bank yet).  ``warmup`` defaults to
        :attr:`warmup_frames`, which the harness derives from the
        configured signature compare distance."""
        if warmup is None:
            warmup = self.warmup_frames
        frames = self.frames[warmup:]
        if not frames:
            return 0.0
        total = len(frames) * self.config.num_tiles
        return sum(f.tiles_skipped for f in frames) / total


def _write_manifest(path, session: RenderSession, result: RunResult,
                    resumed_at: int, checkpoint_path) -> None:
    """JSON run manifest: what ran, from where, and the headline numbers."""
    manifest = {
        "alias": session.alias,
        "technique": session.technique_name,
        "num_frames": session.num_frames,
        "frames_rendered_this_run": session.num_frames - resumed_at,
        "resumed_from_frame": resumed_at if resumed_at else None,
        "checkpoint_path": str(checkpoint_path) if checkpoint_path else None,
        "exact_signatures": session.exact_signatures,
        "warmup_frames": result.warmup_frames,
        "final_frame_crc": result.final_frame_crc,
        "total_cycles": result.total_cycles,
        "total_energy_nj": result.total_energy_nj,
        "total_traffic_bytes": result.total_traffic_bytes,
        "tiles_skipped": result.tiles_skipped,
        "skipped_fraction": result.skipped_fraction(),
        "config": session.config.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def result_from_session(session: RenderSession) -> RunResult:
    """Package a completed :class:`RenderSession` as a :class:`RunResult`."""
    return RunResult(
        alias=session.alias,
        technique=session.technique_name,
        config=session.config,
        num_frames=session.num_frames,
        frames=session.frames,
        tile_color_crcs=session.color_crcs,
        tile_input_sigs=session.input_sigs,
        final_frame_crc=session.final_frame_crc,
        technique_stats=getattr(session.technique, "stats", None),
        counters=dict(session.gpu.stats_registry.snapshot()),
        warmup_frames=session.config.signature_compare_distance,
    )


def run_workload(alias: str, technique: str = "baseline",
                 config: GpuConfig = None, num_frames: int = 50,
                 exact_signatures: bool = False,
                 resume_from=None, checkpoint_at: int = None,
                 checkpoint_path=None, manifest_path=None,
                 trace_path=None, metrics_path=None,
                 live=None, session: RenderSession = None, tracer=None,
                 metrics_mode: str = "w", header_fields: dict = None,
                 checkpoint_stride: int = 0, after_step=None) -> RunResult:
    """Render ``num_frames`` of a benchmark under a technique.

    The one body every entry point executes a cell through: ``repro
    run``, the serial path of :func:`~repro.harness.parallel.run_cells`,
    the supervisor's attempts and the service's
    :func:`~repro.service.pool.execute_job` all call it.  NumPy's global
    generator is reseeded from the run's identity
    (:func:`~repro.harness.parallel.cell_seed`) before the first frame,
    so a result is a pure function of the cell, whatever the process
    rendered before.

    ``session`` hands in an already-built engine (a warm one from
    :class:`~repro.service.pool.WarmEnginePool`); ``alias``,
    ``technique``, ``config``, ``num_frames`` and ``exact_signatures``
    are then ignored.

    Observability (:mod:`repro.obs`):

    * ``trace_path`` — record span/instant events for every frame and
      write Chrome trace-event JSON there (Perfetto-loadable).  The
      trace is written even if the run raises, so a failed run still
      leaves its timeline behind.
    * ``tracer`` — a caller-owned tracer to record into instead.  Spans
      the caller opened on it stay open on success; every open span is
      closed if the run raises.
    * ``metrics_path`` — sample every registry counter at each frame
      boundary into a JSONL per-frame metrics log there (the input to
      ``python -m repro report``).  ``metrics_mode="a"`` appends, so
      retried attempts share one log.
    * ``header_fields`` — caller context stamped into the trace metadata
      and the metrics header (the supervisor's cell/attempt ids).
    * ``live`` — a :class:`~repro.obs.live.LiveSink` receiving a
      per-frame progress callback (see :mod:`repro.obs.live`); falsy
      sinks cost one truthiness check per frame.

    Checkpoint/resume:

    * ``resume_from`` — path to (or state dict of) a checkpoint written
      by an earlier run; the session continues from the frame after the
      checkpoint and the combined result is bit-identical to an
      uninterrupted run.
    * ``checkpoint_at`` — write a checkpoint to ``checkpoint_path``
      after that many frames, then keep rendering to completion.
    * ``checkpoint_stride`` — write a checkpoint to ``checkpoint_path``
      (when given) every that many frames, calling
      ``after_step(frames_rendered)`` after each stride boundary; the
      supervisor reports progress and injects faults there.
    * ``manifest_path`` — write a JSON manifest describing the run.
    """
    if checkpoint_at is not None and checkpoint_path is None:
        raise ValueError("checkpoint_at requires checkpoint_path")
    metrics = None
    if trace_path is not None and tracer is None:
        from ..obs import TraceRecorder

        tracer = TraceRecorder()
    if metrics_path is not None:
        from ..obs import MetricsLog

        metrics = MetricsLog(metrics_path, mode=metrics_mode)

    if session is None and resume_from is not None:
        session = RenderSession.from_checkpoint(resume_from, config=config)
    elif session is None:
        session = RenderSession(
            alias, technique=technique, config=config,
            num_frames=num_frames, exact_signatures=exact_signatures,
        )
    resumed_at = session.frames_rendered
    session.attach_observability(
        tracer=tracer, metrics=metrics, live=live,
        header_fields=header_fields,
    )
    from .parallel import Cell, cell_seed  # parallel imports this module

    np.random.seed(cell_seed(Cell(
        session.alias, session.technique_name, session.num_frames,
        session.exact_signatures,
    )))

    done = False
    try:
        if checkpoint_at is not None:
            session.run(until=checkpoint_at)
            session.save(checkpoint_path)
        session.run_checkpointed(checkpoint_stride, checkpoint_path,
                                 after_step)
        done = True
    finally:
        if tracer is not None and not done:
            tracer.close_open_spans()
        if trace_path is not None:
            tracer.write(trace_path)
        if metrics is not None:
            metrics.close()
        if live:
            live.finish(ok=done)

    result = result_from_session(session)
    if manifest_path is not None:
        _write_manifest(
            manifest_path, session, result, resumed_at, checkpoint_path
        )
    return result
