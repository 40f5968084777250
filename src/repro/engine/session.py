"""RenderSession: an owned, resumable simulation run.

Bundles the pieces a benchmark run needs — a :class:`~repro.pipeline.Gpu`
with its technique, a :class:`~repro.timing.TimingModel`, an
:class:`~repro.power.EnergyModel`, and the per-frame
:class:`FrameMetrics` accumulated so far — behind a frame-at-a-time
:meth:`RenderSession.run` loop.

The session is *checkpointable*: :meth:`RenderSession.checkpoint`
captures every piece of cross-frame state (framebuffer banks, signature
buffers, technique state, DRAM pressure, traffic and cache totals, the
stage counters, the metrics rendered so far) into a versioned,
pickle-free state dict, and
:meth:`RenderSession.from_checkpoint` rebuilds a session that continues
bit-identically — the acceptance test renders frames ``k..N`` after a
restore and compares FrameStats, per-tile CRCs and the final frame CRC
against an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np

from ..config import GpuConfig
from ..errors import CheckpointError
from ..pipeline import Gpu
from ..power import EnergyBreakdown, EnergyModel, technique_event_counts
from ..timing import CycleBreakdown, TimingModel
from ..workloads.games import build_scene
from .checkpoint import load_checkpoint, save_checkpoint
from .factory import make_technique


@dataclasses.dataclass
class FrameMetrics:
    """Per-frame digest of a rendered frame."""

    cycles: CycleBreakdown
    energy: EnergyBreakdown
    tiles_skipped: int
    flushes_suppressed: int
    fragments_rasterized: int
    fragments_shaded: int
    fragments_memoized: int
    traffic: dict
    geometry_overhead_cycles: int
    raster_overhead_cycles: int


def tile_color_crcs(config: GpuConfig, frame_colors: np.ndarray,
                    tile_rect) -> np.ndarray:
    """Per-tile CRC32 of a frame's RGBA8-quantized colors.

    The interior (full-sized) tiles are extracted with one reshape into a
    ``(ty, tx, size, size, 4)`` block array and CRC'd per contiguous
    block — zlib reads the buffer directly, no per-tile slice-and-copy.
    Edge tiles clipped by the screen keep the per-tile slicing path.
    The CRCs are byte-for-byte those of the sliced reference (regression
    tested against it).
    """
    quantized = (np.clip(frame_colors, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    size = config.tile_size
    tiles_x = config.tiles_x
    tiles_y = config.tiles_y
    full_x = config.screen_width // size
    full_y = config.screen_height // size
    crcs = np.empty(config.num_tiles, dtype=np.uint32)

    if full_x and full_y:
        blocks = np.ascontiguousarray(
            quantized[: full_y * size, : full_x * size]
            .reshape(full_y, size, full_x, size, 4)
            .swapaxes(1, 2)
        )
        crc32 = zlib.crc32
        for ty in range(full_y):
            row = blocks[ty]
            base = ty * tiles_x
            for tx in range(full_x):
                crcs[base + tx] = crc32(row[tx])

    if full_x < tiles_x or full_y < tiles_y:
        for ty in range(tiles_y):
            for tx in range(tiles_x):
                if tx < full_x and ty < full_y:
                    continue
                tile_id = ty * tiles_x + tx
                x0, y0, x1, y1 = tile_rect(tile_id)
                crcs[tile_id] = zlib.crc32(
                    np.ascontiguousarray(quantized[y0:y1, x0:x1]).tobytes()
                )
    return crcs


# ----------------------------------------------------------------------
# Breakdown (de)serialization for checkpoints: plain dicts of floats,
# which round-trip exactly through the JSON codec (repr preserves every
# bit of a finite double).
# ----------------------------------------------------------------------

def _cycles_to_dict(cycles: CycleBreakdown) -> dict:
    return {
        "geometry_cycles": cycles.geometry_cycles,
        "raster_cycles": cycles.raster_cycles,
        "geometry_parts": dict(cycles.geometry_parts),
        "raster_parts": dict(cycles.raster_parts),
    }


def _cycles_from_dict(data: dict) -> CycleBreakdown:
    return CycleBreakdown(
        geometry_cycles=data["geometry_cycles"],
        raster_cycles=data["raster_cycles"],
        geometry_parts=dict(data["geometry_parts"]),
        raster_parts=dict(data["raster_parts"]),
    )


def _energy_to_dict(energy: EnergyBreakdown) -> dict:
    return {
        "gpu_dynamic_nj": energy.gpu_dynamic_nj,
        "gpu_static_nj": energy.gpu_static_nj,
        "dram_dynamic_nj": energy.dram_dynamic_nj,
        "dram_static_nj": energy.dram_static_nj,
        "technique_nj": energy.technique_nj,
        "parts": dict(energy.parts),
    }


def _energy_from_dict(data: dict) -> EnergyBreakdown:
    return EnergyBreakdown(
        gpu_dynamic_nj=data["gpu_dynamic_nj"],
        gpu_static_nj=data["gpu_static_nj"],
        dram_dynamic_nj=data["dram_dynamic_nj"],
        dram_static_nj=data["dram_static_nj"],
        technique_nj=data["technique_nj"],
        parts=dict(data["parts"]),
    )


def _metrics_to_dict(metrics: FrameMetrics) -> dict:
    return {
        "cycles": _cycles_to_dict(metrics.cycles),
        "energy": _energy_to_dict(metrics.energy),
        "tiles_skipped": metrics.tiles_skipped,
        "flushes_suppressed": metrics.flushes_suppressed,
        "fragments_rasterized": metrics.fragments_rasterized,
        "fragments_shaded": metrics.fragments_shaded,
        "fragments_memoized": metrics.fragments_memoized,
        "traffic": dict(metrics.traffic),
        "geometry_overhead_cycles": metrics.geometry_overhead_cycles,
        "raster_overhead_cycles": metrics.raster_overhead_cycles,
    }


def _metrics_from_dict(data: dict) -> FrameMetrics:
    return FrameMetrics(
        cycles=_cycles_from_dict(data["cycles"]),
        energy=_energy_from_dict(data["energy"]),
        tiles_skipped=int(data["tiles_skipped"]),
        flushes_suppressed=int(data["flushes_suppressed"]),
        fragments_rasterized=int(data["fragments_rasterized"]),
        fragments_shaded=int(data["fragments_shaded"]),
        fragments_memoized=int(data["fragments_memoized"]),
        traffic={k: int(v) for k, v in data["traffic"].items()},
        geometry_overhead_cycles=int(data["geometry_overhead_cycles"]),
        raster_overhead_cycles=int(data["raster_overhead_cycles"]),
    )


class RenderSession:
    """One benchmark x technique run, owned end to end.

    ``session.run()`` renders every remaining frame;
    ``session.run(until=k)`` stops after frame ``k-1`` so the caller can
    :meth:`checkpoint`.  ``RenderSession.from_checkpoint`` resumes.
    """

    def __init__(self, alias: str, technique: str = "baseline",
                 config: GpuConfig = None, num_frames: int = 50,
                 exact_signatures: bool = False) -> None:
        self.alias = alias
        self.technique_name = technique
        self.config = config if config is not None else GpuConfig.benchmark()
        self.num_frames = num_frames
        self.exact_signatures = exact_signatures
        self.scene = build_scene(alias)
        self.technique = make_technique(
            technique, self.config, exact=exact_signatures
        )
        self.gpu = Gpu(self.config, self.technique)
        self.timing = TimingModel(self.config)
        self.energy_model = EnergyModel(self.config)
        self.metrics = None
        self.live = None

        self.frames: list = []          # FrameMetrics, one per frame
        self.frame_stats: list = []     # FrameStats, one per frame
        self._color_crcs: list = []     # (num_tiles,) uint32 per frame
        self._track_sigs = hasattr(self.technique, "current_signatures")
        self._input_sigs: list = [] if self._track_sigs else None
        self._events_before = technique_event_counts(self.technique)
        self.final_frame_crc = 0

    # Observability ------------------------------------------------------
    @property
    def tracer(self):
        """The GPU's tracer (falsy when tracing is disabled)."""
        return self.gpu.tracer

    def attach_observability(self, tracer=None, metrics=None,
                             header_fields: dict = None,
                             live=None) -> None:
        """Install a :class:`~repro.obs.Tracer`,
        :class:`~repro.obs.MetricsLog` and/or live-telemetry sink
        (:class:`~repro.obs.live.LiveSink`) on this session.

        The tracer receives the run's identity as trace metadata; the
        metrics log gets a header record describing the run (written
        once per log); the live sink receives a per-frame progress
        callback (falsy sinks cost one truthiness check per frame).
        ``header_fields`` adds caller context — the supervisor stamps
        attempt/retry ids this way so journals, traces and metrics logs
        correlate.  Passing ``None`` for any sink leaves it unchanged.
        """
        if tracer is not None:
            self.gpu.tracer = tracer or None
            if tracer:
                tracer.annotate(
                    alias=self.alias, technique=self.technique_name,
                    num_frames=self.num_frames,
                    config_digest=self.config.digest(),
                    **(header_fields or {}),
                )
        if live is not None:
            self.live = live or None
        if metrics is not None:
            self.metrics = metrics
            if metrics.header is None:
                metrics.write_header(
                    alias=self.alias, technique=self.technique_name,
                    num_frames=self.num_frames,
                    num_tiles=self.config.num_tiles,
                    tiles_x=self.config.tiles_x,
                    tiles_y=self.config.tiles_y,
                    tile_size=self.config.tile_size,
                    config_digest=self.config.digest(),
                    **(header_fields or {}),
                )

    # Warm reuse ---------------------------------------------------------
    def reset(self, num_frames: int = None) -> None:
        """Return this session to its just-constructed state so a warm
        engine pool (:mod:`repro.service.pool`) can reuse it for the
        next request instead of paying construction again.

        The contract — enforced by ``tests/engine/test_session_reuse.py``
        — is that a reset session renders *bit-identically* to a freshly
        constructed one: same per-tile frame CRCs, same golden skip
        counts, same end-of-run :class:`StatsRegistry` snapshot.  The
        GPU restores its pristine cross-frame state and zeroes stage
        counters (:meth:`~repro.pipeline.Gpu.reset`); the scene and the
        expensive constructions (stage graph, signature buffers, shared
        memos) stay warm.  Observability sinks are detached — each
        request attaches its own via :meth:`attach_observability`.

        ``num_frames`` optionally retargets the run length (the session
        identity — alias, technique, config — is fixed; the pool keys on
        it).
        """
        self.gpu.reset()
        self.gpu.tracer = None
        self.metrics = None
        self.live = None
        if num_frames is not None:
            self.num_frames = int(num_frames)
        self.frames = []
        self.frame_stats = []
        self._color_crcs = []
        if self._track_sigs:
            self._input_sigs = []
        self._events_before = technique_event_counts(self.technique)
        self.final_frame_crc = 0

    # Frame loop ---------------------------------------------------------
    @property
    def frames_rendered(self) -> int:
        return self.gpu.frame_index

    def run(self, until: int = None) -> int:
        """Render frames up to (exclusive) ``until`` — default: all
        remaining.  Returns the number of frames rendered by this call."""
        target = self.num_frames if until is None else min(until, self.num_frames)
        start = self.frames_rendered
        if target <= start:
            return 0
        for stream in self.scene.frames(target - start, start=start):
            self._render_one(stream)
        return target - start

    def run_checkpointed(self, stride: int, path, after_step=None) -> int:
        """Render every remaining frame, saving a checkpoint to ``path``
        each time ``stride`` more frames complete.

        The final frame is not checkpointed (the run is already done);
        every intermediate checkpoint is written atomically, so a
        process killed at any instant leaves a loadable checkpoint and a
        retry resumes bit-identically instead of starting over.

        ``after_step(frames_rendered)`` is invoked after each stride
        boundary, *after* its checkpoint is on disk — the supervisor
        uses it for progress reporting and deterministic fault
        injection.  ``stride <= 0`` renders everything in one step (one
        trailing ``after_step`` call, no checkpoints).  Returns the
        number of frames rendered by this call.
        """
        start = self.frames_rendered
        if stride is None or stride <= 0:
            stride = self.num_frames
        while self.frames_rendered < self.num_frames:
            self.run(until=min(self.num_frames, self.frames_rendered + stride))
            if path is not None and self.frames_rendered < self.num_frames:
                self.save(path)
            if after_step is not None:
                after_step(self.frames_rendered)
        return self.frames_rendered - start

    def _render_one(self, stream) -> None:
        metrics = self.metrics
        registry_before = (
            self.gpu.stats_registry.snapshot() if metrics is not None else None
        )
        stats = self.gpu.render_frame(stream, clear_color=self.scene.clear_color)
        cycles = self.timing.frame_cycles(stats)
        events_after = technique_event_counts(self.technique)
        frame_events = {
            key: events_after.get(key, 0) - self._events_before.get(key, 0)
            for key in events_after
        }
        self._events_before = events_after
        energy = self.energy_model.frame_energy(stats, cycles, frame_events)

        self.frames.append(FrameMetrics(
            cycles=cycles,
            energy=energy,
            tiles_skipped=stats.raster.tiles_skipped,
            flushes_suppressed=stats.raster.flushes_suppressed,
            fragments_rasterized=stats.raster.fragments_rasterized,
            fragments_shaded=stats.fragment.fragments_shaded,
            fragments_memoized=stats.fragment.fragments_memoized,
            traffic=dict(stats.traffic),
            geometry_overhead_cycles=stats.technique_geometry_stall_cycles,
            raster_overhead_cycles=stats.technique_raster_overhead_cycles,
        ))
        self.frame_stats.append(stats)
        self._color_crcs.append(tile_color_crcs(
            self.config, stats.frame_colors, self.gpu.framebuffer.tile_rect
        ))
        if self._track_sigs:
            self._input_sigs.append(self.technique.current_signatures())
        self.final_frame_crc = zlib.crc32(stats.frame_colors.tobytes())
        if metrics is not None:
            from ..obs.metrics import frame_record

            energy = self.frames[-1].energy
            metrics.sample(**frame_record(
                stats, cycles, energy,
                self.gpu.stats_registry.delta(registry_before),
            ))
        live = self.live
        if live:
            live.frame_done(
                self.frames_rendered, self.num_frames,
                tiles_skipped=stats.raster.tiles_skipped,
                fragments_shaded=stats.fragment.fragments_shaded,
                fragments_rasterized=stats.raster.fragments_rasterized,
            )

    # Result views -------------------------------------------------------
    @property
    def color_crcs(self) -> np.ndarray:
        """(frames_rendered, num_tiles) uint32 matrix of tile CRCs."""
        if not self._color_crcs:
            return np.empty((0, self.config.num_tiles), dtype=np.uint32)
        return np.stack(self._color_crcs)

    @property
    def input_sigs(self):
        """(frames_rendered, num_tiles) uint32 signatures, RE runs only."""
        if self._input_sigs is None:
            return None
        if not self._input_sigs:
            return np.empty((0, self.config.num_tiles), dtype=np.uint32)
        return np.stack(self._input_sigs)

    # Checkpointing ------------------------------------------------------
    def checkpoint(self) -> dict:
        """Versioned state dict capturing the run so far."""
        return {
            "session": {
                "alias": self.alias,
                "technique": self.technique_name,
                "num_frames": self.num_frames,
                "exact_signatures": self.exact_signatures,
                "config": self.config.to_dict(),
            },
            "gpu": self.gpu.state_dict(),
            "counters": self.gpu.stats_registry.snapshot(),
            "events_before": dict(self._events_before),
            "frames": [_metrics_to_dict(m) for m in self.frames],
            "color_crcs": [crcs for crcs in self._color_crcs],
            "input_sigs": (
                [sigs for sigs in self._input_sigs]
                if self._input_sigs is not None else None
            ),
            "final_frame_crc": self.final_frame_crc,
        }

    def save(self, path) -> None:
        save_checkpoint(self.checkpoint(), path)

    def restore(self, state: dict) -> None:
        """Load :meth:`checkpoint` output into this session in place."""
        meta = state["session"]
        if meta["alias"] != self.alias or meta["technique"] != self.technique_name:
            raise CheckpointError(
                f"checkpoint is for {meta['alias']!r}/{meta['technique']!r}, "
                f"session is {self.alias!r}/{self.technique_name!r}"
            )
        self.gpu.load_state_dict(state["gpu"])
        # Checkpoints written before counters were stored lack the key;
        # they resume with counters covering only the frames after it.
        if state.get("counters") is not None:
            self.gpu.stats_registry.load_counters(state["counters"])
        self._events_before = {
            key: int(value) for key, value in state["events_before"].items()
        }
        self.frames = [_metrics_from_dict(d) for d in state["frames"]]
        self.frame_stats = []  # raw FrameStats are not checkpointed
        self._color_crcs = [
            np.asarray(row, dtype=np.uint32) for row in state["color_crcs"]
        ]
        if state["input_sigs"] is not None and self._track_sigs:
            self._input_sigs = [
                np.asarray(row, dtype=np.uint32)
                for row in state["input_sigs"]
            ]
        self.final_frame_crc = int(state["final_frame_crc"])

    @classmethod
    def from_checkpoint(cls, source,
                        config: GpuConfig = None) -> "RenderSession":
        """Rebuild a session from a checkpoint file path or state dict.

        ``config`` defaults to the configuration stored in the
        checkpoint, so a resumed run simulates the same hardware; a
        given ``config`` that differs from the stored one raises
        :class:`CheckpointError` naming the first differing fields.
        Observability sinks are host-side and never checkpointed; attach
        them with :meth:`attach_observability`.
        """
        state = source if isinstance(source, dict) else load_checkpoint(source)
        meta = state["session"]
        stored = GpuConfig.from_dict(meta["config"])
        if config is None:
            config = stored
        elif config != stored:
            differing = [
                f"{field.name} {getattr(stored, field.name)!r} -> "
                f"{getattr(config, field.name)!r}"
                for field in dataclasses.fields(GpuConfig)
                if getattr(stored, field.name) != getattr(config, field.name)
            ]
            raise CheckpointError(
                f"checkpoint was written under another config "
                f"({', '.join(differing[:3])})"
            )
        session = cls(
            meta["alias"], meta["technique"], config=config,
            num_frames=int(meta["num_frames"]),
            exact_signatures=bool(meta["exact_signatures"]),
        )
        session.restore(state)
        return session
