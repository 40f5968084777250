"""Top-level GPU: the full Tile-Based Rendering pipeline of Fig. 4.

The pipeline is a *stage graph*: every hardware block (command
processor, vertex stage, primitive assembly, polygon list builder,
raster pipeline, fragment stage) is a persistent
:class:`~repro.engine.stage.Stage` constructed once in
:meth:`Gpu.__init__` and reused across frames, mirroring the fixed
hardware of a real TBR GPU.  Per-frame state travels in a
:class:`~repro.engine.stage.FrameContext`; per-frame statistics come
from a :class:`~repro.engine.stats.StatsRegistry` snapshot-delta over
the stages' cumulative counters.

:meth:`Gpu.render_frame` runs one frame's command stream through the
Geometry Pipeline and then the Raster Pipeline, returning a
:class:`FrameStats` with every activity count the timing and power
models consume, plus the rendered frame for functional verification.
The Raster Pipeline decides every tile's skip first, then renders the
other tiles (see :mod:`repro.pipeline.tile_scheduler`) and flushes them
tile by tile.

The installed :class:`~repro.techniques.base.Technique` decides which
tiles are skipped (Rendering Elimination), which flushes are suppressed
(Transaction Elimination), and which fragments would have been memoized.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from ..config import GpuConfig
from ..engine.stage import FrameContext
from ..engine.stats import StatsRegistry
from ..memory.hierarchy import MemoryHierarchy
from ..memory.traffic import ALL_STREAMS
from ..techniques.base import Technique
from .blending import BlendStats
from .command_processor import CommandProcessor
from .commands import CommandStream
from .depth import DepthStats
from .fragment_stage import FragmentStage, FragmentStats
from ..geometry.primitives import PrimitiveBatch
from .framebuffer import DEFAULT_CLEAR_COLOR, FrameBuffer
from .memo import MemoStore
from .primitive_assembly import AssemblyStats, PrimitiveAssembly
from .rasterizer import shared_raster_memo
from .tile_scheduler import RasterPipeline, RasterStats, shared_tile_memo
from .tiling import PolygonListBuilder, TilingStats
from .vertex_stage import VertexStage, VertexStageStats

#: FrameStats dataclass field -> (registry group, stats dataclass).
_STAT_GROUPS = (
    ("vertex", "vertex", VertexStageStats),
    ("assembly", "assembly", AssemblyStats),
    ("tiling", "tiling", TilingStats),
    ("raster", "raster", RasterStats),
    ("depth", "depth", DepthStats),
    ("fragment", "fragment", FragmentStats),
    ("blend", "blend", BlendStats),
)


#: The geometry memo's budget, in bytes of retained arrays (about).
GEOMETRY_MEMO_BUDGET = 64 << 20

#: Process-wide geometry memo: keys hold the drawcall's inputs by
#: content, so hits are exact across independent Gpu instances.
_SHARED_GEOMETRY_MEMO = MemoStore(GEOMETRY_MEMO_BUDGET)


def shared_geometry_memo() -> MemoStore:
    """The process-wide geometry memo used by batched-mode GPUs (see
    :meth:`Gpu._draw_geometry`)."""
    return _SHARED_GEOMETRY_MEMO


@dataclasses.dataclass(frozen=True)
class DrawcallGeometry:
    """A geometry memo entry: what vertex shading, assembly and binning
    compute from a drawcall's inputs alone."""

    batch: PrimitiveBatch        # the assembled triangles, no state bound
    vertex_lines: np.ndarray     # the vertex fetch's cache-line stream
    vertex_delta: tuple          # VertexStage counters, as counters()
    assembly_delta: tuple        # PrimitiveAssembly counters, likewise
    overlaps: tuple              # PolygonListBuilder.overlaps(batch)
    shader: object               # pinned: its id is in the key

    @property
    def cost(self) -> int:
        """Retained bytes, counting the row bytes and block CRCs later
        stages derive from the batch as much again as its arrays."""
        batch = self.batch
        arrays = (batch.screen, batch.depth, batch.clip, batch.bounds,
                  batch.attributes, *batch.varyings.values())
        return (2 * sum(array.nbytes for array in arrays)
                + self.vertex_lines.nbytes
                + sum(array.nbytes for array in self.overlaps))


@dataclasses.dataclass
class FrameStats:
    """Everything measured while rendering one frame."""

    frame_index: int = 0
    # Geometry side
    drawcalls: int = 0
    constant_uploads: int = 0
    vertex: VertexStageStats = dataclasses.field(default_factory=VertexStageStats)
    assembly: AssemblyStats = dataclasses.field(default_factory=AssemblyStats)
    tiling: TilingStats = dataclasses.field(default_factory=TilingStats)
    geometry_stall_cycles: int = 0
    technique_geometry_stall_cycles: int = 0
    # Raster side
    raster: RasterStats = dataclasses.field(default_factory=RasterStats)
    depth: DepthStats = dataclasses.field(default_factory=DepthStats)
    fragment: FragmentStats = dataclasses.field(default_factory=FragmentStats)
    blend: BlendStats = dataclasses.field(default_factory=BlendStats)
    technique_raster_overhead_cycles: int = 0
    # Memory
    traffic: dict = dataclasses.field(default_factory=dict)
    cache_accesses: dict = dataclasses.field(default_factory=dict)
    cache_misses: dict = dataclasses.field(default_factory=dict)
    # Technique bookkeeping
    technique_name: str = "baseline"
    re_disabled: bool = False
    skipped_tile_ids: tuple = ()
    # Functional output
    frame_colors: np.ndarray = None

    @property
    def tiles_total(self) -> int:
        return self.raster.tiles_scheduled

    @property
    def fragments_shaded(self) -> int:
        return self.fragment.fragments_shaded

    def metric(self, key: str):
        """Resolve a registry-style dotted key against this frame.

        The same keys the :class:`~repro.engine.stats.StatsRegistry`
        registers (``"vertex.shader_instructions"``,
        ``"traffic.texels"``, ``"cache.tile.misses"``), plus
        ``"command.*"`` for the top-level geometry counters and
        ``"technique.*"`` for the installed technique's overheads — the
        vocabulary the timing and energy models consume.
        """
        group, _, rest = key.partition(".")
        if group == "command":
            return getattr(self, rest)
        if group == "traffic":
            return self.traffic.get(rest, 0)
        if group == "cache":
            name, _, kind = rest.partition(".")
            table = (
                self.cache_accesses if kind == "accesses"
                else self.cache_misses
            )
            return table.get(name, 0)
        if group == "technique":
            return getattr(self, f"technique_{rest}")
        return getattr(getattr(self, group), rest)


class Gpu:
    """A simulated Mali-450-class TBR GPU."""

    def __init__(self, config: GpuConfig, technique: Technique = None,
                 batched: bool = True) -> None:
        self.config = config
        self.technique = technique if technique is not None else Technique()
        self.memory = MemoryHierarchy(config)
        self.framebuffer = FrameBuffer(config)
        self.frame_index = 0
        # Batched raster path: full-screen rasterization, rendered one
        # drawcall at a time, with cross-frame raster and tile memos
        # (bit-identical to the scalar per-tile path; see
        # tile_scheduler.RasterPipeline.render_drawcalls).
        self.batched = batched
        screen_rect = (0, 0, config.screen_width, config.screen_height)
        self._raster_memo = (
            shared_raster_memo(config.tile_size, config.tiles_x, screen_rect)
            if batched else None
        )
        self._tile_memo = shared_tile_memo() if batched else None
        self._geometry_memo = shared_geometry_memo() if batched else None

        # --- Persistent stage graph (constructed once, reused) --------
        self.command_processor = CommandProcessor()
        self.vertex_stage = VertexStage(self.memory)
        self.assembly = PrimitiveAssembly(
            config.screen_width, config.screen_height
        )
        self.plb = PolygonListBuilder(
            config, self.memory, listeners=(self.technique,)
        )
        self.fragment_stage = FragmentStage(self.memory)
        memo_filter = getattr(self.technique, "memo_filter", None)
        if callable(memo_filter):
            self.fragment_stage.memo_filter = memo_filter
        self.raster = RasterPipeline(
            config, self.memory, self.framebuffer, self.fragment_stage,
            raster_memo=self._raster_memo, tile_memo=self._tile_memo,
        )
        self.stages = (
            self.command_processor, self.vertex_stage, self.assembly,
            self.plb, self.raster, self.fragment_stage,
        )

        # What a geometry memo key holds of this GPU: the screen, the
        # tile grid and the vertex-cache lines.
        self._geometry_config = (
            config.screen_width, config.screen_height, config.tile_size,
            self.memory.caches["vertex"].line_bytes,
        )

        # --- Metric registry ------------------------------------------
        self.stats_registry = StatsRegistry()
        for stage in self.stages:
            stage.register_metrics(self.stats_registry)
        self.memory.register_metrics(self.stats_registry)

        # Optional repro.obs.Tracer; None (or the falsy null tracer)
        # keeps the hot path at one truthiness check per decision.
        self.tracer = None
        self.technique.attach(self)

        # Pristine cross-frame state, captured once so :meth:`reset` can
        # return a used engine to its just-constructed state (the warm
        # engine pool in :mod:`repro.service` rests on this).  Deep-copied
        # on capture and on restore so no render ever aliases into it.
        self._pristine_state = copy.deepcopy(self.state_dict())

    # ------------------------------------------------------------------
    def render_frame(self, commands: CommandStream,
                     clear_color=DEFAULT_CLEAR_COLOR) -> FrameStats:
        """Render one frame; returns its statistics and final colors."""
        ctx = FrameContext(
            frame_index=self.frame_index,
            commands=commands,
            clear_color=clear_color,
            parameter_buffer=self.plb.parameter_buffer,
        )

        # Frame-boundary cache invalidation: the Parameter Buffer is
        # rewritten in place every frame (stale lines must not hit), and
        # the reuse distance of vertex/texel data between frames is an
        # entire frame -- far beyond on-chip capacity for real content
        # (Section III's premise).  On-chip buffers therefore start each
        # frame cold, as they would on hardware rendering real scenes,
        # which is what lets the memory log be resolved once per frame.
        # A frame that raised may have left accesses in the log.
        self.memory.clear()

        before = self.stats_registry.snapshot()
        for stage in self.stages:
            stage.begin_frame(ctx)

        tracer = self.tracer
        if tracer:
            tracer.begin("frame", frame=self.frame_index,
                         technique=self.technique.name)
        self.technique.begin_frame(self.frame_index, commands.has_uploads)

        # --- Geometry Pipeline ---------------------------------------
        if tracer:
            tracer.begin("geometry")
        for invocation in self.command_processor.process(commands):
            self._draw_geometry(invocation, tracer)

        self.technique.on_geometry_complete()
        if tracer:
            stall = self.technique.geometry_stall_cycles()
            if stall:
                tracer.instant("ot_queue_stall", cycles=stall)
            tracer.end("geometry")

        # --- Raster Pipeline ------------------------------------------
        if tracer:
            tracer.begin("raster")
        raster = self.raster
        skipped = ctx.skipped_tile_ids
        rendered = []
        for tile_id in range(self.config.num_tiles):
            if self.technique.should_skip_tile(tile_id):
                skipped.append(tile_id)
                if tracer:
                    tracer.instant("tile_skip", tile=tile_id)
            else:
                rendered.append(tile_id)
        raster.stats.tiles_scheduled += self.config.num_tiles
        raster.stats.tiles_skipped += len(skipped)
        # Batched, the frame's tiles are rendered one drawcall at a time
        # up front, and render_tile then only issues each one.  A memo
        # filter observes every (primitive, tile) batch, so with one the
        # tiles are rendered one by one on the scalar reference path.
        if self.batched and self.fragment_stage.memo_filter is None:
            if tracer:
                tracer.begin("drawcalls")
            raster.render_drawcalls(
                rendered, ctx.parameter_buffer, ctx.clear_color
            )
            if tracer:
                tracer.end("drawcalls")
        for tile_id in rendered:
            if tracer:
                tracer.begin("tile", tile=tile_id)
            tile_colors = raster.render_tile(
                tile_id, ctx.parameter_buffer, ctx.clear_color
            )
            if self.technique.should_flush_tile(tile_id, tile_colors):
                raster.flush_tile(tile_id, tile_colors)
            else:
                raster.stats.flushes_suppressed += 1
                if tracer:
                    tracer.instant("flush_suppressed", tile=tile_id)
                # The Frame Buffer already holds identical colors; the
                # functional write is still performed so the simulated
                # output stays exact even if the technique is wrong --
                # only the DRAM traffic is suppressed.
                self.framebuffer.write_tile(tile_id, tile_colors)
            if tracer:
                tracer.end("tile")

        self.technique.end_frame()
        if tracer:
            tracer.end("raster")
        for stage in self.stages:
            stage.end_frame(ctx)
        self.memory.resolve()

        # --- Collect: generic snapshot-delta over the registry ---------
        stats = self._assemble_stats(ctx, before)
        if tracer:
            tracer.counter("tiles", {
                "skipped": stats.raster.tiles_skipped,
                "rendered": stats.raster.tiles_rendered,
            })
            tracer.counter("fragments", {
                "shaded": stats.fragment.fragments_shaded,
            })
            tracer.end("frame")

        stats.frame_colors = self.framebuffer.snapshot_back()
        self.framebuffer.swap()
        self.frame_index += 1
        return stats

    def _draw_geometry(self, invocation, tracer) -> None:
        """Vertex-shade, assemble and bin one drawcall.

        A batched GPU first looks the drawcall up in the geometry memo,
        keyed on its inputs: the vertex buffer's bytes and
        ``buffer_id``, the shader, the constants bytes, the cull flag,
        and this GPU's screen size, tile size and vertex-cache line
        size.  A hit takes the assembled batch, bound to this drawcall's
        state, and the tile overlaps from the entry instead of computing
        them.  Hit or miss, the drawcall adds the same vertex and
        assembly counters, appends the same vertex line stream to the
        frame's memory log, and is binned by
        :meth:`~.tiling.PolygonListBuilder.bin_drawcall`, which gives it
        this frame's Parameter-Buffer offsets and tile lists.
        """
        memo = self._geometry_memo
        state = invocation.state
        entry = key = None
        if memo is not None:
            buffer = invocation.buffer
            key = (buffer.content_token, buffer.buffer_id, id(state.shader),
                   state.constants_bytes(), invocation.cull_backfaces,
                   self._geometry_config)
            entry = memo.get(key)
        if tracer:
            tracer.begin("vertex")
        if entry is None:
            vertex_before = self.vertex_stage.counters()
            shaded = self.vertex_stage.run(invocation)
        else:
            self.vertex_stage.replay(entry.vertex_lines, entry.vertex_delta)
        if tracer:
            tracer.end("vertex")
            tracer.begin("assembly")
        if entry is None:
            assembly_before = self.assembly.counters()
            batch = self.assembly.assemble(invocation, shaded)
        else:
            self.assembly.add_counters(entry.assembly_delta)
            batch = entry.batch.rebind(state)
        if tracer:
            tracer.end("assembly")
            tracer.begin("binning")
        overlaps = self.plb.bin_drawcall(
            state, batch, None if entry is None else entry.overlaps
        )
        if tracer:
            tracer.end("binning")
        if entry is None and memo is not None:
            for array in (shaded.lines, *overlaps):
                array.flags.writeable = False
            entry = DrawcallGeometry(
                batch.rebind(None), shaded.lines,
                _delta(self.vertex_stage.counters(), vertex_before),
                _delta(self.assembly.counters(), assembly_before),
                overlaps, state.shader,
            )
            memo.put(key, entry, entry.cost)

    def _assemble_stats(self, ctx: FrameContext, before: dict) -> FrameStats:
        """Build a frame's :class:`FrameStats` from the registry delta."""
        registry = self.stats_registry
        delta = registry.delta(before)
        stats = FrameStats(frame_index=ctx.frame_index)
        stats.technique_name = self.technique.name
        stats.drawcalls = delta["command.drawcalls"]
        stats.constant_uploads = delta["command.constant_uploads"]
        for field_name, group, cls in _STAT_GROUPS:
            setattr(stats, field_name, registry.group_delta(group, cls, delta))
        stats.traffic = {
            stream: delta[f"traffic.{stream}"] for stream in ALL_STREAMS
        }
        for name in self.memory.caches:
            stats.cache_accesses[name] = delta[f"cache.{name}.accesses"]
            stats.cache_misses[name] = delta[f"cache.{name}.misses"]
        stats.technique_geometry_stall_cycles = (
            self.technique.geometry_stall_cycles()
        )
        stats.technique_raster_overhead_cycles = (
            self.technique.raster_overhead_cycles()
        )
        stats.skipped_tile_ids = tuple(ctx.skipped_tile_ids)
        stats.re_disabled = getattr(self.technique, "disabled_this_frame", False)
        return stats

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.engine.session / repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Cross-frame state a restored GPU needs to continue
        bit-identically.

        Stage counters are deliberately absent: per-frame stats are
        registry snapshot-*deltas*, so absolute counter values never
        influence a future frame.  Cache contents are likewise absent —
        every cache starts each frame empty.  What does carry across
        frames: the framebuffer banks, the DRAM pressure recurrence,
        traffic totals, cache hit/miss totals, and the technique's
        signature/memo state.
        """
        return {
            "frame_index": self.frame_index,
            "batched": self.batched,
            "framebuffer": self.framebuffer.state_dict(),
            **self.memory.state_dict(),
            "technique": self.technique.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.frame_index = int(state["frame_index"])
        self.framebuffer.load_state_dict(state["framebuffer"])
        self.memory.load_state_dict(state)
        self.technique.load_state_dict(state["technique"])

    # ------------------------------------------------------------------
    # Warm reuse (see repro.service.pool.WarmEnginePool)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return this engine to its just-constructed state.

        The reuse contract the warm engine pool depends on: a reset
        engine must render *bit-identically* to a freshly constructed
        one — same frame CRCs, same skip decisions, same StatsRegistry
        snapshots (regression-tested in
        ``tests/engine/test_session_reuse.py``).  Two halves:

        * :meth:`load_state_dict` with the pristine capture restores
          every piece of cross-frame state (framebuffer banks, DRAM
          pressure, traffic/cache totals, technique signature history);
        * :meth:`~repro.engine.stage.Stage.reset` zeroes each stage's
          cumulative counters, which are deliberately outside
          :meth:`state_dict` (per-frame stats are snapshot-deltas) but
          *are* visible in end-of-run registry snapshots.

        The shared geometry, raster and tile memos are left warm on
        purpose: they are content-keyed, so hits change wall-clock only,
        never output — that cross-request warmth is the service's
        payoff.
        """
        self.load_state_dict(copy.deepcopy(self._pristine_state))
        for stage in self.stages:
            stage.reset()


def _delta(after: tuple, before: tuple) -> tuple:
    return tuple(a - b for a, b in zip(after, before))
