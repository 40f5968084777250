"""Per-layer host time, traced from outside the simulator.

:func:`install` wraps the public entry points of each ``src/repro``
layer on their classes and modules, so every call records a span into a
:class:`SpanRecorder`; :func:`uninstall` puts the originals back.  No
file under ``src/`` is edited: the wrappers replace attributes at run
time, in the benchmark's own process (or in a daemon the benchmark
launched, whose forked workers inherit them).

A layer's *self time* is the duration of its spans minus the part of
that interval covered by child spans.  The recorder keeps it exactly,
online, from the open-span stack; it also keeps the first ``keep`` spans
whole, for a Chrome trace that Perfetto loads.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time

#: Every function the traced run wraps, as (module, attribute path).  A
#: function imported by name into another module is listed once per
#: namespace the render path calls it through.  ``Cache.access`` is left
#: out on purpose: its only caller is ``Cache.access_many``, which is
#: wrapped, so a span per cache line would add cost and no attribution.
TARGETS = (
    ("repro.workloads.games", "build_scene"),
    ("repro.engine.session", "build_scene"),
    ("repro.engine.session", "RenderSession.__init__"),
    ("repro.engine.session", "RenderSession.reset"),
    ("repro.engine.session", "RenderSession.run"),
    ("repro.engine.session", "tile_color_crcs"),
    ("repro.timing.model", "TimingModel.frame_cycles"),
    ("repro.power.energy", "EnergyModel.frame_energy"),
    ("repro.pipeline.gpu", "Gpu.render_frame"),
    ("repro.pipeline.vertex_stage", "VertexStage.run"),
    ("repro.pipeline.primitive_assembly", "PrimitiveAssembly.assemble"),
    ("repro.pipeline.tiling", "PolygonListBuilder.bin_drawcall"),
    ("repro.pipeline.tiling", "covers_rect"),
    ("repro.pipeline.tiling", "coverage_mask"),
    ("repro.core.rendering_elimination", "RenderingElimination.on_draw_state"),
    ("repro.core.rendering_elimination", "RenderingElimination.on_primitive"),
    ("repro.core.rendering_elimination",
     "RenderingElimination.should_skip_tile"),
    ("repro.techniques.transaction_elimination",
     "TransactionElimination.should_flush_tile"),
    ("repro.pipeline.tile_scheduler", "RasterPipeline.render_tile"),
    ("repro.pipeline.tile_scheduler", "RasterPipeline.flush_tile"),
    ("repro.pipeline.tile_scheduler", "rasterize"),
    ("repro.pipeline.rasterizer", "rasterize"),
    ("repro.pipeline.depth", "DepthStage.test"),
    ("repro.pipeline.fragment_stage", "FragmentStage.shade"),
    ("repro.pipeline.blending", "BlendStage.blend"),
    ("repro.memory.cache", "Cache.access_many"),
    ("repro.memory.cache", "Cache.access_run"),
)

#: Name of the span the benchmark opens around each operation (a cell,
#: or a service job); trace coverage is measured against it.
ROOT = "op"

#: Per-layer self-time metrics: metric -> span names whose self time it
#: sums.  Span names are the wrapped functions' ``__qualname__``.
SELF_TIME = {
    "workloads.build_scene_s": ("build_scene",),
    "engine.session_init_s": ("RenderSession.__init__",),
    "engine.session_reset_s": ("RenderSession.reset",),
    "engine.frame_self_s": (
        "RenderSession.run", "tile_color_crcs",
        "TimingModel.frame_cycles", "EnergyModel.frame_energy",
    ),
    "pipeline.gpu_frame_self_s": ("Gpu.render_frame",),
    "pipeline.vertex_s": ("VertexStage.run",),
    "pipeline.assembly_s": ("PrimitiveAssembly.assemble",),
    "pipeline.binning_self_s": ("PolygonListBuilder.bin_drawcall",),
    "pipeline.occlusion_test_s": ("covers_rect", "coverage_mask"),
    "core.signature_s": (
        "RenderingElimination.on_draw_state",
        "RenderingElimination.on_primitive",
    ),
    "core.skip_decision_s": ("RenderingElimination.should_skip_tile",),
    "techniques.flush_decision_s": (
        "TransactionElimination.should_flush_tile",
    ),
    "pipeline.render_tile_self_s": ("RasterPipeline.render_tile",),
    "pipeline.rasterize_s": ("rasterize",),
    "pipeline.early_z_s": ("DepthStage.test",),
    "pipeline.shade_s": ("FragmentStage.shade",),
    "pipeline.blend_s": ("BlendStage.blend",),
    "pipeline.flush_s": ("RasterPipeline.flush_tile",),
    "memory.cache_s": ("Cache.access_many", "Cache.access_run"),
}

#: Per-layer call counts: metric -> span names whose calls it sums.
CALLS = {
    "engine.session_init_calls": ("RenderSession.__init__",),
    "pipeline.tiles_rendered": ("RasterPipeline.render_tile",),
    "pipeline.rasterize_calls": ("rasterize",),
    "pipeline.occlusion_tests": ("covers_rect", "coverage_mask"),
    "core.skip_decisions": ("RenderingElimination.should_skip_tile",),
}


class SpanRecorder:
    """Self time and call count per span name, plus the first spans whole.

    ``begin``/``end`` must nest.  Each open span carries the time its
    children covered; on ``end`` the span's self time is its duration
    minus that, and its duration is charged to the parent's children.
    """

    def __init__(self, keep: int = 0, clock=time.perf_counter_ns) -> None:
        self.keep = keep
        self.clock = clock
        self.self_ns = collections.Counter()
        self.total_ns = collections.Counter()
        self.calls = collections.Counter()
        #: [name, start_ns, end_ns, parent index or -1], in start order.
        self.spans: list = []
        self._stack: list = []

    def begin(self, name: str) -> None:
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0, 0, parent])
        start = self.clock()
        if index >= 0:
            self.spans[index][1] = start
        self._stack.append([name, start, 0, index])

    def end(self) -> None:
        now = self.clock()
        name, start, child_ns, index = self._stack.pop()
        duration = now - start
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        if index >= 0:
            self.spans[index][2] = now
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def table(self) -> dict:
        """``{name: {"self_s", "total_s", "calls"}}`` for every span name."""
        return {
            name: {
                "self_s": self.self_ns[name] / 1e9,
                "total_s": self.total_ns[name] / 1e9,
                "calls": self.calls[name],
            }
            for name in sorted(self.calls)
        }

    def write_chrome_trace(self, path, meta: dict = None) -> None:
        """The kept spans as Chrome trace-event JSON (Perfetto loads it)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {"name": name, "ph": "X", "ts": (start - origin) / 1e3,
             "dur": (end - start) / 1e3, "pid": 1, "tid": 1}
            for name, start, end, _parent in self.spans if end
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta or {}}, handle)


def layer_metrics(table: dict) -> dict:
    """Per-layer metrics from a :meth:`SpanRecorder.table`: self seconds,
    call counts and the trace coverage, which is the share of the root
    spans' time that some layer span accounts for.
    """
    def total(names, field):
        return sum(table.get(name, {}).get(field, 0) for name in names)

    metrics = {name: total(spans, "self_s")
               for name, spans in SELF_TIME.items()}
    metrics.update({name: total(spans, "calls")
                    for name, spans in CALLS.items()})
    root = table.get(ROOT, {})
    covered = sum(row["self_s"] for name, row in table.items()
                  if name != ROOT)
    metrics["trace.coverage"] = (covered / root["total_s"]
                                 if root.get("total_s") else 0.0)
    return metrics


def memo_counts(config) -> dict:
    """Lifetime counters of the process-wide raster, shade and tile
    memos, read through their public accessors.  Shade and tile memo
    evictions are not counted by the memos themselves."""
    from repro.pipeline.fragment_stage import shared_shade_memo
    from repro.pipeline.rasterizer import shared_raster_memo
    from repro.pipeline.tile_scheduler import shared_tile_memo

    raster = shared_raster_memo(
        config.tile_size, config.tiles_x,
        (0, 0, config.screen_width, config.screen_height),
    )
    shade, tile = shared_shade_memo(), shared_tile_memo()
    return {
        "raster_hits": raster.hits, "raster_misses": raster.misses,
        "raster_evictions": raster.store.evictions,
        "shade_hits": shade.hits, "shade_misses": shade.misses,
        "tile_hits": tile.hits, "tile_misses": tile.misses,
    }


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _wrap(fn, recorder: SpanRecorder):
    name = fn.__qualname__
    begin, end = recorder.begin, recorder.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end()

    return wrapper


def install(recorder: SpanRecorder) -> list:
    """Wrap every target; returns ``(owner, attr, original)`` triples
    for :func:`uninstall`."""
    patched = []
    try:
        for module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(original, recorder))
            patched.append((owner, attr, original))
    except BaseException:
        uninstall(patched)
        raise
    return patched


def uninstall(patched: list) -> None:
    """Restore the originals :func:`install` replaced, newest first."""
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    patched.clear()
