"""Observability: tracing, metrics, run registry, and live telemetry.

The telemetry layer for the simulator.  This package records
*time-resolved, per-entity* telemetry of the simulated run and archives
run outcomes for cross-run analysis:

* :class:`Tracer` / :class:`TraceRecorder` — span and instant events
  over the stage graph, emitted as Chrome trace-event JSON for
  Perfetto / ``chrome://tracing`` (``--trace out.json``);
  :func:`span_totals` folds them into per-span host seconds and calls
  (``--profile``);
* :class:`MetricsLog` — every registry counter sampled at each frame
  boundary into a JSONL time series plus per-tile skip heatmap data
  (``--metrics out.jsonl``);
* :mod:`repro.obs.report` — offline analysis of a metrics log
  (``python -m repro report run.metrics.jsonl``);
* :mod:`repro.obs.validate` — strict trace-event schema checks, so
  viewer compatibility is pinned by tests;
* :class:`RunRegistry` (:mod:`repro.obs.store`) — content-addressed
  archive of run/sweep manifests under ``results/registry/``, the
  substrate for ``python -m repro runs / diff / trend``;
* :mod:`repro.obs.diff` — pairwise comparison of two registered runs
  (stage cycles, skip rates, traffic, counters, per-tile CRCs);
* :mod:`repro.obs.trend` — per-fleet rollups over fleet-stamped sweep
  points (``repro trend``);
* :mod:`repro.obs.live` — live telemetry for parallel/supervised
  runs: workers stream per-frame progress to a
  :class:`LiveAggregator` that renders a status table, writes a
  ``live.json`` heartbeat and flags stalled workers.
"""

from .diff import diff_manifests, diff_results, diff_runs, render_diff
from .distributed import (
    ShardTracer,
    TraceContext,
    TraceShard,
    merge_shards,
    mint_trace,
)
from .live import NULL_LIVE, ChannelLiveSink, LiveAggregator, LiveSink
from .metrics import MetricsLog, frame_record
from .report import render_report
from .store import RunRegistry, git_revision, run_manifest
from .tracer import NULL_TRACER, Tracer, TraceRecorder, span_totals
from .validate import validate_trace, validate_trace_file

__all__ = [
    "ChannelLiveSink",
    "LiveAggregator",
    "LiveSink",
    "MetricsLog",
    "NULL_LIVE",
    "NULL_TRACER",
    "RunRegistry",
    "ShardTracer",
    "TraceContext",
    "TraceRecorder",
    "TraceShard",
    "Tracer",
    "diff_manifests",
    "diff_results",
    "diff_runs",
    "frame_record",
    "git_revision",
    "merge_shards",
    "mint_trace",
    "render_diff",
    "render_report",
    "run_manifest",
    "span_totals",
    "validate_trace",
    "validate_trace_file",
]
