"""Fleet trajectory over the run registry: the ``repro trend`` backend.

Every fleet worker, and every ``repro sweep --fleet-id NAME``, records
its sweep points stamped with a fleet id.  This module rolls them up:

* :func:`fleet_trend` — per-fleet aggregates over the registry index
  (points, workers, total cycles, skipped tiles, wall span), plus the
  execute-wall histogram of the fleet's done records when the fleet
  directory is present;
* :func:`render_fleet_trend` — the rollups as a table, with a cycles
  trajectory across re-runs of the same point set.

Host performance is measured by the repo benchmark (``bench/run.py``,
compared with ``bench/compare.py``), not here.
"""

from __future__ import annotations

from ..harness.reporting import format_table
from ..harness.timeline import sparkline
from .store import RunRegistry

__all__ = [
    "fleet_trend",
    "render_fleet_trend",
]


def _registry(registry) -> RunRegistry:
    if isinstance(registry, RunRegistry):
        return registry
    return RunRegistry(registry)


def fleet_trend(registry) -> list:
    """Per-fleet rollups over every fleet-stamped sweep point.

    Groups the registry's ``sweep-point`` entries by their ``fleet_id``
    stamp and aggregates each group: points, workers, total cycles,
    skipped tiles, wall span (first to last manifest), and — when the
    fleet directory is present beside the registry — the execute-wall
    histogram and failed points its done records hold.  Ordered by
    first-manifest time, so fleets read chronologically: the fleet-wide
    perf dashboard.
    """
    registry = _registry(registry)
    groups: dict = {}
    for entry in registry.query(kind="sweep-point"):
        summary = entry.summary or {}
        fleet_id = summary.get("fleet_id")
        if not fleet_id:
            continue
        groups.setdefault(fleet_id, []).append(entry)
    rollups = []
    for fleet_id, entries in groups.items():
        workers = sorted({
            (e.summary or {}).get("fleet_worker")
            for e in entries if (e.summary or {}).get("fleet_worker")
        })
        created = [e.created_at or 0.0 for e in entries]
        point_ids = {(e.summary or {}).get("point_id") for e in entries}
        rollup = {
            "fleet_id": fleet_id,
            "alias": entries[0].alias,
            "technique": entries[0].technique,
            "num_frames": entries[0].num_frames,
            "points": len(point_ids),
            "workers": workers,
            "first_at": min(created),
            "last_at": max(created),
            "wall_span_s": max(created) - min(created),
            "total_cycles": sum(
                (e.summary or {}).get("total_cycles") or 0
                for e in entries
            ),
            "tiles_skipped": sum(
                (e.summary or {}).get("tiles_skipped") or 0
                for e in entries
            ),
            "point_set": "|".join(sorted(p for p in point_ids if p)),
            "histogram": None,
            "points_total": None,
            "failed": None,
        }
        rollup.update(_fleet_dir_rollup(registry, fleet_id))
        rollups.append(rollup)
    rollups.sort(key=lambda r: (r["first_at"], r["fleet_id"]))
    return rollups


def _fleet_dir_rollup(registry, fleet_id: str) -> dict:
    """Coordination-side aggregates when the fleet directory exists
    (same-host view); empty for a registry synced without it."""
    from ..errors import FleetError

    try:
        from ..fleet.coordinator import FleetCoordinator

        coordinator = FleetCoordinator(registry.root, fleet_id)
        done = coordinator.claims.done_records()
        return {
            "points_total": len(coordinator.points),
            "failed": coordinator.failed_points(done),
            "histogram": coordinator.merged_histogram(done),
        }
    except (FleetError, OSError):
        return {}


def render_fleet_trend(registry, width: int = 60) -> str:
    """The fleet dashboard as text: per-fleet table + a cycles
    trajectory across fleets that ran the same point set."""
    rollups = fleet_trend(registry)
    if not rollups:
        return ("no fleet-stamped sweep points recorded; run "
                "`python -m repro fleet launch` or stamp a sweep with "
                "`python -m repro sweep --fleet-id NAME`")
    lines = [f"fleet trajectory: {len(rollups)} fleet(s)"]
    rows = []
    for rollup in rollups:
        total = rollup["points_total"]
        done = rollup["points"]
        hist = rollup["histogram"]
        rows.append([
            rollup["fleet_id"],
            f"{rollup['alias']}/{rollup['technique']}",
            f"{done}/{total}" if total else str(done),
            len(rollup["workers"]) or "-",
            rollup["wall_span_s"],
            rollup["total_cycles"] / 1e6,
            (f"p50={hist['p50']:.2f}s p95={hist['p95']:.2f}s"
             if hist and hist.get("count") else "-"),
        ])
    lines.append(format_table(
        ["fleet", "workload", "points", "workers", "span_s",
         "Mcycles", "execute wall"], rows, float_format="{:.2f}",
    ))
    for rollup in rollups:
        if rollup["failed"]:
            lines.append(
                f"fleet {rollup['fleet_id']}: FAILED points: "
                + ", ".join(rollup["failed"])
            )
    # Trajectory across re-runs of the same point set: like-for-like
    # only, so a different grid never reads as a regression.
    newest_set = rollups[-1]["point_set"]
    series = [r for r in rollups if r["point_set"] == newest_set]
    if len(series) > 1:
        cycles = [r["total_cycles"] for r in series]
        peak = max(cycles)
        if peak:
            lines.append(
                f"total cycles across {len(series)} run(s) of the same "
                "point set (normalized to worst): "
                + sparkline([c / peak for c in cycles], width=width)
            )
    return "\n".join(lines)
