"""Diff two recorded runs: the ``repro diff`` backend.

The paper's claims are all deltas — RE versus baseline cycles, RE
versus TE traffic — so the registry's first consumer is a differ.
:func:`diff_runs` takes two manifests (see :mod:`repro.obs.store`) and
reports, section by section:

* **cycles** — total / geometry / raster deltas plus per-stage-part
  deltas (``raster.fragment_processing``, ...), exact sums of the same
  per-frame numbers ``RunResult`` aggregates, so the diff reconciles
  with the in-memory results to the last cycle;
* **skip** — tiles skipped and post-warm-up skip rate;
* **traffic** — per-stream DRAM bytes (colors / texels / primitives /
  signatures ...);
* **counters** — every :class:`~repro.engine.stats.StatsRegistry`
  counter the runs recorded, including keys present on one side only
  (a technique's counters simply don't exist under another);
* **tile CRCs** — per-tile rendered-output divergence when both runs
  recorded their CRC matrices: how many tiles differ, in how many
  frames, and the first frame where outputs part ways.

:func:`render_diff` formats the result as aligned text tables.
"""

from __future__ import annotations

from ..errors import ReproError
from ..harness.reporting import format_table
from .store import RunRegistry, run_manifest

__all__ = [
    "diff_fleets",
    "diff_manifests",
    "diff_results",
    "diff_runs",
    "fleet_point_entries",
    "render_diff",
    "render_fleet_diff",
]


def _delta(a, b) -> dict:
    a = 0 if a is None else a
    b = 0 if b is None else b
    return {
        "a": a,
        "b": b,
        "delta": b - a,
        "ratio": (b / a) if a else None,
    }


def _identity(manifest: dict) -> dict:
    return {
        "run_id": manifest.get("run_id"),
        "kind": manifest.get("kind"),
        "alias": manifest.get("alias"),
        "technique": manifest.get("technique"),
        "num_frames": manifest.get("num_frames"),
        "config_digest": manifest.get("config_digest"),
        "git_rev": manifest.get("git_rev"),
    }


def _part_deltas(parts_a: dict, parts_b: dict) -> dict:
    deltas = {}
    for side in ("geometry", "raster"):
        bucket_a = parts_a.get(side, {})
        bucket_b = parts_b.get(side, {})
        for part in sorted(set(bucket_a) | set(bucket_b)):
            deltas[f"{side}.{part}"] = _delta(
                bucket_a.get(part, 0.0), bucket_b.get(part, 0.0)
            )
    return deltas


def _crc_divergence(crcs_a, crcs_b) -> dict:
    """Tile-level divergence between two ``(frames, tiles)`` matrices."""
    if crcs_a is None or crcs_b is None:
        return {"comparable": False,
                "reason": "one or both runs recorded no CRC matrix"}
    frames = min(len(crcs_a), len(crcs_b))
    # len(), not truthiness: the in-memory matrices are numpy arrays.
    tiles_a = len(crcs_a[0]) if len(crcs_a) else 0
    tiles_b = len(crcs_b[0]) if len(crcs_b) else 0
    if tiles_a != tiles_b:
        return {"comparable": False,
                "reason": f"tile grids differ ({tiles_a} vs {tiles_b})"}
    divergent_frames = []
    divergent_tiles = 0
    first_frame = None
    for index in range(frames):
        row_a, row_b = crcs_a[index], crcs_b[index]
        differing = sum(1 for a, b in zip(row_a, row_b) if a != b)
        if differing:
            divergent_tiles += differing
            divergent_frames.append((index, differing))
            if first_frame is None:
                first_frame = index
    return {
        "comparable": True,
        "frames_compared": frames,
        "tiles_per_frame": tiles_a,
        "extra_frames": abs(len(crcs_a) - len(crcs_b)),
        "divergent_tiles": divergent_tiles,
        "divergent_frames": divergent_frames,
        "first_divergent_frame": first_frame,
        "identical": divergent_tiles == 0 and len(crcs_a) == len(crcs_b),
    }


def diff_manifests(manifest_a: dict, manifest_b: dict,
                   crcs_a=None, crcs_b=None) -> dict:
    """Structured diff of two run manifests (see module docstring)."""
    for manifest in (manifest_a, manifest_b):
        if "summary" not in manifest:
            raise ReproError(
                f"manifest {manifest.get('run_id', '?')!r} has no summary "
                f"(kind {manifest.get('kind')!r} is not diffable as a run)"
            )
    sum_a = manifest_a["summary"]
    sum_b = manifest_b["summary"]
    counters_a = sum_a.get("counters") or {}
    counters_b = sum_b.get("counters") or {}
    return {
        "a": _identity(manifest_a),
        "b": _identity(manifest_b),
        "cycles": {
            "total": _delta(sum_a.get("total_cycles"),
                            sum_b.get("total_cycles")),
            "geometry": _delta(sum_a.get("geometry_cycles"),
                               sum_b.get("geometry_cycles")),
            "raster": _delta(sum_a.get("raster_cycles"),
                             sum_b.get("raster_cycles")),
            "parts": _part_deltas(sum_a.get("cycle_parts", {}),
                                  sum_b.get("cycle_parts", {})),
        },
        "energy": {
            "total_nj": _delta(sum_a.get("total_energy_nj"),
                               sum_b.get("total_energy_nj")),
            "gpu_nj": _delta(sum_a.get("gpu_energy_nj"),
                             sum_b.get("gpu_energy_nj")),
            "dram_nj": _delta(sum_a.get("dram_energy_nj"),
                              sum_b.get("dram_energy_nj")),
        },
        "skip": {
            "tiles_skipped": _delta(sum_a.get("tiles_skipped"),
                                    sum_b.get("tiles_skipped")),
            "skipped_fraction": _delta(sum_a.get("skipped_fraction"),
                                       sum_b.get("skipped_fraction")),
            "fragments_shaded": _delta(sum_a.get("fragments_shaded"),
                                       sum_b.get("fragments_shaded")),
        },
        "traffic": {
            stream: _delta(sum_a.get("traffic", {}).get(stream),
                           sum_b.get("traffic", {}).get(stream))
            for stream in sorted(set(sum_a.get("traffic", {}))
                                 | set(sum_b.get("traffic", {})))
        },
        "traffic_total": _delta(sum_a.get("total_traffic_bytes"),
                                sum_b.get("total_traffic_bytes")),
        "counters": {
            key: _delta(counters_a.get(key), counters_b.get(key))
            for key in sorted(set(counters_a) | set(counters_b))
        },
        "crc": _crc_divergence(crcs_a, crcs_b),
    }


def diff_runs(registry, ref_a: str, ref_b: str) -> dict:
    """Diff two registry runs by id (or unique id prefix)."""
    if not isinstance(registry, RunRegistry):
        registry = RunRegistry(registry)
    return diff_manifests(
        registry.manifest(ref_a), registry.manifest(ref_b),
        crcs_a=registry.crcs(ref_a), crcs_b=registry.crcs(ref_b),
    )


def diff_results(result_a, result_b) -> dict:
    """Diff two in-memory :class:`RunResult` objects directly.

    The same code path as the registry diff (results are projected
    through :func:`~repro.obs.store.run_manifest`), so tests can assert
    the diff reconciles with the results without touching disk.
    """
    return diff_manifests(
        run_manifest(result_a, git_rev=None),
        run_manifest(result_b, git_rev=None),
        crcs_a=result_a.tile_color_crcs,
        crcs_b=result_b.tile_color_crcs,
    )


def fleet_point_entries(registry, fleet_id: str) -> dict:
    """``point_id -> IndexEntry`` for every manifest stamped with one
    fleet id.

    Both sides of a fleet reconciliation produce these stamps: fleet
    workers stamp every manifest they record, and a single-host
    ``repro sweep --fleet-id NAME`` stamps the same ids (the point id
    is content-addressed, so the two runs' ids coincide exactly when
    their configs do).  Duplicate stamps keep the latest entry.
    """
    if not isinstance(registry, RunRegistry):
        registry = RunRegistry(registry)
    points = {}
    for entry in registry.query(kind="sweep-point"):
        summary = entry.summary or {}
        if summary.get("fleet_id") != fleet_id:
            continue
        point = summary.get("point_id")
        if point:
            points[point] = entry
    return points


def diff_fleets(registry, fleet_a: str, fleet_b: str) -> dict:
    """Point-for-point reconciliation of two fleet-stamped result sets.

    For every point id present on either side: compare the headline
    summary (total cycles, tiles skipped, final frame CRC) from the
    index, and the per-tile CRC matrices from the manifests' sidecars.
    A point is ``identical`` when every compared field matches and the
    CRC matrices (when both recorded) diverge nowhere.  Missing points
    on either side are reported — a fleet that lost a point to a crash
    shows up here, not as a silent shrug.
    """
    if not isinstance(registry, RunRegistry):
        registry = RunRegistry(registry)
    points_a = fleet_point_entries(registry, fleet_a)
    points_b = fleet_point_entries(registry, fleet_b)
    if not points_a and not points_b:
        raise ReproError(
            f"no sweep points stamped with fleet id {fleet_a!r} or "
            f"{fleet_b!r} in registry {registry.root} (run the fleet, "
            "or stamp a single-host sweep with --fleet-id)"
        )
    shared = sorted(set(points_a) & set(points_b))
    compared = []
    divergent = 0
    fields = ("total_cycles", "tiles_skipped", "skipped_fraction",
              "final_frame_crc")
    for point in shared:
        entry_a, entry_b = points_a[point], points_b[point]
        sum_a = entry_a.summary or {}
        sum_b = entry_b.summary or {}
        mismatches = [
            field for field in fields
            if sum_a.get(field) != sum_b.get(field)
        ]
        crc = _crc_divergence(registry.crcs(entry_a.run_id),
                              registry.crcs(entry_b.run_id))
        crc_identical = (not crc.get("comparable")) or crc["identical"]
        identical = not mismatches and crc_identical
        if not identical:
            divergent += 1
        compared.append({
            "point_id": point,
            "run_a": entry_a.run_id,
            "run_b": entry_b.run_id,
            "identical": identical,
            "mismatched_fields": {
                field: {"a": sum_a.get(field), "b": sum_b.get(field)}
                for field in mismatches
            },
            "crc": crc,
            "summary": {field: sum_a.get(field) for field in fields},
        })
    return {
        "fleet_a": fleet_a,
        "fleet_b": fleet_b,
        "points_a": len(points_a),
        "points_b": len(points_b),
        "compared": compared,
        "divergent": divergent,
        "only_a": sorted(set(points_a) - set(points_b)),
        "only_b": sorted(set(points_b) - set(points_a)),
        "identical": (divergent == 0 and len(points_a) == len(points_b)
                      and bool(shared)),
    }


def render_fleet_diff(diff: dict) -> str:
    """Text report of a :func:`diff_fleets` result."""
    lines = [
        f"fleet diff A={diff['fleet_a']} ({diff['points_a']} points) "
        f"B={diff['fleet_b']} ({diff['points_b']} points)"
    ]
    rows = []
    for point in diff["compared"]:
        summary = point["summary"]
        if point["identical"]:
            verdict = "identical"
        elif point["mismatched_fields"]:
            verdict = "DIVERGES: " + ",".join(point["mismatched_fields"])
        else:
            verdict = "DIVERGES: tile CRCs"
        rows.append([
            point["point_id"],
            summary.get("total_cycles"),
            summary.get("tiles_skipped"),
            summary.get("final_frame_crc"),
            verdict,
        ])
    if rows:
        lines.append(format_table(
            ["point", "cycles(A)", "skips(A)", "crc(A)", "verdict"],
            rows, float_format="{:.0f}",
        ))
    for side, missing in (("A", diff["only_b"]), ("B", diff["only_a"])):
        if missing:
            lines.append(
                f"missing on side {side}: {len(missing)} point(s): "
                + ", ".join(missing)
            )
    lines.append(
        "fleets reconcile point-for-point"
        if diff["identical"] else
        f"fleets DIVERGE: {diff['divergent']} of "
        f"{len(diff['compared'])} shared point(s) differ, "
        f"{len(diff['only_a']) + len(diff['only_b'])} unmatched"
    )
    return "\n".join(lines)


def _fmt_pct(entry: dict) -> str:
    ratio = entry.get("ratio")
    if ratio is None:
        return "n/a"
    return f"{100.0 * (ratio - 1.0):+.1f}%"


def render_diff(diff: dict, top_counters: int = 12) -> str:
    """Format a :func:`diff_manifests` result as text tables."""
    a, b = diff["a"], diff["b"]

    def label(identity: dict) -> str:
        run_id = identity.get("run_id") or "<memory>"
        rev = identity.get("git_rev")
        return (f"{run_id} ({identity.get('alias')}/"
                f"{identity.get('technique')}, "
                f"{identity.get('num_frames')} frames"
                + (f", git {rev}" if rev else "") + ")")

    lines = [f"diff A={label(a)}", f"     B={label(b)}"]
    if a.get("config_digest") != b.get("config_digest"):
        lines.append(
            f"configs differ: {a.get('config_digest')} vs "
            f"{b.get('config_digest')}"
        )

    cycles = diff["cycles"]
    lines.append("")
    rows = [
        [name, entry["a"], entry["b"], entry["delta"], _fmt_pct(entry)]
        for name, entry in (
            [("total", cycles["total"]), ("geometry", cycles["geometry"]),
             ("raster", cycles["raster"])]
            + sorted(cycles["parts"].items(),
                     key=lambda item: -abs(item[1]["delta"]))
        )
    ]
    lines.append("cycles:")
    lines.append(format_table(
        ["stage", "A", "B", "delta", "B/A"], rows, float_format="{:.0f}",
    ))

    skip = diff["skip"]
    lines.append("")
    frac = skip["skipped_fraction"]
    lines.append(
        f"tiles skipped: {skip['tiles_skipped']['a']} -> "
        f"{skip['tiles_skipped']['b']} "
        f"(skip rate {100 * frac['a']:.1f}% -> {100 * frac['b']:.1f}%); "
        f"fragments shaded {skip['fragments_shaded']['a']} -> "
        f"{skip['fragments_shaded']['b']}"
    )

    lines.append("")
    lines.append("DRAM traffic (bytes):")
    rows = [
        [stream, entry["a"], entry["b"], entry["delta"], _fmt_pct(entry)]
        for stream, entry in diff["traffic"].items()
    ]
    total = diff["traffic_total"]
    rows.append(["total", total["a"], total["b"], total["delta"],
                 _fmt_pct(total)])
    lines.append(format_table(["stream", "A", "B", "delta", "B/A"], rows))

    counters = {
        key: entry for key, entry in diff["counters"].items()
        if entry["delta"] != 0
    }
    lines.append("")
    if not diff["counters"]:
        lines.append("counters: none recorded")
    elif not counters:
        lines.append(
            f"counters: all {len(diff['counters'])} equal"
        )
    else:
        shown = sorted(
            counters.items(), key=lambda item: -abs(item[1]["delta"])
        )[:max(0, int(top_counters))]
        lines.append(
            f"counters: {len(counters)} of {len(diff['counters'])} differ"
            + (f" (top {len(shown)} by |delta|)"
               if len(shown) < len(counters) else "")
        )
        rows = [
            [key, entry["a"], entry["b"], entry["delta"]]
            for key, entry in shown
        ]
        lines.append(format_table(["counter", "A", "B", "delta"], rows))

    crc = diff["crc"]
    lines.append("")
    if not crc.get("comparable"):
        lines.append(f"tile CRCs: not comparable ({crc.get('reason')})")
    elif crc["identical"]:
        lines.append(
            f"tile CRCs: identical across all {crc['frames_compared']} "
            f"frames x {crc['tiles_per_frame']} tiles"
        )
    else:
        first = crc["first_divergent_frame"]
        lines.append(
            f"tile CRCs: {crc['divergent_tiles']} divergent tile(s) in "
            f"{len(crc['divergent_frames'])} of {crc['frames_compared']} "
            f"frames (first at frame {first})"
            + (f"; {crc['extra_frames']} frame(s) only in the longer run"
               if crc["extra_frames"] else "")
        )
    return "\n".join(lines)
