"""Output checks: every failed check counts against ``failed``.

Simulation cells are checked against the committed goldens
(``results/goldens``, looked up with ``RunRegistry.find_golden``) and
against each other; service replies are checked for warm == cold and
for RE being lossless.  :func:`digest` fingerprints the simulated
outputs, which must repeat exactly across seeds and commits.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import GOLDEN_FRAMES


def cell_record(result) -> dict:
    """What the checks and the digest need from a ``RunResult``."""
    counters = result.counters or {}
    return {
        "crcs": np.asarray(result.tile_color_crcs, dtype=np.uint32),
        "final_frame_crc": int(result.final_frame_crc),
        "tiles_skipped": int(result.tiles_skipped),
        "total_cycles": float(result.total_cycles),
        "total_energy_nj": float(result.total_energy_nj),
        "total_traffic_bytes": int(result.total_traffic_bytes),
        "fragments_shaded": int(result.fragments_shaded),
        "prims_occlusion_culled": int(
            counters.get("tiling.prims_occlusion_culled", 0)),
    }


def check_sim(workload, records: dict, goldens_dir, quick: bool) -> list:
    """Failure descriptions for one pass; ``records`` maps
    ``(game, technique)`` to :func:`cell_record` output.

    * golden workloads: baseline and re match their golden CRC matrix
      (only its leading rows in ``--quick``, which renders fewer frames);
      on the plain suite also its skip count, cycles, energy and traffic,
      and under culling its skip count;
    * every workload: each te and re cell's image equals baseline's.
    """
    from repro.config import GpuConfig
    from repro.obs.store import RunRegistry

    failures = []
    registry = RunRegistry(goldens_dir) if workload.golden else None
    digest = GpuConfig.small().digest()
    for (game, technique), record in sorted(records.items()):
        label = f"{game}/{technique}"
        base = records.get((game, "baseline"))
        if technique == "re" and base is not None and \
                not np.array_equal(record["crcs"], base["crcs"]):
            failures.append(f"{label}: tile CRCs differ from baseline")
        if technique == "te" and base is not None and \
                record["final_frame_crc"] != base["final_frame_crc"]:
            failures.append(f"{label}: final frame CRC differs from baseline")
        if registry is None or technique not in ("baseline", "re"):
            continue
        entry = registry.find_golden(game, technique, digest, GOLDEN_FRAMES)
        golden = registry.crcs(entry.run_id) if entry is not None else None
        if golden is None:
            failures.append(f"{label}: no golden CRC matrix")
            continue
        golden = np.asarray(golden, dtype=np.uint32)
        if not np.array_equal(golden[:len(record["crcs"])], record["crcs"]):
            failures.append(f"{label}: tile CRCs differ from the golden")
        if quick:
            continue
        summary = entry.summary or {}
        fields = ("tiles_skipped",)
        if not workload.culled:
            fields += ("total_cycles", "total_energy_nj",
                       "total_traffic_bytes")
        for field in fields:
            if summary.get(field) != record[field]:
                failures.append(
                    f"{label}: {field} {record[field]!r} != golden "
                    f"{summary.get(field)!r}")
    return failures


def check_service(jobs: list) -> list:
    """Failure descriptions for the service's finished job projections:
    every job is ``done``, every request of a cell returns the same
    summary (warm == cold), and re's image equals baseline's."""
    failures = []
    summaries = {}
    for job in jobs:
        label = f"{job['game']}/{job['technique']}"
        if job["state"] != "done":
            failures.append(f"{job['job_id']} {label}: {job['state']} "
                            f"({job.get('error')})")
            continue
        first = summaries.setdefault((job["game"], job["technique"]),
                                     job["summary"])
        if job["summary"] != first:
            failures.append(f"{job['job_id']} {label}: summary differs from "
                            f"an earlier request of the same cell")
    for (game, technique), summary in sorted(summaries.items()):
        base = summaries.get((game, "baseline"))
        if technique == "re" and base is not None and \
                summary["final_frame_crc"] != base["final_frame_crc"]:
            failures.append(f"{game}/re: final frame CRC differs from "
                            f"baseline")
    return failures


def digest(records: dict) -> str:
    """SHA-256 over every cell's simulated outputs, in cell order."""
    hasher = hashlib.sha256()
    for key in sorted(records):
        record = dict(records[key])
        crcs = record.pop("crcs", None)
        hasher.update(json.dumps([key, record], sort_keys=True).encode())
        if crcs is not None:
            hasher.update(np.ascontiguousarray(crcs).tobytes())
    return hasher.hexdigest()[:16]


def simulated_summary(records: dict) -> dict:
    """The paper's headline numbers from baseline/re pairs, the way
    fig14a/fig14b compute them: speedup = 1 / mean(re / baseline cycles),
    energy saving = 1 - mean(re / baseline energy)."""
    games = sorted({game for game, technique in records
                    if technique == "re" and (game, "baseline") in records})
    if not games:
        return {}
    cycles = [records[(g, "re")]["total_cycles"]
              / records[(g, "baseline")]["total_cycles"] for g in games]
    energy = [records[(g, "re")]["total_energy_nj"]
              / records[(g, "baseline")]["total_energy_nj"] for g in games]
    return {
        "re_speedup_x": len(games) / sum(cycles),
        "re_energy_saving": 1.0 - sum(energy) / len(games),
    }
