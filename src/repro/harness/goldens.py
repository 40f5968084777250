"""Golden conformance baselines: registry-pinned output and model references.

A *golden* is a registry manifest (``kind="golden"``) plus its per-tile
CRC matrix, recorded for one ``(alias, technique, config, num_frames)``
point.  ``record_goldens`` renders those points and pins them;
``check_goldens`` re-renders and compares bit-for-bit — any drift in
rendered output (a changed CRC anywhere in the frames x tiles matrix)
fails the check with a diff naming the first divergent frames and
tiles, and so does any drift in RE's skip counts or in the modelled
activity: every registry counter (caches, stall cycles, traffic, ...)
and the run's total cycles, energy and traffic.

The committed registry at ``results/goldens`` is the conformance
baseline CI runs against (``tests/workloads/test_conformance.py``);
``repro goldens record`` refreshes it after an intentional output
change.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..config import GpuConfig
from ..errors import ReproError
from ..obs.store import RunRegistry
from ..workloads import all_workload_aliases
from .runner import run_workload

__all__ = [
    "GOLDEN_FRAMES",
    "GOLDEN_TECHNIQUES",
    "GoldenCheck",
    "GoldenReport",
    "check_goldens",
    "golden_config",
    "record_goldens",
]

#: Frames per golden run: past RE's warm-up (signature compare distance
#: is 1) and covering a full blink/pulse period of every pack scene's
#: dirty regions, while keeping a 17-alias x 2-technique sweep under
#: ~20 s of pure-Python rendering.
GOLDEN_FRAMES = 8

#: Techniques pinned per alias.  baseline is the reference image;
#: re must match it bit-for-bit (the paper's lossless-ness claim) and
#: additionally pins its skip counts.
GOLDEN_TECHNIQUES = ("baseline", "re")


def golden_config() -> GpuConfig:
    """The scale goldens are recorded at (the tier-1 ``small`` scale)."""
    return GpuConfig.small()


@dataclasses.dataclass
class GoldenCheck:
    """Outcome of checking one (alias, technique) point."""

    alias: str
    technique: str
    status: str  # "ok" | "missing" | "crc-drift" | "skip-drift" | "model-drift"
    golden_id: str = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass
class GoldenReport:
    """All checks of one ``check_goldens`` sweep."""

    checks: list
    config_digest: str
    num_frames: int

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list:
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        lines = [
            f"golden conformance: {len(self.checks)} points "
            f"@ config {self.config_digest} x {self.num_frames} frames",
        ]
        for check in self.checks:
            mark = "ok  " if check.ok else check.status
            line = f"  [{mark}] {check.alias}/{check.technique}"
            if check.detail:
                line += f": {check.detail}"
            lines.append(line)
        return "\n".join(lines)


def _crc_diff_detail(golden, fresh, max_sites: int = 4) -> str:
    """Human-readable first-divergence description of two CRC matrices."""
    golden = np.asarray(golden, dtype=np.uint32)
    fresh = np.asarray(fresh, dtype=np.uint32)
    if golden.shape != fresh.shape:
        return (
            f"matrix shape changed: golden {golden.shape} "
            f"vs fresh {fresh.shape}"
        )
    frames, tiles = np.nonzero(golden != fresh)
    if frames.size == 0:
        return ""
    sites = ", ".join(
        f"frame {f} tile {t} ({g:#010x} -> {n:#010x})"
        for f, t, g, n in zip(
            frames[:max_sites], tiles[:max_sites],
            golden[frames[:max_sites], tiles[:max_sites]],
            fresh[frames[:max_sites], tiles[:max_sites]],
        )
    )
    more = "" if frames.size <= max_sites else f" (+{frames.size - max_sites} more)"
    return (
        f"{frames.size}/{golden.size} tile CRCs diverge across "
        f"{len(set(frames.tolist()))} frames: {sites}{more}"
    )


#: Run totals pinned next to the registry counters.
MODEL_TOTALS = ("total_cycles", "total_energy_nj", "total_traffic_bytes")

#: Float totals: summed with the built-in ``sum``, whose last bits differ
#: between Python versions (3.12 compensates float summation), so they are
#: compared to a relative tolerance.  On a golden run's ~1e6 cycles it
#: allows ~1e-3 cycles; one stall cycle of drift is ~1e-6 relative.  The
#: registry counters and traffic bytes are integers, compared exactly.
FLOAT_TOTALS = ("total_cycles", "total_energy_nj")
FLOAT_REL_TOL = 1e-9


def _same_model_value(key: str, golden, fresh) -> bool:
    if key in FLOAT_TOTALS and golden is not None and fresh is not None:
        return math.isclose(golden, fresh, rel_tol=FLOAT_REL_TOL)
    return golden == fresh


def _model_drift_detail(summary: dict, result, max_keys: int = 4) -> str:
    """First registry counters and run totals whose fresh values differ
    from the golden manifest's summary, as ``key golden -> fresh``."""
    golden = dict(summary.get("counters") or {})
    fresh = {key: (result.counters or {}).get(key) for key in golden}
    for key in MODEL_TOTALS:
        golden[key] = summary.get(key)
        fresh[key] = getattr(result, key)
    drifted = [key for key in golden
               if not _same_model_value(key, golden[key], fresh[key])]
    if not drifted:
        return ""
    sites = ", ".join(
        f"{key} {golden[key]!r} -> {fresh[key]!r}"
        for key in drifted[:max_keys]
    )
    more = ("" if len(drifted) <= max_keys
            else f" (+{len(drifted) - max_keys} more)")
    return f"{len(drifted)}/{len(golden)} model values drift: {sites}{more}"


def _run_points(aliases, config, num_frames, techniques):
    for alias in aliases:
        results = {}
        for technique in techniques:
            results[technique] = run_workload(
                alias, technique, config=config, num_frames=num_frames,
            )
        yield alias, results


def record_goldens(registry: RunRegistry, aliases=None,
                   config: GpuConfig = None, num_frames: int = None,
                   techniques=GOLDEN_TECHNIQUES, progress=None) -> list:
    """Render and pin golden manifests; returns the recorded run ids.

    Before recording anything the baseline-vs-RE CRC matrices are
    cross-checked — a golden refresh can never pin a state where RE is
    not bit-identical to baseline.
    """
    aliases = list(aliases) if aliases else all_workload_aliases()
    config = config or golden_config()
    num_frames = num_frames or GOLDEN_FRAMES
    recorded = []
    for alias, results in _run_points(aliases, config, num_frames,
                                      techniques):
        if "baseline" in results and "re" in results:
            detail = _crc_diff_detail(
                results["baseline"].tile_color_crcs,
                results["re"].tile_color_crcs,
            )
            if detail:
                raise ReproError(
                    f"refusing to record goldens: re is not bit-identical "
                    f"to baseline for {alias!r}: {detail}"
                )
        for technique, result in results.items():
            run_id = registry.record_run(result, kind="golden")
            recorded.append(run_id)
            if progress:
                progress(f"golden {alias}/{technique} -> {run_id}")
    return recorded


def check_goldens(registry: RunRegistry, aliases=None,
                  config: GpuConfig = None, num_frames: int = None,
                  techniques=GOLDEN_TECHNIQUES,
                  progress=None) -> GoldenReport:
    """Re-render every golden point and compare against the registry.

    Each point is checked for (1) a recorded golden existing at this
    exact (alias, technique, config digest, frame count), (2) the fresh
    per-tile CRC matrix matching the pinned one bit-for-bit, (3) for
    RE, the pinned skip count, and (4) every pinned registry counter
    and the total traffic exactly, and total cycles and energy to
    :data:`FLOAT_REL_TOL` (``model-drift``: output can stay exact while
    the memory or timing model moves).
    Cross-technique bit-identity (baseline vs re) is asserted on the
    *fresh* results too, so the check catches a lossy regression even
    before goldens are consulted.
    """
    aliases = list(aliases) if aliases else all_workload_aliases()
    config = config or golden_config()
    num_frames = num_frames or GOLDEN_FRAMES
    digest = config.digest()
    checks = []
    for alias, results in _run_points(aliases, config, num_frames,
                                      techniques):
        if "baseline" in results and "re" in results:
            detail = _crc_diff_detail(
                results["baseline"].tile_color_crcs,
                results["re"].tile_color_crcs,
            )
            if detail:
                checks.append(GoldenCheck(
                    alias, "re", "crc-drift",
                    detail=f"re not bit-identical to baseline: {detail}",
                ))
        for technique, result in results.items():
            entry = registry.find_golden(alias, technique, digest,
                                         num_frames)
            if entry is None:
                checks.append(GoldenCheck(
                    alias, technique, "missing",
                    detail=(
                        f"no golden for config {digest} x {num_frames} "
                        f"frames (run `repro goldens record`)"
                    ),
                ))
                continue
            golden_crcs = registry.crcs(entry.run_id)
            if golden_crcs is None:
                checks.append(GoldenCheck(
                    alias, technique, "missing", golden_id=entry.run_id,
                    detail="golden manifest has no CRC matrix",
                ))
                continue
            detail = _crc_diff_detail(golden_crcs, result.tile_color_crcs)
            if detail:
                checks.append(GoldenCheck(
                    alias, technique, "crc-drift", golden_id=entry.run_id,
                    detail=detail,
                ))
                continue
            pinned_skips = (entry.summary or {}).get("tiles_skipped")
            if pinned_skips is not None and \
                    pinned_skips != result.tiles_skipped:
                checks.append(GoldenCheck(
                    alias, technique, "skip-drift", golden_id=entry.run_id,
                    detail=(
                        f"tiles_skipped {result.tiles_skipped} != "
                        f"golden {pinned_skips}"
                    ),
                ))
                continue
            detail = _model_drift_detail(
                registry.manifest(entry.run_id)["summary"], result
            )
            if detail:
                checks.append(GoldenCheck(
                    alias, technique, "model-drift",
                    golden_id=entry.run_id, detail=detail,
                ))
                continue
            checks.append(GoldenCheck(alias, technique, "ok",
                                      golden_id=entry.run_id))
        if progress:
            progress(f"checked {alias}")
    return GoldenReport(checks, digest, num_frames)
