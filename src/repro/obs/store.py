"""Run registry: content-addressed manifests for cross-run analysis.

The per-run observability layer (traces, metrics logs, reports) answers
"what happened inside *this* run"; the paper's evaluation, however, is
inherently *comparative* — every figure sets RE against baseline, TE and
memoization across ten games.  The registry is the cross-run half: every
run the harness executes can drop a **manifest** — what ran (alias,
technique, frames, :meth:`~repro.config.GpuConfig.digest`), where it ran
(git revision, command), what came out (the ``RunResult`` summary down
to per-stage cycle parts and registry counters) and where the heavy
artifacts live (trace, metrics log, checkpoint, journal) — into a
content-addressed store with a queryable append-only index::

    results/registry/
        index.jsonl            # one line per recorded manifest
        runs/<run_id>.json     # the full manifest, content-addressed
        runs/<run_id>.crcs.json  # optional per-tile CRC matrix

``run_id`` is the SHA-256 of the manifest's canonical JSON, so identical
manifests dedupe and every id is stable across machines.  The index
holds a light projection (id, kind, alias, technique, config digest,
git rev, created_at, headline numbers) so queries never open manifests.

Downstream consumers: ``python -m repro runs`` lists the index,
``python -m repro diff`` compares two manifests
(:mod:`repro.obs.diff`), ``python -m repro trend`` rolls fleet-stamped
sweep points up per fleet (:mod:`repro.obs.trend`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import time

from ..errors import ReproError

__all__ = [
    "RunRegistry",
    "append_jsonl_atomic",
    "claim_record",
    "done_record",
    "git_revision",
    "run_manifest",
    "validate_tenant",
]

#: Environment variable naming a registry root the CLI records into when
#: no ``--registry`` flag is given.
REGISTRY_ENV_VAR = "REPRO_REGISTRY"

#: Manifest kinds the registry understands (free-form strings are
#: accepted; these are the ones the harness emits).
KINDS = ("run", "sweep-point", "figure", "golden")

#: Registry-root names a tenant namespace may not shadow: the store's
#: own layout lives there.  ``fleet`` holds distributed-sweep state
#: (:mod:`repro.fleet`) — claims, leases, done records — not a tenant.
RESERVED_TENANTS = frozenset({"runs", "index.jsonl", "write_errors.jsonl",
                              "fleet"})

#: Schema tags for the fleet coordination records the registry layout
#: carries (see :mod:`repro.fleet.claims` for the protocol).
CLAIM_SCHEMA = "repro-fleet-claim-v1"
DONE_SCHEMA = "repro-fleet-done-v1"


def claim_record(point_id: str, fleet_id: str, worker: str,
                 lease_s: float, renewals: int = 0,
                 clock=time.time) -> dict:
    """A fleet claim/lease record: ``worker`` owns ``point_id`` until
    ``expires_at`` (the owner's clock; see DESIGN §13 on skew).  A claim
    is *created* atomically (``O_CREAT|O_EXCL``) and *renewed* by
    atomic replacement — both single-winner operations, so two workers
    can never believe they hold the same live lease."""
    now = clock()
    return {
        "schema": CLAIM_SCHEMA,
        "point_id": point_id,
        "fleet_id": fleet_id,
        "worker": worker,
        "pid": os.getpid(),
        "host": os.uname().nodename if hasattr(os, "uname") else None,
        "claimed_at": now,
        "lease_s": float(lease_s),
        "expires_at": now + float(lease_s),
        "renewals": int(renewals),
    }


def done_record(point_id: str, fleet_id: str, worker: str,
                summary: dict = None, run_id: str = None,
                state: str = "done", error: str = None,
                execute_s: float = None, clock=time.time) -> dict:
    """A fleet completion record — the exactly-once terminal marker for
    one sweep point (created ``O_CREAT|O_EXCL``, so even two workers
    racing a duplicated execution produce exactly one)."""
    return {
        "schema": DONE_SCHEMA,
        "point_id": point_id,
        "fleet_id": fleet_id,
        "worker": worker,
        "state": state,
        "run_id": run_id,
        "summary": summary,
        "error": error,
        "execute_s": execute_s,
        "completed_at": clock(),
    }


def append_jsonl_atomic(path, record: dict) -> None:
    """Append one JSONL record with a single ``O_APPEND`` write.

    Multiple processes (fleet workers sharing a registry directory)
    append concurrently; ``O_APPEND`` plus one ``os.write`` per record
    keeps every line intact — lines may interleave but never tear.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(os.fspath(path), os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                 0o666)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def validate_tenant(tenant) -> str:
    """Validate a tenant id for use as a registry namespace directory.

    Tenant ids come in over the service socket from clients, so they are
    hostile input the same way sweep point-tags are: an id that
    traverses out of the registry (``../../etc``), collides with the
    store's own layout (``runs``), or differs from its own sanitized
    form (two tenants silently sharing one directory) is rejected up
    front with a :class:`~repro.errors.TenantError` rather than
    surprising anyone at write time.  Returns the validated id.
    """
    from ..errors import TenantError
    from ..harness.parallel import sanitize_component

    if not isinstance(tenant, str) or not tenant:
        raise TenantError(
            f"tenant id must be a non-empty string, got {tenant!r}"
        )
    if len(tenant) > 64:
        raise TenantError(
            f"tenant id too long ({len(tenant)} > 64 chars): {tenant[:32]!r}..."
        )
    if tenant in RESERVED_TENANTS or tenant in (".", ".."):
        raise TenantError(
            f"tenant id {tenant!r} shadows the registry's own layout"
        )
    if os.sep in tenant or "/" in tenant or "\\" in tenant:
        raise TenantError(
            f"tenant id {tenant!r} contains a path separator"
        )
    if sanitize_component(tenant) != tenant:
        raise TenantError(
            f"tenant id {tenant!r} is not filesystem-safe; use only "
            "letters, digits, '.', '_', '=' and '-'"
        )
    return tenant


def git_revision(cwd=None) -> str:
    """Current git commit (short hash), or ``None`` outside a checkout.

    The hash gets a ``-dirty`` suffix when tracked files differ from
    that commit, so a manifest never claims a revision that did not
    render it.  ``REPRO_GIT_REV`` overrides (CI can stamp the exact rev
    without a work tree); failures of any kind degrade to ``None`` — a
    manifest without provenance beats no manifest.  ``git`` runs once
    per process and directory, so a long-lived service keeps reporting
    the revision of its first manifest.
    """
    override = os.environ.get("REPRO_GIT_REV")
    if override:
        return override
    try:
        cwd = os.path.realpath(os.getcwd() if cwd is None else cwd)
    except OSError:                     # the working directory is gone
        return None
    return _rev_parse(cwd)


@functools.lru_cache(maxsize=None)
def _rev_parse(cwd: str) -> str:
    # One ``git status`` answers both questions: its ``branch.oid``
    # header is the commit, and any entry line is a tracked change.
    try:
        out = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain=v2",
             "--branch", "--untracked-files=no"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    lines = out.stdout.splitlines()
    oid = next((line.split()[2] for line in lines
                if line.startswith("# branch.oid ")), None)
    if oid is None or oid == "(initial)":
        return None
    dirty = any(not line.startswith("#") for line in lines)
    return oid[:12] + ("-dirty" if dirty else "")


def _aggregate_cycle_parts(frames) -> dict:
    """Sum each stage part's cycles across a run's frames."""
    parts = {"geometry": {}, "raster": {}}
    for frame in frames:
        for side, bucket in (("geometry", frame.cycles.geometry_parts),
                             ("raster", frame.cycles.raster_parts)):
            totals = parts[side]
            for name, cycles in bucket.items():
                totals[name] = totals.get(name, 0.0) + cycles
    return parts


def _aggregate_traffic(result) -> dict:
    streams: dict = {}
    for frame in result.frames:
        for stream, nbytes in frame.traffic.items():
            streams[stream] = streams.get(stream, 0) + int(nbytes)
    return streams


def run_manifest(result, kind: str = "run", artifacts: dict = None,
                 extra: dict = None, git_rev: str = "auto",
                 created_at: float = None) -> dict:
    """Build a registry manifest from a :class:`~repro.harness.runner.RunResult`.

    The summary section is an *exact* projection of the RunResult
    aggregates — ``repro diff`` reports reconcile with the in-memory
    result to the last cycle because they are the same sums.
    """
    if git_rev == "auto":
        git_rev = git_revision()
    manifest = {
        "schema": "repro-run-manifest-v1",
        "kind": kind,
        "alias": result.alias,
        "technique": result.technique,
        "num_frames": result.num_frames,
        "config_digest": result.config.digest(),
        "config": result.config.to_dict(),
        "git_rev": git_rev,
        "created_at": time.time() if created_at is None else created_at,
        "summary": {
            "total_cycles": result.total_cycles,
            "geometry_cycles": result.geometry_cycles,
            "raster_cycles": result.raster_cycles,
            "cycle_parts": _aggregate_cycle_parts(result.frames),
            "total_energy_nj": result.total_energy_nj,
            "gpu_energy_nj": result.gpu_energy_nj,
            "dram_energy_nj": result.dram_energy_nj,
            "fragments_rasterized": result.fragments_rasterized,
            "fragments_shaded": result.fragments_shaded,
            "tiles_skipped": result.tiles_skipped,
            "skipped_fraction": result.skipped_fraction(),
            "warmup_frames": result.warmup_frames,
            "traffic": _aggregate_traffic(result),
            "total_traffic_bytes": result.total_traffic_bytes,
            "final_frame_crc": result.final_frame_crc,
            "counters": (
                dict(result.counters)
                if getattr(result, "counters", None) else None
            ),
        },
        "artifacts": {
            key: str(value)
            for key, value in (artifacts or {}).items() if value is not None
        },
    }
    if extra:
        manifest.update(extra)
    return manifest


@dataclasses.dataclass(frozen=True)
class IndexEntry:
    """One light row of the registry index."""

    run_id: str
    kind: str
    alias: str = None
    technique: str = None
    num_frames: int = None
    config_digest: str = None
    git_rev: str = None
    created_at: float = 0.0
    summary: dict = None

    @classmethod
    def from_record(cls, record: dict) -> "IndexEntry":
        return cls(**{
            field.name: record.get(field.name)
            for field in dataclasses.fields(cls)
        })


def _index_projection(run_id: str, manifest: dict) -> dict:
    """The light per-manifest row appended to ``index.jsonl``."""
    full = manifest.get("summary", {})
    summary = {
        key: full.get(key)
        for key in ("total_cycles", "total_energy_nj",
                    "total_traffic_bytes", "tiles_skipped",
                    "skipped_fraction", "final_frame_crc")
    }
    if "parameters" in manifest:
        summary["parameters"] = manifest["parameters"]
    # Fleet-stamped manifests keep their coordination identity in the
    # projection so `repro trend` and `repro diff --fleet` can group
    # points from the index without opening every manifest.
    for key in ("fleet_id", "point_id", "fleet_worker"):
        if key in manifest:
            summary[key] = manifest[key]
    return {
        "run_id": run_id,
        "kind": manifest.get("kind"),
        "alias": manifest.get("alias"),
        "technique": manifest.get("technique"),
        "num_frames": manifest.get("num_frames"),
        "config_digest": manifest.get("config_digest"),
        "git_rev": manifest.get("git_rev"),
        "created_at": manifest.get("created_at"),
        "summary": summary,
    }


#: Registry paths a write-failure warning has already been printed for in
#: this process, so a sweep hammering a broken registry warns once, not
#: once per cell.
_WARNED_PATHS: set = set()


class RunRegistry:
    """Content-addressed manifest store rooted at one directory."""

    def __init__(self, root) -> None:
        self.root = os.fspath(root)
        self.runs_dir = os.path.join(self.root, "runs")
        self.index_path = os.path.join(self.root, "index.jsonl")
        self.errors_path = os.path.join(self.root, "write_errors.jsonl")

    # Tenancy ------------------------------------------------------------
    def for_tenant(self, tenant: str) -> "RunRegistry":
        """The per-tenant namespace registry ``<root>/<tenant>/``.

        The service daemon records each tenant's runs into its own
        namespace so tenants never contend on one ``index.jsonl`` and a
        tenant's history can be shipped/aged independently.  The tenant
        id is validated (:func:`validate_tenant`) — traversal and
        layout-shadowing ids raise :class:`~repro.errors.TenantError`.
        """
        return RunRegistry(os.path.join(self.root, validate_tenant(tenant)))

    def tenants(self) -> list:
        """Tenant namespaces present under this registry root (names of
        subdirectories that are themselves registries), sorted."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for name in sorted(os.listdir(self.root)):
            if name in RESERVED_TENANTS:
                continue
            sub = os.path.join(self.root, name)
            if not os.path.isdir(sub):
                continue
            if (os.path.exists(os.path.join(sub, "index.jsonl"))
                    or os.path.exists(os.path.join(sub, "runs"))
                    or os.path.exists(
                        os.path.join(sub, "write_errors.jsonl"))):
                found.append(name)
        return found

    def tenant_write_errors(self) -> dict:
        """``{tenant: [error records]}`` across every tenant namespace
        (tenants with no recorded write failures are omitted).  The root
        namespace's own failures are under :meth:`write_errors`."""
        errors = {}
        for tenant in self.tenants():
            records = self.for_tenant(tenant).write_errors()
            if records:
                errors[tenant] = records
        return errors

    # Writing ------------------------------------------------------------
    def note_write_error(self, exc, path=None) -> None:
        """Log a failed registry write instead of dropping it silently:
        a once-per-path stderr warning plus a best-effort JSONL sidecar
        whose count ``repro runs`` surfaces as ``registry_write_errors``.
        """
        target = os.fspath(path) if path is not None else self.root
        if target not in _WARNED_PATHS:
            _WARNED_PATHS.add(target)
            print(
                f"warning: registry write to {target} failed: {exc}",
                file=sys.stderr,
            )
        record = {"ts": time.time(), "path": target, "error": str(exc)}
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(self.errors_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        except OSError:
            # The registry itself is unreachable; the stderr warning
            # above is all the signal left to give.
            pass

    def write_errors(self) -> list:
        """Write failures recorded by :meth:`note_write_error`, oldest
        first (empty when every write succeeded)."""
        if not os.path.exists(self.errors_path):
            return []
        errors = []
        with open(self.errors_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    errors.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return errors

    def record(self, manifest: dict, crcs=None) -> str:
        """Store a manifest; returns its content-addressed ``run_id``.

        ``crcs`` optionally attaches the run's per-tile CRC matrix
        (``(frames, tiles)`` of uint32) as a sibling artifact —
        ``repro diff`` uses it for tile-level divergence.  Re-recording
        an identical manifest is a no-op for the store but still appends
        an index row (the index is an event log; :meth:`entries` dedupes
        by id keeping the latest row).  A failed write is logged via
        :meth:`note_write_error` before the ``OSError`` propagates.
        """
        try:
            return self._record(manifest, crcs)
        except OSError as exc:
            self.note_write_error(exc)
            raise

    def _record(self, manifest: dict, crcs=None) -> str:
        os.makedirs(self.runs_dir, exist_ok=True)
        canonical = json.dumps(manifest, sort_keys=True, default=str)
        run_id = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        path = os.path.join(self.runs_dir, f"{run_id}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True,
                          default=str)
                handle.write("\n")
        if crcs is not None:
            crcs_path = os.path.join(self.runs_dir, f"{run_id}.crcs.json")
            with open(crcs_path, "w", encoding="utf-8") as handle:
                json.dump(
                    {"tile_color_crcs":
                     [[int(v) for v in row] for row in crcs]},
                    handle,
                )
                handle.write("\n")
        # Single O_APPEND write per row: fleet workers on other
        # processes/hosts append the same index concurrently.
        append_jsonl_atomic(
            self.index_path, _index_projection(run_id, manifest),
        )
        return run_id

    def compact_index(self) -> tuple:
        """Rewrite ``index.jsonl`` deduped by run id, atomically.

        The index is an event log — re-recording a manifest appends a
        fresh row, and a fleet multiplies append volume by its worker
        count — so long-lived registries accumulate redundant rows.
        Compaction keeps the *latest* row per run id (the same row
        :meth:`entries` would surface) in first-seen order and swaps the
        file in with ``os.replace``, so concurrent readers see either
        the old log or the compacted one, never a partial file.  Returns
        ``(kept, reclaimed)`` row counts.
        """
        if not os.path.exists(self.index_path):
            return (0, 0)
        rows: dict = {}
        order: list = []
        total = 0
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"{self.index_path}:{lineno}: bad index row: {exc}"
                    ) from None
                total += 1
                run_id = record.get("run_id")
                if run_id not in rows:
                    order.append(run_id)
                rows[run_id] = record
        tmp = f"{self.index_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for run_id in order:
                handle.write(json.dumps(rows[run_id], sort_keys=True) + "\n")
        os.replace(tmp, self.index_path)
        return (len(order), total - len(order))

    def record_run(self, result, kind: str = "run", artifacts: dict = None,
                   extra: dict = None, store_crcs: bool = True) -> str:
        """Record a :class:`RunResult` (manifest + optional CRC matrix)."""
        manifest = run_manifest(
            result, kind=kind, artifacts=artifacts, extra=extra,
        )
        crcs = result.tile_color_crcs if store_crcs else None
        if crcs is not None and getattr(crcs, "size", len(crcs)) == 0:
            crcs = None
        return self.record(manifest, crcs=crcs)

    # Reading ------------------------------------------------------------
    def entries(self) -> list:
        """Index rows as :class:`IndexEntry`, oldest first, deduped by
        run id (latest row wins), sorted by ``created_at`` then
        append order so trends read chronologically."""
        if not os.path.exists(self.index_path):
            return []
        rows: dict = {}
        order: list = []
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"{self.index_path}:{lineno}: bad index row: {exc}"
                    ) from None
                run_id = record.get("run_id")
                if run_id not in rows:
                    order.append(run_id)
                rows[run_id] = (lineno, record)
        entries = [
            IndexEntry.from_record(rows[run_id][1]) for run_id in order
        ]
        return sorted(
            entries,
            key=lambda e: (e.created_at or 0.0, rows[e.run_id][0]),
        )

    def query(self, kind: str = None, alias: str = None,
              technique: str = None, config_digest: str = None,
              git_rev: str = None) -> list:
        """Index entries matching every given filter, oldest first."""
        filters = {
            "kind": kind, "alias": alias, "technique": technique,
            "config_digest": config_digest, "git_rev": git_rev,
        }
        return [
            entry for entry in self.entries()
            if all(value is None or getattr(entry, name) == value
                   for name, value in filters.items())
        ]

    def resolve(self, ref: str) -> str:
        """Resolve a full or prefix run id (or manifest path) to an id."""
        ref = os.fspath(ref)
        if os.path.sep in ref or ref.endswith(".json"):
            # A manifest path: adopt its basename as the id if it lives
            # in this registry, else record-free load via manifest().
            stem = os.path.splitext(os.path.basename(ref))[0]
            if os.path.exists(os.path.join(self.runs_dir, f"{stem}.json")):
                return stem
            raise ReproError(f"{ref!r} is not in registry {self.root}")
        matches = sorted(
            name[:-len(".json")]
            for name in (os.listdir(self.runs_dir)
                         if os.path.isdir(self.runs_dir) else [])
            if name.endswith(".json") and not name.endswith(".crcs.json")
            and name.startswith(ref)
        )
        if not matches:
            raise ReproError(
                f"no run {ref!r} in registry {self.root} "
                f"(see `python -m repro runs`)"
            )
        if len(matches) > 1:
            raise ReproError(
                f"ambiguous run id {ref!r}: matches {matches[:6]}"
            )
        return matches[0]

    def manifest(self, ref: str) -> dict:
        """Load the full manifest for a run id (or unique prefix)."""
        run_id = self.resolve(ref)
        path = os.path.join(self.runs_dir, f"{run_id}.json")
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["run_id"] = run_id
        return manifest

    def crcs(self, ref: str):
        """The per-tile CRC matrix recorded beside a manifest, or ``None``."""
        run_id = self.resolve(ref)
        path = os.path.join(self.runs_dir, f"{run_id}.crcs.json")
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)["tile_color_crcs"]

    def find_golden(self, alias: str, technique: str, config_digest: str,
                    num_frames: int = None):
        """Latest ``kind="golden"`` entry pinning this exact point.

        A golden only binds when alias, technique and config digest all
        match — a golden recorded at one tile size never masks drift at
        another.  Returns the :class:`IndexEntry`, or ``None`` if this
        point has no recorded golden.
        """
        matches = [
            entry for entry in self.query(
                kind="golden", alias=alias, technique=technique,
                config_digest=config_digest,
            )
            if num_frames is None or entry.num_frames == num_frames
        ]
        return matches[-1] if matches else None
