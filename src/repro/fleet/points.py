"""Fleet specs and their deterministic expansion into sweep points.

A fleet is one sweep grid — alias, technique, frame count, a config
preset plus overrides, and a parameter grid — frozen into a spec file
(``fleet.json``) every worker reads.  The spec expands into **points**
via the exact machinery single-host sweeps use
(:func:`repro.harness.sweeps.expand_grid`), and every point gets a
content-addressed ``point_id`` derived from what the simulation will
actually see (alias, technique, frames,
:meth:`~repro.config.GpuConfig.digest`).  Two consequences:

* A worker on any host expanding the same spec computes the same
  points in the same order with the same ids — no id exchange needed.
* A single-host ``repro sweep`` over the same grid produces manifests
  whose point ids match the fleet's, so ``repro diff --fleet`` can
  reconcile the two runs point-for-point.

Fleet state lives under the registry root, beside (not inside) the
tenant namespaces::

    <registry>/fleet/<fleet_id>/
        fleet.json         # the spec (this module)
        claims/<pid>.json  # live leases        (repro.fleet.claims)
        done/<pid>.json    # terminal records   (repro.fleet.claims)
        reaped/            # reaped expired leases, kept for forensics
        journal.jsonl      # the local launcher's event journal

Every fleet view is read from ``claims/``, ``done/`` and ``reaped/``
(:mod:`repro.fleet.coordinator`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import time

from ..config import GpuConfig
from ..errors import FleetError
from ..harness.sweeps import expand_grid

__all__ = [
    "FleetPoint",
    "FleetSpec",
    "SPEC_SCHEMA",
    "fleet_root",
    "list_fleets",
    "load_spec",
    "point_id",
]

SPEC_SCHEMA = "repro-fleet-v1"

#: Config presets a spec may name (mirrors the CLI ``--scale`` choices).
SCALES = ("small", "benchmark", "mali450")

_FLEET_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_fleet_id(fleet_id) -> str:
    """Fleet ids become directory names under the registry, so they get
    the same hostile-input treatment as tenant ids."""
    if not isinstance(fleet_id, str) or not _FLEET_ID_RE.match(fleet_id):
        raise FleetError(
            f"invalid fleet id {fleet_id!r}: need 1-64 chars from "
            "[A-Za-z0-9._-], not starting with a dot or dash"
        )
    return fleet_id


def fleet_root(registry_root, fleet_id: str) -> str:
    """Directory holding one fleet's coordination state."""
    return os.path.join(
        os.fspath(registry_root), "fleet", validate_fleet_id(fleet_id)
    )


def point_id(alias: str, technique: str, num_frames: int,
             config: GpuConfig) -> str:
    """Content-addressed identity of one sweep point.

    Hashes exactly what determines the simulation's output — alias,
    technique, frame count and the full config digest — so the id is
    stable across hosts, processes and time, and identical between a
    fleet worker and a single-host sweep of the same grid.
    """
    blob = f"{alias}|{technique}|{num_frames}|{config.digest()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class FleetPoint:
    """One expanded sweep point a worker can claim and execute."""

    point_id: str
    assignment: dict
    config: GpuConfig
    tag: str


@dataclasses.dataclass
class FleetSpec:
    """The frozen description of one fleet's work.

    ``parameters`` maps GpuConfig field name -> list of values (the
    sweep grid); ``overrides`` are scalar GpuConfig replacements applied
    on top of the ``scale`` preset *before* the grid (mirroring ``repro
    run --native``), so a fleet reproduces exactly what ``repro sweep
    --scale S --set k=v,...`` would run.
    """

    fleet_id: str
    alias: str
    technique: str
    num_frames: int
    parameters: dict
    scale: str = "small"
    overrides: dict = dataclasses.field(default_factory=dict)
    lease_s: float = 30.0
    created_at: float = None

    def __post_init__(self) -> None:
        validate_fleet_id(self.fleet_id)
        if self.scale not in SCALES:
            raise FleetError(
                f"unknown scale {self.scale!r}; choose from {SCALES}"
            )
        if not self.parameters:
            raise FleetError("a fleet needs a non-empty parameter grid")
        # NaN fails every comparison, so it must fail this one too: a
        # NaN lease is never renewed and never expires.
        if not 0 < self.lease_s < math.inf:
            raise FleetError(
                f"lease_s must be positive and finite, got {self.lease_s}"
            )
        # Canonical grid order: the spec file is written with sorted
        # keys, so expansion order must not depend on the insertion
        # order the constructor happened to see — otherwise a spec
        # stops matching its own recorded point ids after one JSON
        # round-trip.
        self.parameters = {
            name: list(self.parameters[name])
            for name in sorted(self.parameters)
        }

    # Expansion ----------------------------------------------------------
    def base_config(self) -> GpuConfig:
        config = getattr(GpuConfig, self.scale)()
        if self.overrides:
            try:
                config = dataclasses.replace(config, **self.overrides)
            except TypeError as exc:
                raise FleetError(f"bad config override: {exc}") from None
        return config

    def points(self) -> list:
        """Expand the grid into :class:`FleetPoint` in deterministic
        (grid) order — the same order on every host."""
        grid = expand_grid(
            self.alias, self.technique, self.parameters,
            base_config=self.base_config(), num_frames=self.num_frames,
        )
        return [
            FleetPoint(
                point_id=point_id(self.alias, self.technique,
                                  self.num_frames, config),
                assignment=assignment, config=config, tag=tag,
            )
            for assignment, config, tag in grid
        ]

    def point_ids(self) -> list:
        return [point.point_id for point in self.points()]

    # Persistence --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "fleet_id": self.fleet_id,
            "alias": self.alias,
            "technique": self.technique,
            "num_frames": self.num_frames,
            "parameters": self.parameters,
            "scale": self.scale,
            "overrides": self.overrides,
            "lease_s": self.lease_s,
            "created_at": self.created_at,
            "point_ids": self.point_ids(),
        }

    def save(self, registry_root) -> str:
        """Write ``fleet.json`` (and the fleet directory layout) under
        the registry.  Creating the same fleet id twice is an error —
        a spec is immutable once workers may have read it."""
        if self.created_at is None:
            self.created_at = time.time()
        root = fleet_root(registry_root, self.fleet_id)
        for sub in ("claims", "done", "reaped"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)
        path = os.path.join(root, "fleet.json")
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except FileExistsError:
            raise FleetError(
                f"fleet {self.fleet_id!r} already exists at {path}"
            ) from None
        try:
            os.write(fd, (payload + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return path


def load_spec(registry_root, fleet_id: str) -> FleetSpec:
    """Load a fleet spec a coordinator or worker will act on."""
    path = os.path.join(fleet_root(registry_root, fleet_id), "fleet.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise FleetError(
            f"no fleet {fleet_id!r} under {os.fspath(registry_root)} "
            f"(expected {path})"
        ) from None
    except json.JSONDecodeError as exc:
        raise FleetError(f"{path}: corrupt fleet spec: {exc}") from None
    if raw.get("schema") != SPEC_SCHEMA:
        raise FleetError(
            f"{path}: unsupported fleet schema {raw.get('schema')!r} "
            f"(this build reads {SPEC_SCHEMA})"
        )
    spec = FleetSpec(
        fleet_id=raw["fleet_id"], alias=raw["alias"],
        technique=raw["technique"], num_frames=raw["num_frames"],
        parameters=raw["parameters"], scale=raw.get("scale", "small"),
        overrides=raw.get("overrides") or {},
        lease_s=raw.get("lease_s", 30.0),
        created_at=raw.get("created_at"),
    )
    # Guard against spec/build skew: a worker whose expansion disagrees
    # with the recorded point set must not start claiming points.
    recorded = raw.get("point_ids")
    if recorded is not None and recorded != spec.point_ids():
        raise FleetError(
            f"{path}: point expansion mismatch — the spec records "
            f"{len(recorded)} point ids but this build expands to a "
            "different set (config defaults changed?)"
        )
    return spec


def list_fleets(registry_root) -> list:
    """Fleet ids present under a registry, sorted."""
    root = os.path.join(os.fspath(registry_root), "fleet")
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    return sorted(
        name for name in names
        if os.path.isfile(os.path.join(root, name, "fleet.json"))
    )
