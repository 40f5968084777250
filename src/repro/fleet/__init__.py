"""Distributed sweep fabric coordinated through the run registry.

A fleet shards one sweep grid across N workers — separate processes,
optionally separate hosts — that share nothing but a registry
directory.  The registry's content-addressing already makes re-runs
safe (identical manifests dedupe to one ``run_id``); this package adds
the coordination half on top of plain atomic filesystem operations:

* :mod:`repro.fleet.points` — the fleet spec and its deterministic
  expansion into content-addressed sweep points (``point_id``), shared
  byte-for-byte with single-host :func:`repro.harness.sweeps.sweep`.
* :mod:`repro.fleet.claims` — the claim/lease/done protocol
  (``O_CREAT|O_EXCL`` single-winner claims, atomic renewal, lease
  expiry with single-winner stealing, exactly-once done records).
  These records are the fleet's only status.
* :mod:`repro.fleet.worker` — the worker: one supervised run fed
  lazily by the points it claims, renewing each lease per frame and,
  on each outcome, marking it done and recording the manifest; plus
  deterministic crash injection for testing requeue.
* :mod:`repro.fleet.coordinator` — views read from the claim, done and
  reaped records (claim map, per-worker table, stalled workers, the
  execute-wall histogram), orphaned-claim reaping, and the local
  N-process launcher CI uses to simulate a multi-host fleet.

See DESIGN §13 for the claim protocol, lease state machine and the
failure matrix.
"""

from .claims import ClaimStore
from .coordinator import FleetCoordinator, launch_fleet
from .points import FleetSpec, fleet_root, load_spec, point_id
from .worker import FleetWorker

__all__ = [
    "ClaimStore",
    "FleetCoordinator",
    "FleetSpec",
    "FleetWorker",
    "fleet_root",
    "launch_fleet",
    "load_spec",
    "point_id",
]
