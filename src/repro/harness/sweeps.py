"""Parameter sweeps: run one workload across a grid of configurations.

The benchmark harness's generic sweep driver: takes a base
:class:`~repro.config.GpuConfig`, a dict of parameter lists, and a
metric extractor, and returns one row per configuration.  The ablation
benchmarks are hand-rolled instances of this pattern; the sweep driver
exposes it as a public API so downstream users can explore the design
space (tile size x OT-queue depth x compare distance x ...) without
writing loops.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from ..config import GpuConfig
from ..errors import ReproError
from .parallel import Cell, run_cells, sanitize_component
from .runner import RunResult


@dataclasses.dataclass
class SweepPoint:
    """One configuration of a sweep and its run result."""

    parameters: dict
    run: RunResult

    def metric(self, name: str):
        """Common metrics by name, for quick tabulation."""
        metrics = {
            "total_cycles": self.run.total_cycles,
            "total_energy_nj": self.run.total_energy_nj,
            "fragments_shaded": self.run.fragments_shaded,
            "tiles_skipped": self.run.tiles_skipped,
            "skipped_fraction": self.run.skipped_fraction(),
            "traffic_bytes": self.run.total_traffic_bytes,
        }
        if name not in metrics:
            raise ReproError(
                f"unknown metric {name!r}; choose from {sorted(metrics)}"
            )
        return metrics[name]


def point_tag(alias: str, technique: str, assignment: dict) -> str:
    """Human-readable identity of one sweep point, used to name its
    per-point artifacts: ``cde-re-tile_size=8-ot_queue_entries=16``."""
    parts = [f"{name}={value}" for name, value in assignment.items()]
    return "-".join([alias, technique] + parts)


def _check_assignments(alias: str, technique: str,
                       assignments: typing.Sequence) -> list:
    """Per-point tags, with duplicate / sanitized-collision detection.

    Two parameter points that would fan out to the same artifact name —
    literal duplicates in a ``--set`` list, or distinct values whose
    sanitized forms coincide — would silently overwrite each other's
    trace/metrics files (and collapse to one cell under the supervisor),
    so both raise up front.
    """
    tags = [point_tag(alias, technique, a) for a in assignments]
    seen: dict = {}
    for tag, assignment in zip(tags, assignments):
        key = sanitize_component(tag)
        if key in seen:
            kind = ("duplicate parameter point"
                    if seen[key] == assignment else
                    "parameter points with colliding sanitized names")
            raise ReproError(
                f"{kind}: {seen[key]!r} vs {assignment!r} "
                f"(both map to {key!r}); deduplicate the --set values"
            )
        seen[key] = assignment
    return tags


def expand_grid(alias: str, technique: str, parameters: dict,
                base_config: GpuConfig = None,
                num_frames: int = 8) -> list:
    """Expand a parameter grid into ``(assignment, config, tag)`` triples.

    The single source of truth for how a sweep spec becomes concrete
    points: :func:`sweep` runs the triples directly, and the fleet
    (:mod:`repro.fleet.points`) derives its content-addressed point ids
    from the same expansion — which is what makes a fleet's points
    byte-identical to the equivalent single-host sweep.  Grid order
    follows ``itertools.product`` over ``parameters`` in insertion
    order; unknown config fields, duplicate points and sanitized-name
    collisions raise up front.
    """
    base_config = base_config or GpuConfig.small()
    names = list(parameters)
    for name in names:
        if not hasattr(base_config, name):
            raise ReproError(f"GpuConfig has no parameter {name!r}")

    assignments = []
    configs = []
    for values in itertools.product(*(parameters[n] for n in names)):
        assignment = dict(zip(names, values))
        assignments.append(assignment)
        configs.append(dataclasses.replace(base_config, **assignment))

    tags = _check_assignments(alias, technique, assignments)
    return list(zip(assignments, configs, tags))


def sweep(alias: str, technique: str, parameters: dict,
          base_config: GpuConfig = None, num_frames: int = 8,
          processes: int = None, policy=None, journal_path=None,
          fault_spec=None, trace_path=None, metrics_path=None,
          live=None) -> list:
    """Run ``alias`` under ``technique`` for every combination of
    ``parameters`` (a mapping of GpuConfig field name -> list of values).

    Returns a list of :class:`SweepPoint` in grid order.  Example::

        points = sweep("cde", "re",
                       {"tile_size": [8, 16, 32],
                        "ot_queue_entries": [16, 64]})

    Every point is one :class:`~repro.harness.parallel.Cell` and the
    grid runs through :func:`~repro.harness.parallel.run_cells`, so the
    rest of its arguments mean what they mean there: ``processes`` > 1
    fans the grid across that many supervised worker processes (the
    default runs serially and returns identical results); ``policy`` /
    ``journal_path`` / ``fault_spec`` set the supervisor's retry,
    timeout and checkpoint policy (:mod:`repro.harness.supervisor`);
    ``live`` accepts a :class:`~repro.obs.live.LiveAggregator`.

    With more than one point, each cell is tagged with its parameter
    assignment (:func:`point_tag`): the tag suffixes its ``trace_path``
    / ``metrics_path`` artifacts (``-tile_size=8-ot_queue_entries=16``)
    and names its live row and journal records.  A single point uses
    the paths verbatim.  Duplicate parameter points, or points whose
    sanitized names collide, raise up front instead of overwriting each
    other's artifacts.
    """
    base_config = base_config or GpuConfig.small()
    grid = expand_grid(alias, technique, parameters,
                       base_config=base_config, num_frames=num_frames)
    many = len(grid) > 1
    cells = [
        Cell(alias, technique, num_frames, config=config,
             tag=tag if many else None)
        for _, config, tag in grid
    ]
    results = run_cells(
        cells, config=base_config, processes=processes, policy=policy,
        journal_path=journal_path, fault_spec=fault_spec,
        trace_path=trace_path, metrics_path=metrics_path, live=live,
    )
    return [
        SweepPoint(parameters=assignment, run=results[cell])
        for (assignment, _, _), cell in zip(grid, cells)
    ]


def tabulate(points: typing.Sequence, metric: str) -> list:
    """Rows of (parameter values..., metric) for reporting."""
    rows = []
    for point in points:
        rows.append(list(point.parameters.values()) + [point.metric(metric)])
    return rows
