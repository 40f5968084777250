"""One experiment per paper table and figure.

Every public function regenerates the rows/series of one figure or table
of the paper's evaluation, returning an :class:`ExperimentResult` whose
``rows`` carry the numbers and whose ``table()`` renders them like the
paper presents them.  Runs are cached per (game, technique, config,
frames) so the benchmark files can share one simulation pass.

The paper's absolute numbers came from traced commercial games on the
authors' simulator; this reproduction targets the *shape*: who wins, by
roughly what factor, where the crossovers fall.  EXPERIMENTS.md records
paper-vs-measured for each experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

import numpy as np

from ..config import GpuConfig
from ..errors import ReproError
from ..harness import reporting
from ..workloads.games import FIGURE_ORDER, PSEUDO_WORKLOADS, build_scene
from .classify import classify_run, equal_tiles_fraction
from .runner import RunResult, run_workload

#: Display frame rate assumed when converting cycles to wall time for
#: the Fig. 1 power/load calculation.
TARGET_FPS = 30


@dataclasses.dataclass
class ExperimentResult:
    """Output of one experiment: identification plus tabular data."""

    experiment_id: str
    title: str
    headers: list
    rows: list
    notes: str = ""

    def table(self) -> str:
        return reporting.format_table(self.headers, self.rows)

    def row_map(self) -> dict:
        """First column -> row, for the benchmark assertions."""
        return {row[0]: row for row in self.rows}


class RunCache:
    """Memoizes :func:`run_workload` across experiments.

    ``registry`` optionally names a :class:`~repro.obs.store.RunRegistry`
    (or its root directory): every cell the cache simulates is then also
    recorded as a ``kind="figure"`` manifest, so figure regeneration
    leaves a cross-run-diffable record beside its tables.
    """

    def __init__(self, config: GpuConfig = None, num_frames: int = 50,
                 registry=None) -> None:
        self.config = config or GpuConfig.benchmark()
        self.num_frames = num_frames
        self._runs: dict = {}
        if registry is not None and not hasattr(registry, "record_run"):
            from ..obs.store import RunRegistry

            registry = RunRegistry(registry)
        self.registry = registry

    def _key(self, alias: str, technique: str) -> tuple:
        return (alias, technique, self.config.digest(), self.num_frames)

    def _register(self, run: RunResult) -> None:
        if self.registry is None:
            return
        try:
            self.registry.record_run(run, kind="figure")
        except OSError:
            # Best-effort, but never silent: record() already routed the
            # failure through RunRegistry.note_write_error (once-per-path
            # warning + write_errors sidecar for `repro runs`).
            pass
        except ReproError as exc:
            self.registry.note_write_error(exc)

    def run(self, alias: str, technique: str) -> RunResult:
        key = self._key(alias, technique)
        if key not in self._runs:
            self._runs[key] = run_workload(
                alias, technique, config=self.config,
                num_frames=self.num_frames,
            )
            self._register(self._runs[key])
        return self._runs[key]

    def runs(self, technique: str, aliases: typing.Sequence = FIGURE_ORDER):
        return [self.run(alias, technique) for alias in aliases]

    def prefetch(self, techniques: typing.Sequence,
                 aliases: typing.Sequence = FIGURE_ORDER,
                 processes: int = None, policy=None,
                 journal_path=None, fault_spec=None) -> int:
        """Populate the cache for an ``aliases x techniques`` grid,
        optionally fanning the missing cells across ``processes``
        supervised workers (see :func:`repro.harness.parallel.run_cells`).
        Returns the number of cells actually simulated.

        ``policy`` / ``journal_path`` / ``fault_spec`` set the
        supervisor's policy (:mod:`repro.harness.supervisor`): timed-out
        or crashed cells are retried from their last checkpoint instead
        of taking the whole prefetch down.  Without them a failed cell
        raises :class:`~repro.errors.SupervisionError` unretried.
        """
        from .parallel import Cell, run_cells

        missing = [
            (alias, technique)
            for alias in aliases for technique in techniques
            if self._key(alias, technique) not in self._runs
        ]
        if not missing:
            return 0
        cells = [
            Cell(alias, technique, self.num_frames)
            for alias, technique in missing
        ]
        results = run_cells(
            cells, config=self.config, processes=processes, policy=policy,
            journal_path=journal_path, fault_spec=fault_spec,
        )
        for cell, run in results.items():
            self._runs[self._key(cell.alias, cell.technique)] = run
            self._register(run)
        return len(missing)


# ----------------------------------------------------------------------
# Motivation and setup
# ----------------------------------------------------------------------

#: Fraction of display refreshes each workload actually redraws.  Games
#: render every vsync; the Android desktop (without animations) only
#: composites when something is damaged, which is why Fig. 1 shows it
#: leaving the GPU mostly idle.
REDRAW_FRACTION = {"desktop": 0.05}


def fig01_power_motivation(cache: RunCache) -> ExperimentResult:
    """Fig. 1: average power and normalized GPU load per application.

    Simulated analog of the Trepn measurements: energy over simulated
    wall time (cycles at the configured clock), with the GPU load the
    fraction of a 30-fps frame budget the GPU is busy.  Each workload's
    energy is scaled by its redraw duty cycle (games redraw every frame;
    the desktop only on damage).
    """
    rows = []
    clock_hz = cache.config.clock_mhz * 1e6
    budget_cycles = clock_hz / TARGET_FPS
    workloads = list(PSEUDO_WORKLOADS[:1]) + list(FIGURE_ORDER) + ["antutu"]
    for alias in workloads:
        run = cache.run(alias, "baseline")
        redraw = REDRAW_FRACTION.get(alias, 1.0)
        cycles_per_frame = run.total_cycles / run.num_frames * redraw
        seconds = run.num_frames / TARGET_FPS
        power_mw = run.total_energy_nj * redraw / seconds * 1e-6
        load = min(1.0, cycles_per_frame / budget_cycles)
        rows.append([alias, power_mw, 100.0 * load])
    return ExperimentResult(
        experiment_id="fig01",
        title="Average power (mW) and normalized GPU load (%)",
        headers=["workload", "avg_power_mw", "gpu_load_pct"],
        rows=rows,
        notes="desktop should be cheapest; games comparable to antutu.",
    )


def fig02_equal_tiles(cache: RunCache) -> ExperimentResult:
    """Fig. 2: % of tiles with the same color as the preceding frame."""
    rows = []
    for alias in FIGURE_ORDER:
        run = cache.run(alias, "re")
        rows.append([alias, 100.0 * equal_tiles_fraction(run, distance=1)])
    values = [row[1] for row in rows]
    rows.append(["AVG", sum(values) / len(values)])
    return ExperimentResult(
        experiment_id="fig02",
        title="Equal-color tiles across consecutive frames (%)",
        headers=["game", "equal_tiles_pct"],
        rows=rows,
    )


def table1_parameters(config: GpuConfig = None) -> ExperimentResult:
    """Table I: the simulated GPU's parameters."""
    config = config or GpuConfig.mali450()
    rows = [
        ["clock", f"{config.clock_mhz} MHz"],
        ["screen", f"{config.screen_width}x{config.screen_height}"],
        ["tile size", f"{config.tile_size}x{config.tile_size}"],
        ["main memory latency",
         f"{config.dram_latency_min_cycles}-{config.dram_latency_max_cycles} cycles"],
        ["main memory bandwidth", f"{config.dram_bytes_per_cycle} bytes/cycle"],
        ["vertex cache", f"{config.vertex_cache.size_bytes // 1024} KB"],
        ["texture caches",
         f"{config.num_texture_caches}x {config.texture_cache.size_bytes // 1024} KB"],
        ["tile cache", f"{config.tile_cache.size_bytes // 1024} KB"],
        ["L2 cache", f"{config.l2_cache.size_bytes // 1024} KB"],
        ["vertex processors", str(config.num_vertex_processors)],
        ["fragment processors", str(config.num_fragment_processors)],
        ["raster throughput",
         f"{config.raster_attributes_per_cycle} attributes/cycle"],
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="GPU simulation parameters",
        headers=["parameter", "value"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Main results (Figs. 14-15)
# ----------------------------------------------------------------------

def fig14a_execution_cycles(cache: RunCache) -> ExperimentResult:
    """Fig. 14a: normalized execution cycles, Base vs RE, split into
    Geometry and Raster pipeline cycles."""
    rows = []
    speedups = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        re = cache.run(alias, "re")
        norm = base.total_cycles
        rows.append([
            alias,
            base.geometry_cycles / norm,
            base.raster_cycles / norm,
            re.geometry_cycles / norm,
            re.raster_cycles / norm,
            base.total_cycles / re.total_cycles,
        ])
        speedups.append(base.total_cycles / re.total_cycles)
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 5)
    ]
    # The paper's "1.74x average" is the reciprocal of the average
    # normalized RE cycles, not the mean of per-game speedups.
    avg_norm_re = avg[3] + avg[4]
    avg.append(1.0 / avg_norm_re if avg_norm_re else 0.0)
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig14a",
        title="Normalized execution cycles (Base vs RE)",
        headers=["game", "base_geom", "base_raster", "re_geom",
                 "re_raster", "speedup"],
        rows=rows,
        notes=f"paper: 1.74x average speedup (1/avg normalized); "
              f"per-game geomean here {reporting.geomean(speedups):.2f}x",
    )


def fig14b_energy(cache: RunCache) -> ExperimentResult:
    """Fig. 14b: normalized energy, Base vs RE, split GPU vs memory."""
    rows = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        re = cache.run(alias, "re")
        norm = base.total_energy_nj
        rows.append([
            alias,
            base.gpu_energy_nj / norm,
            base.dram_energy_nj / norm,
            re.gpu_energy_nj / norm,
            re.dram_energy_nj / norm,
            1.0 - re.total_energy_nj / norm,
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 6)
    ]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig14b",
        title="Normalized energy (Base vs RE), GPU vs main memory",
        headers=["game", "base_gpu", "base_mem", "re_gpu", "re_mem",
                 "energy_saving"],
        rows=rows,
        notes="paper: 43% average energy reduction.",
    )


def fig15a_tile_classes(cache: RunCache) -> ExperimentResult:
    """Fig. 15a: tiles by (color, input) equality across neighbors."""
    rows = []
    for alias in FIGURE_ORDER:
        run = cache.run(alias, "re")
        classes = classify_run(run, distance=1)
        fractions = classes.fractions()
        rows.append([
            alias,
            100.0 * fractions.get("eq_colors_eq_inputs", 0.0),
            100.0 * fractions.get("eq_colors_diff_inputs", 0.0),
            100.0 * fractions.get("diff_colors_diff_inputs", 0.0),
            classes.diff_colors_eq_inputs,   # must be zero
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 4)
    ] + [sum(row[4] for row in rows)]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig15a",
        title="Tile classes across neighboring frames (%)",
        headers=["game", "eq_colors_eq_inputs", "eq_colors_diff_inputs",
                 "diff_colors_diff_inputs", "false_positives"],
        rows=rows,
        notes="paper: 50% / 12% / 38% average; zero false positives.",
    )


def fig15b_memory_traffic(cache: RunCache) -> ExperimentResult:
    """Fig. 15b: Raster Pipeline DRAM traffic normalized to baseline,
    split into primitive reads, texel fetches and color flushes."""
    rows = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        re = cache.run(alias, "re")
        norm = max(1, base.traffic_bytes("primitives")
                   + base.traffic_bytes("texels")
                   + base.traffic_bytes("colors"))
        rows.append([
            alias,
            re.traffic_bytes("colors") / norm,
            re.traffic_bytes("texels") / norm,
            re.traffic_bytes("primitives") / norm,
            (re.traffic_bytes("colors") + re.traffic_bytes("texels")
             + re.traffic_bytes("primitives")) / norm,
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 5)
    ]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig15b",
        title="RE raster-pipeline DRAM traffic normalized to baseline",
        headers=["game", "colors", "texels", "primitives", "total"],
        rows=rows,
        notes="paper: 48% average traffic reduction (total ~0.52).",
    )


# ----------------------------------------------------------------------
# Comparisons (Figs. 16-17)
# ----------------------------------------------------------------------

def fig16_memoization(cache: RunCache) -> ExperimentResult:
    """Fig. 16: fragments shaded under RE and under PFR-aided Fragment
    Memoization, normalized to the baseline."""
    rows = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        re = cache.run(alias, "re")
        memo = cache.run(alias, "memo")
        norm = max(1, base.fragments_shaded)
        rows.append([
            alias,
            re.fragments_shaded / norm,
            memo.fragments_shaded / norm,
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 3)
    ]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig16",
        title="Fragments shaded, normalized to baseline",
        headers=["game", "re", "memo"],
        rows=rows,
        notes="paper: RE reuses ~2x more than memoization except hop.",
    )


def fig17a_te_cycles(cache: RunCache) -> ExperimentResult:
    """Fig. 17a: normalized cycles, TE vs RE."""
    rows = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        te = cache.run(alias, "te")
        re = cache.run(alias, "re")
        norm = base.total_cycles
        rows.append([
            alias, te.total_cycles / norm, re.total_cycles / norm,
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 3)
    ]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig17a",
        title="Normalized execution cycles (TE vs RE)",
        headers=["game", "te", "re"],
        rows=rows,
        notes="paper: TE barely improves cycles; RE averages 0.58.",
    )


def fig17b_te_energy(cache: RunCache) -> ExperimentResult:
    """Fig. 17b: normalized energy, TE vs RE."""
    rows = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        te = cache.run(alias, "te")
        re = cache.run(alias, "re")
        norm = base.total_energy_nj
        rows.append([
            alias, te.total_energy_nj / norm, re.total_energy_nj / norm,
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 3)
    ]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="fig17b",
        title="Normalized energy (TE vs RE)",
        headers=["game", "te", "re"],
        rows=rows,
        notes="paper: TE saves ~9% energy on average, RE ~43%.",
    )


# ----------------------------------------------------------------------
# Section V text experiments
# ----------------------------------------------------------------------

def re_overheads(cache: RunCache) -> ExperimentResult:
    """Section V text: RE's geometry-cycle overhead (paper: 0.64%
    additional geometry cycles on average) and its energy overhead
    (paper: <0.5% of total)."""
    rows = []
    for alias in FIGURE_ORDER:
        base = cache.run(alias, "baseline")
        re = cache.run(alias, "re")
        geom_overhead = sum(f.geometry_overhead_cycles for f in re.frames)
        compare_overhead = sum(f.raster_overhead_cycles for f in re.frames)
        technique_energy = sum(f.energy.technique_nj for f in re.frames)
        rows.append([
            alias,
            100.0 * geom_overhead / max(1.0, base.geometry_cycles),
            100.0 * compare_overhead / max(1.0, base.raster_cycles),
            100.0 * technique_energy / max(1.0, base.total_energy_nj),
        ])
    avg = ["AVG"] + [
        sum(row[i] for row in rows) / len(rows) for i in range(1, 4)
    ]
    rows.append(avg)
    return ExperimentResult(
        experiment_id="re_overheads",
        title="RE overheads relative to baseline (%)",
        headers=["game", "geometry_stall_pct", "compare_pct",
                 "energy_overhead_pct"],
        rows=rows,
        notes="paper: 0.64% geometry overhead, <0.5% energy overhead.",
    )


def hash_quality(config: GpuConfig = None, num_frames: int = 12,
                 aliases: typing.Sequence = None) -> ExperimentResult:
    """Section V text: CRC32 versus weaker XOR-family hashes.

    Builds every tile's actual input message per frame (geometry-only
    replay) and counts, for each hash scheme, false positives — pairs of
    consecutive-frame tiles whose hashes match while the underlying
    bytes differ (verified against a 128-bit reference digest).  A false
    positive would make RE reuse a stale tile.
    """
    from ..hashing import XOR_SCHEMES, crc32_table
    config = config or GpuConfig.benchmark()
    aliases = aliases or FIGURE_ORDER
    schemes = dict(XOR_SCHEMES)
    schemes["crc32"] = crc32_table

    false_positives = {name: 0 for name in schemes}
    matches = {name: 0 for name in schemes}
    comparisons = 0

    for alias in aliases:
        digests = _tile_message_digests(alias, config, num_frames, schemes)
        strong = digests.pop("_strong")
        for name, values in digests.items():
            same_hash = values[1:] == values[:-1]
            same_bytes = strong[1:] == strong[:-1]
            matches[name] += int(same_hash.sum())
            false_positives[name] += int((same_hash & ~same_bytes).sum())
        comparisons += strong[1:].size

    rows = [
        [name, matches[name], false_positives[name]]
        for name in sorted(schemes)
    ]
    return ExperimentResult(
        experiment_id="hash_quality",
        title=f"Hash quality over {comparisons} tile comparisons",
        headers=["scheme", "matches", "false_positives"],
        rows=rows,
        notes="paper: zero CRC32 false positives observed.",
    )


def _tile_message_digests(alias: str, config: GpuConfig, num_frames: int,
                          schemes: dict) -> dict:
    """Per-frame per-tile hashes of the true tile input messages, plus a
    128-bit reference digest under key ``_strong``."""
    from ..memory.hierarchy import MemoryHierarchy
    from ..pipeline.command_processor import CommandProcessor
    from ..pipeline.primitive_assembly import PrimitiveAssembly
    from ..pipeline.tiling import PolygonListBuilder
    from ..pipeline.vertex_stage import VertexStage

    scene = build_scene(alias)
    results = {name: np.zeros((num_frames, config.num_tiles), dtype=np.uint64)
               for name in schemes}
    strong = np.zeros((num_frames, config.num_tiles), dtype=np.uint64)

    for frame_index, stream in enumerate(scene.frames(num_frames)):
        messages = [bytearray() for _ in range(config.num_tiles)]

        class Collector:
            """Replays the Signature Unit's framing, storing raw bytes."""

            def __init__(self):
                self._constants = b""
                self._version = None
                self._seen = np.zeros(config.num_tiles, dtype=bool)

            def on_draw_state(self, state):
                if state.constants_version != self._version:
                    self._version = state.constants_version
                    self._constants = state.constants_bytes()
                    self._seen[:] = False

            def on_drawcall(self, batch, prims, tiles):
                blocks = [row.tobytes() for row in batch.attributes]
                for prim, tile_id in zip(prims.tolist(), tiles.tolist()):
                    if not self._seen[tile_id]:
                        messages[tile_id] += self._constants
                        self._seen[tile_id] = True
                    messages[tile_id] += blocks[prim]

            def on_geometry_complete(self):
                pass

        memory = MemoryHierarchy(config)
        collector = Collector()
        processor = CommandProcessor()
        vertex = VertexStage(memory)
        assembly = PrimitiveAssembly(config.screen_width, config.screen_height)
        plb = PolygonListBuilder(config, memory, listeners=(collector,))
        for invocation in processor.process(stream):
            shaded = vertex.run(invocation)
            plb.bin_drawcall(
                invocation.state, assembly.assemble(invocation, shaded)
            )

        for tile_id, message in enumerate(messages):
            data = bytes(message)
            digest = hashlib.md5(data).digest()
            strong[frame_index, tile_id] = int.from_bytes(digest[:8], "big")
            for name, fn in schemes.items():
                results[name][frame_index, tile_id] = fn(data)

    results["_strong"] = strong
    return results


#: Registry mapping experiment ids to their functions (DESIGN.md index).
EXPERIMENTS = {
    "fig01": fig01_power_motivation,
    "fig02": fig02_equal_tiles,
    "fig14a": fig14a_execution_cycles,
    "fig14b": fig14b_energy,
    "fig15a": fig15a_tile_classes,
    "fig15b": fig15b_memory_traffic,
    "fig16": fig16_memoization,
    "fig17a": fig17a_te_cycles,
    "fig17b": fig17b_te_energy,
    "re_overheads": re_overheads,
}

#: Techniques each experiment pulls from the run cache.  The CLI uses
#: this to prefetch an experiment's cells in parallel before the
#: (serial) tabulation; the render service uses it to expand an
#: ``experiment`` job into its per-(game, technique) render jobs.
EXPERIMENT_TECHNIQUES = {
    "fig01": ("baseline",),
    "fig02": ("re",),
    "fig14a": ("baseline", "re"),
    "fig14b": ("baseline", "re"),
    "fig15a": ("re",),
    "fig15b": ("baseline", "re"),
    "fig16": ("baseline", "re", "memo"),
    "fig17a": ("baseline", "te", "re"),
    "fig17b": ("baseline", "te", "re"),
    "re_overheads": ("baseline", "re"),
}
