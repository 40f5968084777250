"""Experiment harness: runners, tile classification, quality metrics,
parameter sweeps, fault-tolerant supervision, reporting."""

from . import charts, images, reporting
from .classify import TileClasses, classify_run, equal_tiles_fraction
from .parallel import Cell, cell_label, cell_seed, run_cells, run_matrix
from .report import REPORT_ORDER, generate_report
from .quality import FidelityReport, compare_runs, mse, psnr, tile_errors
from .supervisor import (
    CellOutcome,
    FaultSpec,
    RunJournal,
    SupervisedRun,
    SupervisorPolicy,
    attempt_history,
    supervise_cells,
)
from .sweeps import SweepPoint, sweep, tabulate
from .timeline import (
    PhaseSummary,
    equal_colors_timeline,
    skip_timeline,
    sparkline,
    summarize_phases,
)
from .runner import (
    TECHNIQUES,
    FrameMetrics,
    RunResult,
    make_technique,
    result_from_session,
    run_workload,
    tile_color_crcs,
)

__all__ = [
    "charts",
    "images",
    "reporting",
    "REPORT_ORDER",
    "generate_report",
    "TileClasses",
    "classify_run",
    "equal_tiles_fraction",
    "Cell",
    "cell_label",
    "cell_seed",
    "run_cells",
    "run_matrix",
    "CellOutcome",
    "FaultSpec",
    "RunJournal",
    "SupervisedRun",
    "SupervisorPolicy",
    "attempt_history",
    "supervise_cells",
    "FidelityReport",
    "compare_runs",
    "mse",
    "psnr",
    "tile_errors",
    "SweepPoint",
    "sweep",
    "tabulate",
    "PhaseSummary",
    "equal_colors_timeline",
    "skip_timeline",
    "sparkline",
    "summarize_phases",
    "TECHNIQUES",
    "FrameMetrics",
    "RunResult",
    "make_technique",
    "result_from_session",
    "run_workload",
    "tile_color_crcs",
]
