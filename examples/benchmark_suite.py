#!/usr/bin/env python
"""Run the Table II benchmark suite under every technique and print the
paper's headline comparison (speedup and energy saving per game).

Run:  python examples/benchmark_suite.py [--frames N] [--scale small|benchmark]
                                         [--jobs N]

``--jobs N`` fans the independent (game, technique) cells across N
worker processes (see repro.harness.parallel).

This is the long-form version of what benchmarks/ automates; expect a
few minutes at benchmark scale.  Host performance is measured by the
repo benchmark, ``python3 bench/run.py``.
"""

import argparse
import time

from repro.config import GpuConfig
from repro.harness import reporting, run_workload
from repro.harness.parallel import run_matrix
from repro.workloads import FIGURE_ORDER

TECHNIQUES = ("baseline", "re", "te")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--scale", choices=("small", "benchmark"),
                        default="small")
    parser.add_argument("--games", nargs="*", default=list(FIGURE_ORDER))
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the run matrix "
                             "(0/1 = serial)")
    args = parser.parse_args()

    config = (
        GpuConfig.small() if args.scale == "small" else GpuConfig.benchmark()
    )
    start = time.perf_counter()
    if args.jobs > 1:
        matrix = run_matrix(
            args.games, TECHNIQUES, config, args.frames, processes=args.jobs
        )

        def get(alias, technique):
            return matrix[(alias, technique)]
    else:
        def get(alias, technique):
            return run_workload(alias, technique, config, args.frames)

    rows = []
    for alias in args.games:
        base = get(alias, "baseline")
        re = get(alias, "re")
        te = get(alias, "te")
        assert re.final_frame_crc == base.final_frame_crc, (
            f"{alias}: RE output diverged from baseline"
        )
        rows.append([
            alias,
            base.total_cycles / re.total_cycles,
            1.0 - re.total_energy_nj / base.total_energy_nj,
            1.0 - te.total_energy_nj / base.total_energy_nj,
            re.skipped_fraction(),
        ])
    speedups = [r[1] for r in rows]
    rows.append([
        "AVG",
        sum(speedups) / len(speedups),
        sum(r[2] for r in rows) / len(rows),
        sum(r[3] for r in rows[:-1]) / max(1, len(rows) - 1),
        sum(r[4] for r in rows[:-1]) / max(1, len(rows) - 1),
    ])
    print(reporting.format_table(
        ["game", "re_speedup", "re_energy_saving", "te_energy_saving",
         "tiles_skipped"],
        rows,
    ))
    print(f"\ngeomean RE speedup: {reporting.geomean(speedups):.2f}x "
          "(paper: 1.74x average)")

    wall = time.perf_counter() - start
    print(f"suite wall-clock: {wall:.2f} s")


if __name__ == "__main__":
    main()
