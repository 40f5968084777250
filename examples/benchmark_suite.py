#!/usr/bin/env python
"""Run the Table II benchmark suite under every technique and print the
paper's headline comparison (speedup and energy saving per game).

Run:  python examples/benchmark_suite.py [--frames N] [--scale small|benchmark]
                                         [--jobs N] [--profile]
                                         [--occlusion-culling]

``--jobs N`` fans the independent (game, technique) cells across N
worker processes (see repro.harness.parallel).  ``--profile`` records
per-stage simulator wall-clock plus event rates and writes them — with
the measured speedup over the pre-batching reference runtime — to
BENCH_pipeline.json; profiling implies a serial run so one recorder
observes every frame.

``--occlusion-culling`` exercises the binning-time occlusion pass; it
suffixes the bench payload's command key (``suite+culling``) so the
registry's trend view never mixes its profiles with the plain suite's
committed baseline.

This is the long-form version of what benchmarks/ automates; expect a
few minutes at benchmark scale.
"""

import argparse
import time

from repro.config import GpuConfig
from repro.harness import reporting, run_workload
from repro.harness.parallel import run_matrix
from repro.workloads import FIGURE_ORDER

#: Wall-clock of this script at ``--frames 6 --scale small`` (all games)
#: before the batched raster path landed, measured on the same host the
#: batching work was tuned on.  ``--profile`` reports the speedup
#: against this when invoked with the same arguments.
SEED_REFERENCE_SECONDS = 16.70
SEED_REFERENCE = {"frames": 6, "scale": "small"}

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
    parser.add_argument("--profile", action="store_true",
                        help="record per-stage wall-clock and write "
                             "BENCH_pipeline.json (forces serial)")
    parser.add_argument("--bench-out", default="BENCH_pipeline.json")
    parser.add_argument("--occlusion-culling", action="store_true",
                        help="enable the binning-time opaque-tile "
                             "occlusion pass (bit-identical output)")
    args = parser.parse_args()

    config = (
        GpuConfig.small() if args.scale == "small" else GpuConfig.benchmark()
    )
    if args.occlusion_culling:
        import dataclasses

        config = dataclasses.replace(config, occlusion_culling=True)
    start = time.perf_counter()
    perf = None
    if args.profile:
        from repro.perf import PerfRecorder

        perf = PerfRecorder()

    if args.jobs > 1 and perf is None:
        matrix = run_matrix(
            args.games, TECHNIQUES, config, args.frames, processes=args.jobs
        )

        def get(alias, technique):
            return matrix[(alias, technique)]
    else:
        def get(alias, technique):
            return run_workload(alias, technique, config, args.frames,
                                perf=perf)

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
    if perf is not None:
        from repro.perf import write_bench

        command = "suite+culling" if args.occlusion_culling else "suite"
        payload = {
            "suite": "benchmark_suite",
            "command": command,
            "frames": args.frames,
            "scale": args.scale,
            "games": list(args.games),
            "wall_seconds": round(wall, 3),
            "profile": perf.snapshot(),
        }
        if (command == "suite"
                and args.frames == SEED_REFERENCE["frames"]
                and args.scale == SEED_REFERENCE["scale"]
                and list(args.games) == list(FIGURE_ORDER)):
            payload["reference"] = {
                "seed_wall_seconds": SEED_REFERENCE_SECONDS,
                "description": "same args, scalar per-tile path "
                               "(pre-batching seed)",
            }
            payload["speedup_vs_seed"] = round(
                SEED_REFERENCE_SECONDS / wall, 2
            )
            print(f"speedup vs pre-batching seed: "
                  f"{payload['speedup_vs_seed']:.2f}x "
                  f"({SEED_REFERENCE_SECONDS:.2f} s -> {wall:.2f} s)")
        write_bench(args.bench_out, payload)
        print(f"wrote {args.bench_out}")


if __name__ == "__main__":
    main()
