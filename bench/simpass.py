"""One pass of a simulation workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins with
empty memos, and reads back the JSON it writes to ``--out``::

    PYTHONPATH=src python bench/simpass.py --workload suite --out pass.json \\
        [--trace 1 --chrome trace.json] [--probe]

The first thing written is ``ready_at``: the monotonic clock once
``repro`` is imported, which the parent subtracts from its spawn time to
get ``setup_s``.  ``--probe`` stops there.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import repro.harness.runner as runner

#: Set-up ends here: the interpreter is up and the simulator imported.
READY_AT = time.monotonic()

import layers  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload, quick: bool, trace: bool, goldens,
             chrome=None) -> dict:
    config = workloads.gpu_config(workload)
    frames = workload.num_frames(quick)
    cells = workload.cells(quick)
    recorder = layers.SpanRecorder(keep=200_000) if trace else None
    patched = layers.install(recorder) if trace else []
    timings, records = [], {}
    try:
        start = time.perf_counter()
        for game, technique in cells:
            began = time.perf_counter()
            if recorder is not None:
                result = recorder.span(
                    layers.ROOT, runner.run_workload, game, technique,
                    config=config, num_frames=frames)
            else:
                result = runner.run_workload(
                    game, technique, config=config, num_frames=frames)
            timings.append({"game": game, "technique": technique,
                            "seconds": time.perf_counter() - began})
            records[(game, technique)] = verify.cell_record(result)
            del result
        wall = time.perf_counter() - start
    finally:
        layers.uninstall(patched)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    re_cells = [r for (_, t), r in records.items() if t == "re"]
    out = {
        "cells": timings,
        "wall_s": wall,
        "frames": frames * len(cells),
        "rss_mb": rss_mb,
        "culling": ("present" if workloads.culling_present() else "absent")
        if workload.culled else None,
        "failures": verify.check_sim(workload, records, goldens, quick),
        "digest": verify.digest(records),
        "simulated": verify.simulated_summary(records),
        "memo": layers.memo_counts(config),
        "counts": {
            "fragments_shaded": sum(r["fragments_shaded"]
                                    for r in records.values()),
            "prims_occlusion_culled": sum(r["prims_occlusion_culled"]
                                          for r in records.values()),
            "re_tiles_skipped": sum(r["tiles_skipped"] for r in re_cells),
        },
    }
    if recorder is not None:
        out["layers"] = recorder.table()
        if chrome:
            recorder.write_chrome_trace(chrome, {"workload": workload.name})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SIM_WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--goldens", default=None)
    parser.add_argument("--chrome", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    out = {"ready_at": READY_AT}
    if not args.probe:
        out.update(run_pass(
            workloads.SIM_WORKLOADS[args.workload], bool(args.quick),
            bool(args.trace), args.goldens, args.chrome,
        ))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
