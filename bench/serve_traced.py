"""``repro serve`` with the layer wrappers installed, for traced runs.

    PYTHONPATH=src python bench/serve_traced.py DUMP.json serve --socket ...

The wrappers go in before the daemon starts, so its forked workers
inherit them.  Each job the worker runs through ``execute_job`` is a
root span; after every job the worker rewrites ``DUMP.json`` with its
cumulative span table, memo counters and simulated counts.  The daemon
process itself renders nothing.
"""

from __future__ import annotations

import collections
import json
import os
import sys

import repro.service.daemon as daemon
from repro.__main__ import main as repro_main

import layers


def traced_execute_job(recorder: layers.SpanRecorder, dump_path: str):
    execute_job = daemon.execute_job
    counts = collections.Counter()

    def wrapper(spec, *args, **kwargs):
        result, info = recorder.span(layers.ROOT, execute_job, spec,
                                     *args, **kwargs)
        counts["fragments_shaded"] += result.fragments_shaded
        counts["prims_occlusion_culled"] += (result.counters or {}).get(
            "tiling.prims_occlusion_culled", 0)
        if spec.technique == "re":
            counts["re_tiles_skipped"] += result.tiles_skipped
        tmp = f"{dump_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"layers": recorder.table(),
                       "memo": layers.memo_counts(spec.config()),
                       "counts": dict(counts)}, handle)
        os.replace(tmp, dump_path)
        return result, info

    return wrapper


def main(argv) -> int:
    dump_path, serve_args = argv[0], argv[1:]
    recorder = layers.SpanRecorder()
    layers.install(recorder)
    daemon.execute_job = traced_execute_job(recorder, dump_path)
    return repro_main(serve_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
