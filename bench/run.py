"""The repository benchmark: four workloads, checked outputs, named metrics.

    python3 bench/run.py                      # all workloads, seed 1
    python3 bench/run.py --workload suite --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --trace              # per-layer metrics instead
    python3 bench/run.py --quick              # CI smoke: tiny and fast

Each simulation pass runs in a fresh process (``simpass.py``); the
``service`` workload drives a ``repro serve`` subprocess.  End-to-end
metrics come from untraced runs; ``--trace`` adds traced passes whose
layer spans give the per-layer metrics.  Every metric's name and unit
come from ``BENCHMARK.json``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
All results, with quartiles and the output digest, are written to
``bench/out/results.json`` (``--out``) for ``compare.py``.  A failed
output check makes the exit code 1; a checkout without the simulator
sources or the goldens makes it 2, before anything runs.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

#: Fresh interpreters started only to time set-up, before the passes
#: (each pass adds one more set-up sample).
SETUP_PROBES = 3
#: Least passes per simulation run, however long they take: each cell's
#: time is its fastest over the passes, and machine speed drifts by up to
#: 13% over 10-30 s, so a run needs passes spread over its seconds.
MIN_PASSES = 3
#: Daemon starts per service run; the last one serves the load.
SERVICE_STARTS = 3

PAPER = {"re_speedup_x": 1.74, "re_energy_saving": 0.43}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metric(estimate, repeats: list) -> dict:
    """``estimate(repeats)`` with the quartiles of its recomputations
    with one repeat left out, which ``compare.py`` reads as its spread."""
    value = estimate(repeats)
    others = [estimate(repeats[:i] + repeats[i + 1:])
              for i in range(len(repeats))] if len(repeats) > 1 else [value]
    return {"value": value, "q1": percentile(others, 25),
            "q3": percentile(others, 75), "n": len(repeats)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if "_us_" in name:
        return "us"
    if name.endswith(("_rate", "_share", "coverage", "overhead")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------

def _spawn_pass(workload, args, env, rundir, index, traced=False,
                probe=False, chrome=None) -> dict:
    out_path = os.path.join(rundir, f"pass-{index}.json")
    command = [sys.executable, os.path.join(BENCH, "simpass.py"),
               "--workload", workload.name, "--out", out_path,
               "--quick", str(int(args.quick)), "--trace", str(int(traced)),
               "--goldens", args.goldens]
    if probe:
        command.append("--probe")
    if chrome:
        command += ["--chrome", chrome]
    spawned = time.monotonic()
    returncode = subprocess.run(command, env=env,
                                stdout=subprocess.DEVNULL).returncode
    finished = time.monotonic()
    if returncode != 0 or not os.path.exists(out_path):
        return {"crashed": f"pass exited with {returncode}",
                "duration_s": finished - spawned}
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["ready_at"] - spawned
    result["duration_s"] = finished - spawned
    result["traced"] = traced
    return result


def run_sim(workload, args, env, rundir) -> dict:
    start = time.monotonic()
    deadline = start + args.seconds
    setups = [_spawn_pass(workload, args, env, rundir, f"probe{i}",
                          probe=True) for i in range(SETUP_PROBES)]
    passes = []
    while True:
        traced = args.trace and len(passes) % 2 == 1
        chrome = (os.path.join(OUT, f"trace-{workload.name}.json")
                  if traced and not any(p.get("traced") for p in passes)
                  else None)
        passes.append(_spawn_pass(workload, args, env, rundir, len(passes),
                                  traced=traced, chrome=chrome))
        if "crashed" in passes[-1]:
            break
        if args.quick and len(passes) >= 1 + args.trace:
            break
        if len(passes) < MIN_PASSES:
            continue
        estimate = statistics.median(p["duration_s"] for p in passes)
        # Stop at the pass count that ends nearest the deadline.
        if time.monotonic() + estimate > deadline + estimate / 2:
            break
    return sim_report(workload, passes, setups + passes, args.quick)


def sim_report(workload, passes, setups, quick) -> dict:
    crashed = [p for p in passes if "crashed" in p]
    ok = [p for p in passes if "crashed" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    cells_per_pass = len(workload.cells(quick))
    attempted = cells_per_pass * len(passes)
    failures = [p["crashed"] for p in crashed]
    for p in ok:
        failures += p["failures"]
    digests = {p["digest"] for p in ok}
    if len(digests) > 1:
        failures.append(f"simulated outputs differ between passes: {digests}")
    # A crashed pass fails all its cells; any other failure fails one.
    failed = min(attempted, len(failures) + (cells_per_pass - 1) * len(crashed))
    report = {"attempted": attempted, "failed": failed,
              "failures": failures, "digest": min(digests, default=None),
              "metrics": {}, "layers": {}, "extra": {}}
    if not plain:
        return report

    frames = plain[0]["frames"]

    def timing(key):
        return metric(lambda ps: sim_timings(ps, frames)[key], plain)

    report["metrics"] = {
        "setup_s": metric(statistics.median,
                          [s["setup_s"] for s in setups if "setup_s" in s]),
        "frames_per_s": timing("frames_per_s"),
        "op_ms_p50": timing("op_ms_p50"),
        "op_ms_p90": timing("op_ms_p90"),
        "peak_rss_mb": metric(statistics.median,
                              [p["rss_mb"] for p in plain]),
    }
    extra = report["extra"]
    extra["passes"] = len(plain)
    extra["traced_passes"] = len(traced)
    extra["wall_s"] = sim_timings(plain, frames)["wall_s"]
    if workload.culled:
        extra["culling"] = plain[0]["culling"]
    if workload.name in ("suite", "hires"):
        extra["simulated"] = plain[0]["simulated"]
    if traced:
        report["layers"] = sim_layers(plain, traced)
    return report


def sim_timings(passes, frames: int) -> dict:
    """Timing metrics of a pass whose cells each take their fastest time
    over ``passes``.  Noise from other load on the machine only ever
    adds time, so the fastest of several fresh-process runs is the
    steadiest estimate: over 15 suite passes its quartile spread was a
    third of the median pass wall's."""
    best = {}
    for p in passes:
        for cell in p["cells"]:
            key = (cell["game"], cell["technique"])
            best[key] = min(best.get(key, cell["seconds"]), cell["seconds"])
    ms = [seconds * 1e3 for seconds in best.values()]
    return {"wall_s": sum(ms) / 1e3, "frames_per_s": frames * 1e3 / sum(ms),
            "op_ms_p50": percentile(ms, 50), "op_ms_p90": percentile(ms, 90)}


def _mean(rows: list) -> dict:
    """Key-wise mean of dicts of numbers."""
    total = collections.Counter()
    for row in rows:
        total.update(row)
    return {key: value / len(rows) for key, value in total.items()}


def derived_layers(table, memo, counts) -> dict:
    """Per-layer metrics from a span table plus memo and simulated
    counters, all for the same amount of work."""
    import layers

    out = layers.layer_metrics(table)
    decisions = out.pop("core.skip_decisions")
    out["core.skip_rate"] = (counts.get("re_tiles_skipped", 0) / decisions
                             if decisions else 0.0)
    fragments = counts.get("fragments_shaded", 0)
    out["pipeline.shade_us_per_fragment"] = (
        out["pipeline.shade_s"] * 1e6 / fragments if fragments else 0.0)
    for memo_name in ("raster", "shade", "tile"):
        hits = memo.get(f"{memo_name}_hits", 0)
        lookups = hits + memo.get(f"{memo_name}_misses", 0)
        out[f"memo.{memo_name}_hit_rate"] = hits / lookups if lookups else 0.0
    out["memo.raster_evictions"] = memo.get("raster_evictions", 0)
    out["sim.fragments_shaded"] = fragments
    out["sim.prims_occlusion_culled"] = counts.get("prims_occlusion_culled", 0)
    return out


def sim_layers(plain, traced) -> dict:
    """Per-layer metrics per pass, averaged over the traced passes."""
    names = {name for p in traced for name in p["layers"]}
    table = {name: _mean([p["layers"].get(name, {}) for p in traced])
             for name in names}
    out = derived_layers(table, _mean([p["memo"] for p in traced]),
                         _mean([p["counts"] for p in traced]))
    out.update({"service.warm_hit_rate": 0.0, "service.engines_built": 0,
                "service.engines_evicted": 0,
                "service.queue_wait_share": 0.0})
    out["trace.overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return out


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------

def _windows(items: list, count: int = 4) -> list:
    """``items`` cut into ``count`` consecutive, near-equal windows."""
    count = max(1, min(count, len(items)))
    size = len(items) / count
    return [items[round(i * size):round((i + 1) * size)]
            for i in range(count)]


def run_service(workload, args, env, rundir) -> dict:
    import service_load

    start = time.monotonic()
    deadline = start + args.seconds
    frames = workload.num_frames(args.quick)
    limit = workload.requests_quick if args.quick else None
    cells = workload.requests(args.seed, limit or 10_000, args.quick)
    starts = 1 if args.trace else SERVICE_STARTS
    setups = []
    for _ in range(starts - 1):
        with service_load.Daemon(rundir, env, workload) as daemon:
            setups.append(daemon.setup_s)
    # Traced runs split the window: untraced load, then a traced daemon.
    untraced_until = (start + deadline) / 2 if args.trace else deadline
    with service_load.Daemon(rundir, env, workload) as daemon:
        setups.append(daemon.setup_s)
        jobs = service_load.closed_loop(
            daemon.client, cells, frames, untraced_until, limit)
        stats = daemon.client.stats()
    rss_mb = daemon.peak_rss_mb
    traced_jobs, dump = [], None
    if args.trace:
        dump_path = os.path.join(os.path.abspath(rundir), "worker.json")
        with service_load.Daemon(rundir, env, workload,
                                 dump_path=dump_path) as daemon:
            setups.append(daemon.setup_s)
            traced_jobs = service_load.closed_loop(
                daemon.client, cells, frames, deadline, limit)
        if os.path.exists(dump_path):
            with open(dump_path, encoding="utf-8") as handle:
                dump = json.load(handle)
    return service_report(jobs, traced_jobs, stats, setups, rss_mb, frames,
                          dump)


def _execute_s(job) -> float:
    return job["finished_at"] - job["started_at"]


def service_report(jobs, traced_jobs, stats, setups, rss_mb, frames,
                   dump) -> dict:
    import verify

    all_jobs = jobs + traced_jobs
    failures = verify.check_service(all_jobs)
    summaries = {(j["game"], j["technique"]): j["summary"]
                 for j in all_jobs if j["state"] == "done"}
    report = {"attempted": len(all_jobs),
              "failed": min(len(failures), len(all_jobs)),
              "failures": failures, "digest": verify.digest(summaries),
              "metrics": {}, "layers": {}, "extra": {}}
    served = [j for j in jobs if j["state"] == "done"]
    if not served:
        return report

    latency = [j["latency_s"] * 1e3 for j in served]

    def over_windows(estimate):
        return metric(
            lambda ws: estimate([j["latency_s"] for w in ws for j in w]),
            _windows(served))

    report["metrics"] = {
        "setup_s": metric(statistics.median, setups),
        "frames_per_s": over_windows(lambda s: frames * len(s) / sum(s)),
        "op_ms_p50": over_windows(lambda s: percentile(s, 50) * 1e3),
        "op_ms_p90": over_windows(lambda s: percentile(s, 90) * 1e3),
        "peak_rss_mb": metric(statistics.median, [rss_mb]),
    }
    queue_ms = [(j["started_at"] - j["submitted_at"]) * 1e3 for j in served]
    execute_ms = [_execute_s(j) * 1e3 for j in served]
    reply_ms = [(j["received_at"] - j["finished_at"]) * 1e3 for j in served]
    warm = [j["latency_s"] * 1e3 for j in served if j["warm"]]
    cold = [j["latency_s"] * 1e3 for j in served if not j["warm"]]
    pool = (stats.get("telemetry") or {}).get("pool") or {}
    totals = pool.get("totals") or {}
    extra = report["extra"]
    extra.update({
        "requests": len(served),
        "service.queue_wait_ms_p50": percentile(queue_ms, 50),
        "service.queue_wait_ms_p95": percentile(queue_ms, 95),
        "service.execute_ms_p50": percentile(execute_ms, 50),
        "service.execute_ms_p95": percentile(execute_ms, 95),
        "service.reply_ms_p50": percentile(reply_ms, 50),
        "service.warm_request_ms_p50": percentile(warm, 50) if warm else 0.0,
        "service.cold_request_ms_p50": percentile(cold, 50) if cold else 0.0,
    })
    service_layers = {
        "service.warm_hit_rate": pool.get("warm_hit_rate", 0.0),
        "service.engines_built": totals.get("engines_built", 0),
        "service.engines_evicted": totals.get("engines_evicted", 0),
        "service.queue_wait_share": sum(queue_ms) / sum(latency),
    }
    extra.update(service_layers)
    if dump is not None:
        traced_done = [j for j in traced_jobs if j["state"] == "done"]
        layers_out = derived_layers(dump["layers"], dump["memo"],
                                    dump["counts"])
        layers_out.update(service_layers)
        layers_out["trace.overhead"] = (
            statistics.mean(_execute_s(j) for j in traced_done)
            / statistics.mean(_execute_s(j) for j in served) - 1.0
            if traced_done else 0.0)
        report["layers"] = layers_out
    return report


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(name: str, report: dict, spec: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"== {name}: {attempted} ops, failed_frac "
          f"{failed / attempted if attempted else 1.0:.4g} "
          f"({failed}/{attempted}), digest {report['digest']}")
    for failure in report["failures"][:20]:
        print(f"   FAILED {failure}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, entry in report["metrics"].items():
        print(f"   {key:<34} {_fmt(entry['value']):>12} {units[key]:<6}"
              f" q1 {_fmt(entry['q1'])}  q3 {_fmt(entry['q3'])}"
              f"  n={entry['n']}")
    extra = dict(report["extra"])
    simulated = extra.pop("simulated", {})
    for key, value in simulated.items():
        paper = PAPER[key]
        print(f"   {key:<34} {_fmt(value):>12} (simulated; paper "
              f"{paper:g}, diff {value - paper:+.3f})")
    for key, value in extra.items():
        if isinstance(value, dict):
            value = value["value"]
        unit = unit_of(key) if isinstance(value, (int, float)) else ""
        print(f"   {key:<34} {_fmt(value):>12} {unit}")
    for key, value in report["layers"].items():
        print(f"   {key:<34} {_fmt(value):>12} {unit_of(key)}")


def final_line(reports: dict, spec: dict, trace: bool) -> dict:
    """The last output line: the ``end_to_end`` metrics (or, traced, the
    ``per_layer`` ones) named in BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    def metrics_of(report):
        source = report["layers"] if trace else {
            key: entry["value"] for key, entry in report["metrics"].items()}
        return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                for m in wanted if m["name"] in source}

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if len(reports) == 1:
        metrics = metrics_of(next(iter(reports.values())))
    else:
        metrics = {name: metrics_of(r) for name, r in reports.items()}
    complete = all(len(metrics_of(r)) == len(wanted)
                   for r in reports.values())
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke profile: 2 games, 2 frames, 30 "
                             "requests, one pass")
    parser.add_argument("--goldens", default=os.path.join(
        ROOT, "results", "goldens"), help="golden registry to check against")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"))
    args = parser.parse_args(argv)
    args.goldens = os.path.abspath(args.goldens)

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(args.goldens, "index.jsonl")):
        print(f"bench: no golden registry at {args.goldens}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    os.makedirs(OUT, exist_ok=True)
    reports = {}
    for name in ([args.workload] if args.workload else workloads.NAMES):
        rundir = os.path.join(OUT, f"run-{os.getpid()}-{name}")
        os.makedirs(rundir, exist_ok=True)
        try:
            if name in workloads.SIM_WORKLOADS:
                report = run_sim(workloads.SIM_WORKLOADS[name], args, env,
                                 rundir)
            else:
                report = run_service(workloads.SERVICE, args, env, rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        reports[name] = report
        print_report(name, report, spec)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "quick": args.quick, "trace": bool(args.trace),
                   "workloads": reports}, handle, indent=1, sort_keys=True)
    line = final_line(reports, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
