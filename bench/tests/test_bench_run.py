"""End-to-end runs of bench/run.py in its --quick profile."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT, bench=BENCH):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_quick_run_emits_every_metric_with_its_unit(tmp_path, trace, section):
    out = tmp_path / "results.json"
    proc, line = run_bench("--quick", "--trace", str(trace),
                           "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(line["metrics"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, metrics in line["metrics"].items():
        assert {k: v["unit"] for k, v in metrics.items()} == expected, workload
        assert all(isinstance(v["value"], (int, float))
                   for v in metrics.values())
    saved = json.loads(out.read_text())
    assert all(w["digest"] for w in saved["workloads"].values())
    if trace:
        for workload in ("suite", "suite-culled", "hires"):
            trace_file = os.path.join(BENCH, "out", f"trace-{workload}.json")
            with open(trace_file, encoding="utf-8") as handle:
                assert json.load(handle)["traceEvents"]


def test_corrupted_golden_fails_the_run(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(os.path.join(ROOT, "results", "goldens"), goldens)
    index = [json.loads(line) for line in
             (goldens / "index.jsonl").read_text().splitlines()]
    run_id = next(row["run_id"] for row in index
                  if row["alias"] == "ccs" and row["technique"] == "re")
    crcs_path = goldens / "runs" / f"{run_id}.crcs.json"
    crcs = json.loads(crcs_path.read_text())
    crcs["tile_color_crcs"][0][0] ^= 1
    crcs_path.write_text(json.dumps(crcs))

    proc, line = run_bench("--quick", "--workload", "suite",
                           "--goldens", str(goldens),
                           "--out", str(tmp_path / "results.json"))
    assert proc.returncode != 0
    assert line["failed"] > 0 and not line["correct"]
    assert "ccs/re: tile CRCs differ from the golden" in proc.stdout


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, line = run_bench("--workload", "suite", "--seconds", "1",
                           cwd=tmp_path, bench=str(tmp_path / "bench"))
    assert proc.returncode == 2
    assert line is None
