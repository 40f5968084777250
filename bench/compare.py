"""Compare two ``run.py`` results files against the bounds in BENCHMARK.json.

    python3 bench/compare.py A.json B.json

For every (end-to-end metric, workload) pair present in both files, B is
judged against A:

* ``unresolved`` — either side's quartile spread, (q3 - q1) / value, is
  wider than the metric's bound, so the runs cannot tell a regression
  from noise;
* ``regressed``  — B is worse than A by more than the bound;
* ``within``     — otherwise.

The simulated outputs must be identical: a workload whose ``digest``
differs between the files is reported, whatever its timings.  The exit
code is 1 if any pair regressed or any digest differs, else 0.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(definition: dict, a: dict, b: dict) -> tuple:
    """``(verdict, worse)``: ``worse`` is B's change against A as a share
    of A, positive when B is worse."""
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse = -change if definition["better"] == "higher" else change
    bound = definition["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "within", worse


def compare(spec: dict, a: dict, b: dict) -> tuple:
    """Report lines and whether B passes against A."""
    lines, ok = [], True
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wa["digest"] != wb["digest"]:
            lines.append(f"{name:<13} digest       differs: "
                         f"{wa['digest']} -> {wb['digest']}")
            ok = False
        for definition in spec["end_to_end"]:
            key = definition["name"]
            if key not in wa["metrics"] or key not in wb["metrics"]:
                continue
            result, worse = verdict(definition, wa["metrics"][key],
                                    wb["metrics"][key])
            ok = ok and result != "regressed"
            lines.append(
                f"{name:<13} {key:<13} {result:<10} "
                f"{wa['metrics'][key]['value']:.6g} -> "
                f"{wb['metrics'][key]['value']:.6g} {definition['unit']} "
                f"({worse:+.1%} worse, bound {definition['bound']:.0%})")
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    lines, ok = compare(spec, *results)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
