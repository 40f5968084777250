"""compare.py verdicts on fabricated results."""

import json

import compare

SPEC = {"end_to_end": [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def entry(value, spread=0.0):
    return {"value": value, "q1": value * (1 - spread / 2),
            "q3": value * (1 + spread / 2), "n": 5}


def results(digest="d1", **metrics):
    return {"workloads": {"suite": {"digest": digest, "metrics": metrics}}}


def verdicts(a, b):
    lines, ok = compare.compare(SPEC, a, b)
    return {line.split()[1]: line.split()[2] for line in lines}, ok


def test_within():
    found, ok = verdicts(results(op_ms_p50=entry(100), frames_per_s=entry(50)),
                         results(op_ms_p50=entry(105), frames_per_s=entry(48)))
    assert found == {"op_ms_p50": "within", "frames_per_s": "within"}
    assert ok


def test_regressed_in_each_direction():
    found, ok = verdicts(results(op_ms_p50=entry(100), frames_per_s=entry(50)),
                         results(op_ms_p50=entry(120), frames_per_s=entry(40)))
    assert found == {"op_ms_p50": "regressed", "frames_per_s": "regressed"}
    assert not ok


def test_improvement_is_within():
    found, _ = verdicts(results(frames_per_s=entry(50)),
                        results(frames_per_s=entry(80)))
    assert found == {"frames_per_s": "within"}


def test_unresolved_when_spread_exceeds_bound():
    found, ok = verdicts(results(op_ms_p50=entry(100, spread=0.3)),
                         results(op_ms_p50=entry(130)))
    assert found == {"op_ms_p50": "unresolved"}
    assert ok


def test_digest_mismatch_fails(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results("d1", op_ms_p50=entry(100))))
    b.write_text(json.dumps(results("d2", op_ms_p50=entry(100))))
    assert compare.main([str(a), str(b)]) == 1
    assert "digest" in capsys.readouterr().out
