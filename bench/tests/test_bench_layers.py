"""Span arithmetic and wrapper hygiene of the traced run."""

import importlib
import os

import pytest

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # op [0, 100] > a [10, 60] > b [20, 30], b [40, 55]; op > c [70, 90]
    clock = FakeClock([0, 10, 20, 30, 40, 55, 60, 70, 90, 100])
    recorder = layers.SpanRecorder(keep=10, clock=clock)
    recorder.begin("op")
    recorder.begin("a")
    recorder.begin("b")
    recorder.end()
    recorder.begin("b")
    recorder.end()
    recorder.end()
    recorder.begin("c")
    recorder.end()
    recorder.end()

    assert dict(recorder.self_ns) == {"op": 30, "a": 25, "b": 25, "c": 20}
    assert dict(recorder.total_ns) == {"op": 100, "a": 50, "b": 25, "c": 20}
    assert dict(recorder.calls) == {"op": 1, "a": 1, "b": 2, "c": 1}
    # Kept spans in start order, each pointing at its parent's index.
    assert recorder.spans == [
        ["op", 0, 100, -1], ["a", 10, 60, 0], ["b", 20, 30, 1],
        ["b", 40, 55, 1], ["c", 70, 90, 0],
    ]
    metrics = layers.layer_metrics(recorder.table())
    assert metrics["trace.coverage"] == pytest.approx(0.7)


def test_keep_caps_recorded_spans_but_not_self_time():
    clock = FakeClock([0, 1, 2, 3, 4, 5])
    recorder = layers.SpanRecorder(keep=1, clock=clock)
    recorder.begin("op")
    recorder.begin("a")
    recorder.end()
    recorder.begin("a")
    recorder.end()
    recorder.end()
    assert recorder.spans == [["op", 0, 5, -1]]
    assert recorder.self_ns["a"] == 2 and recorder.self_ns["op"] == 3


def _current(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner.__dict__[attr]


def test_traced_pass_restores_every_wrapped_attribute():
    import simpass
    import workloads

    originals = {target: _current(*target) for target in layers.TARGETS}
    out = simpass.run_pass(
        workloads.SIM_WORKLOADS["suite"], quick=True, trace=True,
        goldens=os.path.join(ROOT, "results", "goldens"))

    for target, original in originals.items():
        assert _current(*target) is original, target
    assert out["failures"] == []
    assert out["layers"]["RasterPipeline.render_tile"]["calls"] > 0
    assert layers.layer_metrics(out["layers"])["trace.coverage"] >= 0.9


def test_install_rolls_back_when_a_target_is_missing(monkeypatch):
    targets = layers.TARGETS[:3] + (("repro.pipeline.gpu", "Gpu.nope"),)
    monkeypatch.setattr(layers, "TARGETS", targets)
    originals = {target: _current(*target) for target in targets[:3]}
    with pytest.raises(KeyError):
        layers.install(layers.SpanRecorder())
    for target, original in originals.items():
        assert _current(*target) is original
