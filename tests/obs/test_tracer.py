"""Tracer protocol: null tracer semantics and trace-event recording."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import NULL_TRACER, Tracer, TraceRecorder, span_totals


class FakeClock:
    """Deterministic perf_counter stand-in (seconds, manually advanced)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, seconds=0.001):
        self.now += seconds


def recorder(**kwargs):
    return TraceRecorder(pid=1, clock=FakeClock(), **kwargs)


class TestNullTracer:
    def test_is_falsy(self):
        assert not Tracer()
        assert not NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_every_api_call_is_a_noop(self):
        tracer = Tracer()
        tracer.begin("frame", frame=0)
        tracer.instant("tile_skip", tile=3)
        tracer.counter("tiles", {"skipped": 1})
        tracer.annotate(attempt=1)
        tracer.end("frame")
        tracer.close_open_spans()
        with tracer.span("raster"):
            pass

    def test_recorder_is_truthy(self):
        assert recorder()
        assert TraceRecorder.enabled is True


class TestSpans:
    def test_begin_end_emit_balanced_events(self):
        tracer = recorder()
        tracer.begin("frame", frame=0)
        tracer.begin("geometry")
        tracer.end("geometry")
        tracer.end("frame")
        phases = [e["ph"] for e in tracer.events if e["ph"] != "M"]
        assert phases == ["B", "B", "E", "E"]

    def test_span_context_manager(self):
        tracer = recorder()
        with tracer.span("frame", frame=2):
            with tracer.span("raster"):
                pass
        names = [e["name"] for e in tracer.events if e["ph"] in "BE"]
        assert names == ["frame", "raster", "raster", "frame"]

    def test_end_name_mismatch_raises(self):
        tracer = recorder()
        tracer.begin("frame")
        with pytest.raises(ReproError, match="closes span 'frame'"):
            tracer.end("raster")

    def test_end_without_begin_raises(self):
        with pytest.raises(ReproError, match="no open span"):
            recorder().end("frame")

    def test_unnamed_end_closes_innermost(self):
        tracer = recorder()
        tracer.begin("outer")
        tracer.begin("inner")
        tracer.end()
        ends = [e for e in tracer.events if e["ph"] == "E"]
        assert ends[-1]["name"] == "inner"

    def test_tracks_nest_independently(self):
        tracer = recorder()
        tracer.begin("frame", tid=0)
        tracer.begin("io", tid=1)
        tracer.end("frame", tid=0)
        tracer.end("io", tid=1)
        tracer.to_json()   # balanced per track: no error

    def test_begin_args_land_in_event_args(self):
        tracer = recorder()
        tracer.begin("frame", frame=7)
        begin = next(e for e in tracer.events if e["ph"] == "B")
        assert begin["args"] == {"frame": 7}


class TestEventsAndOutput:
    def test_timestamps_are_relative_microseconds(self):
        clock = FakeClock()
        tracer = TraceRecorder(pid=1, clock=clock)
        clock.tick(0.002)
        tracer.instant("tile_skip", tile=0)
        instant = next(e for e in tracer.events if e["ph"] == "i")
        assert instant["ts"] == pytest.approx(2000.0)
        assert instant["s"] == "t"

    def test_counter_event_copies_values(self):
        tracer = recorder()
        values = {"skipped": 3}
        tracer.counter("tiles", values)
        values["skipped"] = 99
        counter = next(e for e in tracer.events if e["ph"] == "C")
        assert counter["args"] == {"skipped": 3}

    def test_track_names_emitted_once_per_tid(self):
        tracer = recorder()
        tracer.instant("a", tid=0)
        tracer.instant("b", tid=0)
        tracer.instant("c", tid=5)
        thread_names = [
            e for e in tracer.events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert [e["tid"] for e in thread_names] == [0, 5]
        assert thread_names[0]["args"] == {"name": "pipeline"}
        assert thread_names[1]["args"] == {"name": "track-5"}

    def test_to_json_rejects_open_spans(self):
        tracer = recorder()
        tracer.begin("frame")
        with pytest.raises(ReproError, match="unbalanced"):
            tracer.to_json()

    def test_close_open_spans_balances_a_dying_run(self):
        tracer = recorder()
        tracer.begin("frame")
        tracer.begin("raster")
        tracer.close_open_spans()
        payload = tracer.to_json()
        ends = [e for e in payload["traceEvents"] if e["ph"] == "E"]
        assert [e["name"] for e in ends] == ["raster", "frame"]

    def test_annotate_merges_metadata(self):
        tracer = recorder(metadata={"alias": "cde"})
        tracer.annotate(attempt=2, alias="ctr")
        assert tracer.to_json()["metadata"] == {"alias": "ctr", "attempt": 2}

    def test_write_produces_loadable_json(self, tmp_path):
        tracer = recorder()
        with tracer.span("frame"):
            tracer.instant("tile_skip", tile=1)
        path = tmp_path / "trace.json"
        tracer.write(path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "B" for e in payload["traceEvents"])


class TestSpanTotals:
    """``--profile``'s fold: inclusive seconds and calls per span name."""

    def test_nested_totals_are_exact(self):
        clock = FakeClock()
        tracer = TraceRecorder(pid=1, clock=clock)
        for _ in range(2):
            tracer.begin("frame")
            clock.tick(0.125)
            tracer.begin("geometry")
            for _ in range(2):
                tracer.begin("vertex")
                clock.tick(0.25)
                tracer.end("vertex")
            clock.tick(0.125)
            tracer.end("geometry")
            tracer.begin("raster")
            for tile in range(3):
                tracer.begin("tile", tile=tile)
                clock.tick(0.5)
                tracer.end("tile")
                tracer.instant("tile_skip", tile=tile)
            tracer.counter("tiles", {"skipped": 3})
            tracer.end("raster")
            tracer.end("frame")
        assert list(span_totals(tracer.events).items()) == [
            ("frame", (4.5, 2)),
            ("geometry", (1.25, 2)),
            ("vertex", (1.0, 4)),
            ("raster", (3.0, 2)),
            ("tile", (3.0, 6)),
        ]

    def test_tracks_pair_independently(self):
        clock = FakeClock()
        tracer = TraceRecorder(pid=1, clock=clock)
        tracer.begin("job", tid=0)
        clock.tick(0.125)
        tracer.begin("job", tid=1)
        clock.tick(0.125)
        tracer.end("job", tid=0)
        clock.tick(0.25)
        tracer.end("job", tid=1)
        assert span_totals(tracer.events) == {"job": (0.625, 2)}
