"""Unit tests for repro.obs.trace + the TraceRecorder span hook."""

import json
import threading

import pytest

from repro.obs import (
    TraceRecorder,
    get_trace_recorder,
    install_trace_recorder,
    span,
    uninstall_trace_recorder,
)
from repro.obs.trace import to_chrome_trace, write_chrome_trace


@pytest.fixture()
def recorder():
    recorder = TraceRecorder()
    install_trace_recorder(recorder)
    yield recorder
    uninstall_trace_recorder()


class TestTraceRecorder:
    def test_records_completed_spans(self, recorder):
        with span("outer", items=2):
            with span("inner"):
                pass
        names = [record.name for record in recorder.records()]
        assert names == ["inner", "outer"]  # completion order

    def test_record_carries_path_depth_fields(self, recorder):
        with span("a"):
            with span("b", region="metro"):
                pass
        inner = recorder.records()[0]
        assert inner.path == "a/b"
        assert inner.depth == 1
        assert inner.fields == {"region": "metro"}
        assert inner.duration_s >= 0.0
        assert inner.start_s >= 0.0

    def test_install_uninstall_contract(self):
        assert get_trace_recorder() is None
        recorder = TraceRecorder()
        install_trace_recorder(recorder)
        assert get_trace_recorder() is recorder
        assert uninstall_trace_recorder() is recorder
        assert get_trace_recorder() is None

    def test_no_recording_when_uninstalled(self):
        recorder = TraceRecorder()
        install_trace_recorder(recorder)
        uninstall_trace_recorder()
        with span("unrecorded"):
            pass
        assert len(recorder) == 0

    def test_thread_safe_recording(self, recorder):
        def work():
            for _ in range(50):
                with span("threaded"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 200


class TestChromeTrace:
    def test_document_shape(self, recorder):
        with span("stage", regions=3):
            pass
        document = to_chrome_trace(recorder)
        complete = [
            event
            for event in document["traceEvents"]
            if event["ph"] == "X"
        ]
        assert len(complete) == 1
        event = complete[0]
        assert event["name"] == "stage"
        assert event["cat"] == "span"
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert event["args"]["path"] == "stage"
        assert event["args"]["regions"] == 3
        # Metadata events name the process and thread tracks.
        metadata = {
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M"
        }
        assert {"process_name", "thread_name"} <= metadata

    def test_nesting_is_contained_in_parent_interval(self, recorder):
        with span("parent"):
            with span("child"):
                pass
        events = {
            event["name"]: event
            for event in to_chrome_trace(recorder)["traceEvents"]
            if event["ph"] == "X"
        }
        parent, child = events["parent"], events["child"]
        assert parent["ts"] <= child["ts"]
        assert (
            child["ts"] + child["dur"]
            <= parent["ts"] + parent["dur"] + 1e-3
        )

    def test_write_round_trips_as_json(self, recorder, tmp_path):
        with span("a"):
            pass
        with span("b"):
            pass
        path = tmp_path / "trace.json"
        written = write_chrome_trace(recorder, path)
        assert written == 2
        document = json.loads(path.read_text())
        names = sorted(
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        )
        assert names == ["a", "b"]
        assert document["displayTimeUnit"] == "ms"

    def test_args_carry_trace_context(self, recorder):
        with span("fanout") as fanout:
            with span("stage") as stage:
                pass
        events = {
            event["name"]: event
            for event in to_chrome_trace(recorder)["traceEvents"]
            if event["ph"] == "X"
        }
        assert events["fanout"]["args"]["trace_id"] == fanout.trace_id
        assert events["fanout"]["args"]["span_id"] == fanout.span_id
        assert "parent_id" not in events["fanout"]["args"]  # a root
        assert events["stage"]["args"]["trace_id"] == fanout.trace_id
        assert events["stage"]["args"]["parent_id"] == fanout.span_id
        assert stage.parent_id == fanout.span_id

    def test_contextless_records_export_without_trace_args(
        self, recorder
    ):
        # A span recorded without entering carries no trace context.
        bare = span("old")
        bare.duration = 0.1
        recorder.record(bare)
        event = next(
            event
            for event in to_chrome_trace(recorder)["traceEvents"]
            if event["ph"] == "X"
        )
        assert "trace_id" not in event["args"]
        assert "span_id" not in event["args"]

    def test_non_json_fields_coerced_to_str(self, recorder, tmp_path):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        with span("stage", handle=Opaque()):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(recorder, path)  # must not raise
        document = json.loads(path.read_text())
        event = next(
            event
            for event in document["traceEvents"]
            if event["ph"] == "X"
        )
        assert event["args"]["handle"] == "<opaque>"
