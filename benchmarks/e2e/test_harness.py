"""Self-tests for the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import copy
import json
import socketserver
import threading
import time

import pytest

from campaign import (
    MIN_PER_REGION,
    REGIONS,
    TOTAL_RECORDS,
    follow_batches,
    region_counts,
    request_schedule,
    rotate,
    simulate_campaign,
    write_campaign,
)
from harness import ChildRun, http_get, parse_response, run_open_loop, tail_percentile
from layers import Trace
from workloads import compare_documents

from repro.measurements.io import write_jsonl


# -- percentile rule --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (2000, 99.5), (1999, 99.0), (1000, 99.0), (500, 98.0),
     (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_never_reports_fewer_than_ten_beyond():
    for n in range(0, 5001):
        p = tail_percentile(n)
        if p is not None:
            assert n * (100 - p) / 100 >= 10 - 1e-9


# -- open-loop due-time accounting -----------------------------------------------


class _StallingHandler(socketserver.StreamRequestHandler):
    """HTTP/1.0 responder that holds ``/stall`` for 300 ms."""

    def handle(self):
        request_line = self.rfile.readline().decode()
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        if " /stall " in request_line:
            time.sleep(0.3)
        self.wfile.write(b'HTTP/1.0 200 OK\r\nETag: "v1-0"\r\nContent-Length: 2\r\n\r\nok')


@pytest.fixture
def fake_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StallingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it(fake_server):
    # Both senders stall on requests 2 and 3 (sent at ~40 and ~60 ms),
    # so request 4, due at 80 ms, cannot leave before ~340 ms.
    paths = ["/ok", "/ok", "/stall", "/stall", "/ok", "/ok"]
    dues = [0.02 * i for i in range(len(paths))]
    samples = run_open_loop(dues, lambda i: http_get(fake_server, paths[i]), senders=2)
    assert [s.response.status for s in samples] == [200] * len(paths)
    queued = samples[4]
    assert queued.latency_s >= 0.25
    assert queued.late_s >= 0.25
    # Timed from its send instead, the queued request would look fast.
    assert queued.done - queued.sent < queued.latency_s - 0.2
    assert samples[0].latency_s < 0.2


def test_open_loop_records_transport_errors():
    def refuse(i):
        raise ConnectionRefusedError("nobody home")

    samples = run_open_loop([0.0, 0.01], refuse)
    assert all(s.response is None and "ConnectionRefusedError" in s.error for s in samples)


# -- seeded inputs ----------------------------------------------------------------


def test_zipf_split_is_deterministic_per_seed():
    counts = region_counts(42)
    assert counts == region_counts(42)
    assert counts != region_counts(43)
    assert sorted(counts) == sorted(region_counts(43))  # same split, other regions
    assert len(counts) == REGIONS
    assert min(counts) >= MIN_PER_REGION
    assert abs(sum(counts) - TOTAL_RECORDS) < 0.01 * TOTAL_RECORDS
    assert max(counts) > 50 * min(counts)


def test_campaign_split_across_workers_equals_one_process_write(tmp_path):
    write_campaign(tmp_path / "parallel.jsonl", 5)
    write_jsonl(simulate_campaign(5), tmp_path / "serial.jsonl")
    joined = (tmp_path / "parallel.jsonl").read_bytes()
    assert joined == (tmp_path / "serial.jsonl").read_bytes()
    lines = joined.splitlines()
    assert abs(len(lines) - TOTAL_RECORDS) < 0.01 * TOTAL_RECORDS
    assert len({json.loads(line)["region"] for line in lines}) == REGIONS
    assert not list(tmp_path.glob("*.part*"))


def test_rotation_keeps_the_records():
    lines = [f"{i}\n".encode() for i in range(100)]
    rotated = rotate(lines, 3)
    assert rotated != b"".join(lines)
    assert sorted(rotated.splitlines()) == sorted(line.strip() for line in lines)
    assert rotate(lines, 8) == b"".join(lines)


def test_schedule_and_batches_are_deterministic_per_seed():
    counts = region_counts(1)
    schedule = request_schedule(1, 50.0, 4.0, counts)
    assert schedule == request_schedule(1, 50.0, 4.0, counts)
    assert schedule != request_schedule(2, 50.0, 4.0, counts)
    assert len(schedule) == 200
    assert all(a.due_s < b.due_s for a, b in zip(schedule, schedule[1:]))
    lines = [b'{"region": "r001", "source": "ndt", "timestamp": 1.0, "latency_ms": 9.0}\n'] * 5
    batches = follow_batches(lines, 1, 3)
    assert batches == follow_batches(lines, 1, 3)
    assert all(b'"region": "fresh-002"' in line for line in batches[2].splitlines()[-10:])


# -- raw HTTP/1.0 client -----------------------------------------------------------


def test_parse_response_reads_status_etag_and_body():
    raw = (
        b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
        b'ETag: "abc-3"\r\nContent-Length: 13\r\n\r\n{"regions":1}'
    )
    response = parse_response(raw)
    assert response.status == 200
    assert response.headers["etag"] == '"abc-3"'
    assert response.body == b'{"regions":1}'


def test_parse_response_reads_a_bodiless_304():
    response = parse_response(b'HTTP/1.0 304 Not Modified\r\nETag: "abc-3"\r\n\r\n')
    assert (response.status, response.body) == (304, b"")


@pytest.mark.parametrize(
    "raw",
    [
        b"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nshort",
        b"HTTP/1.0 200 OK\r\nContent-Length: 2",
        b"SSH-2.0-nope\r\n\r\n",
    ],
)
def test_parse_response_rejects_truncated_or_foreign_replies(raw):
    with pytest.raises(ValueError):
        parse_response(raw)


def test_http_get_round_trip(fake_server):
    response = http_get(fake_server, "/v1/scores", {"If-None-Match": '"v1-0"'})
    assert (response.status, response.headers["etag"], response.body) == (200, '"v1-0"', b"ok")


# -- checks and trace accounting ---------------------------------------------------


def test_compare_documents_tolerates_only_aggregate_drift():
    verdict = {"aggregate": 0.003, "met": True}
    expected = {"r001": {"score": 0.5, "use_cases": [{"verdicts": [verdict]}]}}
    aggregate = "/r001/use_cases[0]/verdicts[0]/aggregate"

    def changed(path, value):
        document = copy.deepcopy(expected)
        target = document["r001"]
        for key in path:
            target = target[key]
        target.update(value)
        return document

    assert compare_documents(expected, expected) == ([], [])
    drift = changed(["use_cases", 0, "verdicts", 0], {"aggregate": 0.0033})
    assert compare_documents(drift, expected) == ([], [aggregate])
    wrong_unit = changed(["use_cases", 0, "verdicts", 0], {"aggregate": 3.0})
    assert compare_documents(wrong_unit, expected) == ([aggregate], [])
    verdict_flip = changed(["use_cases", 0, "verdicts", 0], {"met": False})
    assert compare_documents(verdict_flip, expected)[0] == ["/r001/use_cases[0]/verdicts[0]/met"]
    assert compare_documents(changed([], {"score": 0.51}), expected)[0] == ["/r001/score"]
    assert compare_documents({}, expected)[0] == [""]


def _span(path, dur_us, span_id, parent_id=None):
    args = {"path": path, "depth": path.count("/"), "span_id": span_id}
    if parent_id is not None:
        args["parent_id"] = parent_id
    return {"ph": "X", "dur": dur_us, "args": args}


def test_trace_self_time_and_coverage():
    events = [
        _span("score_regions", 1000.0, "a"),
        _span("score_regions/score_cube", 300.0, "b", "a"),
        _span("score_regions/score_cube/rebuild_breakdowns", 100.0, "c", "b"),
        _span("render.to_dict", 200.0, "d"),
        _span("render.to_dict", 200.0, "e"),
    ]
    trace = Trace(ChildRun(wall_s=0.003, cpu_s=0.0, maxrss_mb=0.0, returncode=0), events, {})
    assert trace.self_time("score_regions") == pytest.approx(0.0007)
    assert trace.self_time("score_regions/score_cube") == pytest.approx(0.0002)
    assert trace.total("render.to_dict") == pytest.approx(0.0004)
    assert trace.top_level() == {
        "score_regions": pytest.approx(0.001),
        "render.to_dict": pytest.approx(0.0004),
    }
    assert trace.coverage(start_s=0.0016) == pytest.approx(1.0)
