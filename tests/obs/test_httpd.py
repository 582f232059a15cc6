"""Unit tests for repro.obs.httpd (the telemetry endpoint)."""

import json
import os
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import paper_config
from repro.measurements.columnar import ColumnarStore
from repro.netsim import CampaignConfig, region_preset, simulate_region
from repro.obs.httpd import TelemetryServer
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.obs.spans import current_span, span
from repro.serve import ScoringService, ServeServer


def _get(url):
    """(status, content_type, body) for one GET, 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            error.headers.get("Content-Type", ""),
            error.read().decode("utf-8"),
        )


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("monitor.alerts").inc(2)
    registry.counter("monitor.windows.unscorable").inc(1)
    registry.gauge("monitor.cycles").set(5.0)
    registry.gauge("monitor.last_cycle_unix").set(time.time())
    registry.timer("span.score").observe(0.01)
    return registry


@pytest.fixture()
def server(registry):
    server = TelemetryServer(registry=registry, port=0)
    port = server.start()
    assert port > 0
    yield server
    server.stop()


class TestEndpoints:
    def test_metrics_serves_prometheus_text(self, server, registry):
        # The scrape itself is accounted only after its body renders,
        # so the first scrape of a fresh server is exactly the
        # registry exposition as it stood before the request.
        expected = registry.render_prometheus()
        status, content_type, body = _get(server.url("/metrics"))
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert body == expected

    def test_metrics_json_serves_snapshot(self, server, registry):
        status, content_type, body = _get(server.url("/metrics.json"))
        assert status == 200
        assert content_type.startswith("application/json")
        document = json.loads(body)
        assert document["counters"]["monitor.alerts"] == 2
        assert document["timers"]["span.score"]["count"] == 1

    def test_healthz_reports_liveness(self, server):
        status, _, body = _get(server.url("/healthz"))
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["cycles"] == 5.0
        assert document["alerts"] == 2
        assert document["unscorable_windows"] == 1
        assert document["uptime_s"] >= 0.0
        assert document["last_cycle_unix"] is not None

    def test_unknown_path_is_404(self, server):
        status, _, body = _get(server.url("/nope"))
        assert status == 404
        assert "/metrics" in body

    def test_query_string_ignored(self, server):
        status, _, _ = _get(server.url("/healthz?verbose=1"))
        assert status == 200


class TestStalling:
    def test_stale_cycle_gauge_means_503(self, registry):
        registry.gauge("monitor.last_cycle_unix").set(time.time() - 120.0)
        with TelemetryServer(
            registry=registry, port=0, stalled_after_s=30.0
        ) as server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 503
        document = json.loads(body)
        assert document["status"] == "stalled"
        assert "no cycle completed" in document["reason"]

    def test_fresh_cycle_keeps_200(self, registry):
        with TelemetryServer(
            registry=registry, port=0, stalled_after_s=3600.0
        ) as server:
            status, _, _ = _get(server.url("/healthz"))
        assert status == 200

    def test_no_cycles_yet_is_not_stalled(self):
        # A campaign that has not completed its first cycle has nothing
        # to be stale relative to; only a *previous* cycle going quiet
        # trips the detector.
        with TelemetryServer(
            registry=MetricsRegistry(), port=0, stalled_after_s=0.001
        ) as server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 200
        assert json.loads(body)["last_cycle_unix"] is None

    def test_mark_stalled_forces_503(self, server):
        server.mark_stalled("operator says down")
        status, _, body = _get(server.url("/healthz"))
        assert status == 503
        assert json.loads(body)["reason"] == "operator says down"
        server.clear_stalled()
        status, _, _ = _get(server.url("/healthz"))
        assert status == 200


def _paged_monitor():
    """A HealthMonitor whose single freshness rule is burning at PAGE."""
    from repro.obs.health import HealthMonitor
    from repro.obs.slo import SLORule

    rule = SLORule(
        name="fresh",
        signal="freshness",
        target=0.9,
        threshold_s=60.0,
        fast_window_s=600.0,
        slow_window_s=3600.0,
    )
    monitor = HealthMonitor(rules=(rule,))
    monitor.record_arrival("metro", "ookla", 0.0)
    for minute in range(2, 70):  # every tick sees age > 60s: all bad
        monitor.tick(minute * 60.0)
    assert monitor.evaluate().status == "page"
    return monitor


class TestSLOEndpoints:
    def test_slo_without_monitor_reports_disabled(self, server):
        status, content_type, body = _get(server.url("/slo"))
        assert status == 200
        assert content_type.startswith("application/json")
        assert json.loads(body)["status"] == "disabled"

    def test_quality_without_monitor_reports_disabled(self, server):
        status, _, body = _get(server.url("/quality"))
        assert status == 200
        assert json.loads(body)["status"] == "disabled"

    def test_slo_serves_the_health_report(self, registry):
        with TelemetryServer(
            registry=registry, port=0, health=_paged_monitor()
        ) as server:
            status, _, body = _get(server.url("/slo"))
        assert status == 200  # the verdict is data; /healthz does 503s
        document = json.loads(body)
        assert document["status"] == "page"
        (rule,) = document["rules"]
        assert rule["name"] == "fresh"
        assert rule["state"] == "page"
        assert rule["burn_fast"] >= 10.0
        assert "quality" in document and "drift" in document

    def test_slo_report_is_deterministic_across_scrapes(self, registry):
        with TelemetryServer(
            registry=registry, port=0, health=_paged_monitor()
        ) as server:
            first = _get(server.url("/slo"))[2]
            second = _get(server.url("/slo"))[2]
        assert first == second

    def test_quality_serves_freshness_and_stale_cells(self, registry):
        with TelemetryServer(
            registry=registry, port=0, health=_paged_monitor()
        ) as server:
            status, _, body = _get(server.url("/quality"))
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "page"
        assert document["freshness_s"]["metro"]["ookla"] > 60.0
        assert document["stale"] == {"metro": ["ookla"]}

    def test_healthz_turns_page_into_503(self, registry):
        with TelemetryServer(
            registry=registry, port=0, health=_paged_monitor()
        ) as server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 503
        document = json.loads(body)
        assert document["status"] == "page"
        assert document["slo"] == "page"
        assert "burn rate" in document["reason"]

    def test_healthz_carries_ok_slo_without_503(self, registry):
        from repro.obs.health import HealthMonitor

        with TelemetryServer(
            registry=registry, port=0, health=HealthMonitor()
        ) as server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 200
        assert json.loads(body)["slo"] == "ok"

    def test_metrics_appends_labeled_health_families(self, registry):
        expected_prefix = registry.render_prometheus()
        with TelemetryServer(
            registry=registry, port=0, health=_paged_monitor()
        ) as server:
            status, _, body = _get(server.url("/metrics"))
        assert status == 200
        assert body.startswith(expected_prefix)
        assert 'iqb_health_freshness_seconds{region="metro"' in body
        assert 'iqb_slo_burn_rate{rule="fresh",window="fast"}' in body

    def test_installed_monitor_picked_up_at_request_time(self, server):
        from repro.obs.health import (
            install_health_monitor,
            uninstall_health_monitor,
        )

        install_health_monitor(_paged_monitor())
        try:
            status, _, body = _get(server.url("/slo"))
        finally:
            uninstall_health_monitor()
        assert status == 200
        assert json.loads(body)["status"] == "page"
        # And gone again once uninstalled.
        assert json.loads(_get(server.url("/slo"))[2])["status"] == (
            "disabled"
        )

    def test_404_lists_all_endpoints(self, server):
        _, _, body = _get(server.url("/nope"))
        for path in ("/metrics", "/healthz", "/slo", "/quality"):
            assert path in body


class TestSketchResumeLiveness:
    """A journal restore must not masquerade as campaign progress."""

    def test_restore_keeps_liveness_gauges_and_healthz_verdict(
        self, config
    ):
        from repro.measurements.collection import MeasurementSet
        from repro.measurements.record import Measurement
        from repro.obs.registry import REGISTRY
        from repro.probing.monitor import BarometerMonitor

        def window_records(day, n=40):
            return MeasurementSet(
                Measurement(
                    region="r",
                    source="ndt" if i % 2 == 0 else "cloudflare",
                    timestamp=day * 86400.0 + i * 1000.0,
                    download_mbps=500.0,
                    upload_mbps=200.0,
                    latency_ms=20.0,
                    packet_loss=0.0005,
                )
                for i in range(n)
            )

        monitor = BarometerMonitor(config, quantiles="sketch")
        monitor.ingest(window_records(0), 0.0, 86400.0)
        for record in window_records(1, n=5):
            monitor.observe(record)  # mid-window buffer to carry over
        state = monitor.state_dict()
        assert "pending_sketch" in state

        # The campaign dies; by restart the last completed cycle is
        # two minutes old and the operator's threshold is 30s.
        last_cycle = REGISTRY.gauge("monitor.last_cycle_unix")
        last_cycle.set(time.time() - 120.0)
        stale_value = last_cycle.value
        cycles_before = REGISTRY.gauge("monitor.cycles").value

        resumed = BarometerMonitor(config, quantiles="sketch")
        resumed.restore_state(state)

        # Restoring replayed no cycles: the liveness gauges are
        # untouched, so /healthz still reports the campaign stalled
        # instead of letting the restore masquerade as progress.
        assert last_cycle.value == stale_value
        assert REGISTRY.gauge("monitor.cycles").value == cycles_before
        assert resumed.pending() == 5
        assert REGISTRY.gauge("monitor.pending.records").value == 5.0
        with TelemetryServer(
            registry=REGISTRY, port=0, stalled_after_s=30.0
        ) as server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 503
        assert json.loads(body)["status"] == "stalled"

        # The first *real* cycle after the resume clears the verdict.
        resumed.ingest(window_records(1), 86400.0, 2 * 86400.0)
        assert last_cycle.value > stale_value
        with TelemetryServer(
            registry=REGISTRY, port=0, stalled_after_s=30.0
        ) as server:
            status, _, _ = _get(server.url("/healthz"))
        assert status == 200


class TestLifecycle:
    def test_start_is_idempotent(self, server):
        assert server.start() == server.port

    def test_stop_is_idempotent(self, registry):
        server = TelemetryServer(registry=registry, port=0)
        server.start()
        server.stop()
        server.stop()
        assert server.port == 0

    def test_stop_on_an_idle_server_returns_at_once(self, registry):
        server = TelemetryServer(registry=registry, port=0)
        port = server.start()
        assert _get(server.url("/healthz"))[0] == 200
        time.sleep(0.05)  # let the accept loop go idle
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.05
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)

    def test_a_busy_port_raises(self, server, registry):
        with pytest.raises(OSError):
            TelemetryServer(registry=registry, port=server.port).start()

    def test_ephemeral_ports_are_distinct_instances(self, registry):
        with TelemetryServer(registry=registry, port=0) as a:
            with TelemetryServer(registry=registry, port=0) as b:
                assert a.port != b.port
                assert _get(a.url("/healthz"))[0] == 200
                assert _get(b.url("/healthz"))[0] == 200


# -- the transport, byte by byte ----------------------------------------------


def _raw(port, data, shut=False):
    """Send ``data`` on a fresh connection; everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(data)
        if shut:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse(raw):
    """(status, lower-cased headers, body) of one raw reply."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def _request(line, *headers):
    return ("\r\n".join([line, *headers]) + "\r\n\r\n").encode("latin-1")


def _service():
    records = simulate_region(
        region_preset("mixed-urban"),
        seed=42,
        config=CampaignConfig(subscribers=3, tests_per_client=3),
    )
    return ScoringService(ColumnarStore(list(records)), paper_config())


@pytest.fixture()
def service():
    return _service()


@pytest.fixture()
def serve(service):
    server = ServeServer(service, registry=MetricsRegistry(), port=0)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def shared():
    """One live server for the tests that only read."""
    server = ServeServer(_service(), registry=MetricsRegistry(), port=0)
    server.start()
    yield server
    server.stop()


#: Request heads and the status ``http.server`` gave each.
_LONG = 65536 - len("GET / HTTP/1.0\r\n")
CONFORMANCE = [
    ("get", _request("GET /v1/scores HTTP/1.0"), 200),
    ("http/1.1", _request("GET /v1/scores HTTP/1.1", "Host: x"), 200),
    ("bare-lf", b"GET /v1/scores HTTP/1.0\nHost: x\n\n", 200),
    ("query-ignored", _request("GET /v1/config?x=1 HTTP/1.0"), 200),
    ("double-slash", _request("GET //v1/config HTTP/1.0"), 200),
    ("unknown-path", _request("GET /nope HTTP/1.0"), 404),
    ("post", _request("POST /v1/scores HTTP/1.0"), 501),
    ("head", _request("HEAD /v1/scores HTTP/1.0"), 501),
    ("lower-case-method", _request("get /v1/scores HTTP/1.0"), 501),
    ("one-word", _request("GET"), 400),
    ("four-words", _request("GET /v1/scores x HTTP/1.0"), 400),
    ("not-http", _request("GET /v1/scores HTTX/1.0"), 400),
    ("no-minor", _request("GET /v1/scores HTTP/1"), 400),
    ("letter-minor", _request("GET /v1/scores HTTP/1.x"), 400),
    ("three-parts", _request("GET /v1/scores HTTP/1.0.1"), 400),
    ("two-word-post", _request("POST /v1/scores"), 400),
    ("http/2", _request("GET /v1/scores HTTP/2.0"), 505),
    ("http/3.1", _request("GET /v1/scores HTTP/3.1"), 505),
    ("four-words-http/2", _request("GET / x HTTP/2.0"), 505),
    ("post-many-headers", _request(
        "POST /v1/scores HTTP/1.0", *[f"X-{i}: y" for i in range(101)]
    ), 431),
    ("line-at-limit", _request(f"GET /{'a' * _LONG} HTTP/1.0"), 404),
    ("line-over-limit", _request(f"GET /{'a' * (_LONG + 1)} HTTP/1.0"), 414),
    ("header-over-limit", _request(
        "GET /v1/scores HTTP/1.0", "X-Long: " + "a" * 65536
    ), 431),
    # http.client counts the blank line that ends the head among its
    # 100 lines, so 99 headers is the most a request may carry.
    ("99-headers", _request(
        "GET /v1/scores HTTP/1.0", *[f"X-{i}: y" for i in range(99)]
    ), 200),
    ("100-headers", _request(
        "GET /v1/scores HTTP/1.0", *[f"X-{i}: y" for i in range(100)]
    ), 431),
]


class TestTransport:
    @pytest.mark.parametrize(
        "data, status",
        [case[1:] for case in CONFORMANCE],
        ids=[case[0] for case in CONFORMANCE],
    )
    def test_status_matches_http_server(self, shared, data, status):
        got, headers, body = _parse(_raw(shared.port, data))
        assert got == status
        assert int(headers["content-length"]) == len(body)
        if data.startswith(b"HEAD "):
            assert body == b""  # a reply to HEAD carries no body
        if status == 200:
            assert headers["content-type"].startswith("application/json")
            assert json.loads(body)
        if data.startswith(b"GET //v1/config") or b"?x=1" in data:
            assert "config_sha256" in json.loads(body)

    @pytest.mark.parametrize(
        "line, extra",
        [
            ("GET /v1/scores HTTP/1.0", ()),
            ("GET /v1/scores HTTP/1.1", ("Host: x", "Connection: keep-alive")),
        ],
        ids=["http/1.0", "http/1.1-keep-alive"],
    )
    def test_complete_body_then_eof(self, shared, line, extra):
        # _raw reads to EOF: the server closes after one reply.
        raw = _raw(shared.port, _request(line, *extra))
        status, headers, body = _parse(raw)
        assert status == 200
        assert int(headers["content-length"]) == len(body) > 0
        assert json.loads(body)["generation"] == 0
        assert headers["server"] and headers["date"].endswith(" GMT")

    def test_http_0_9_gets_a_full_reply(self, shared):
        raw = _raw(shared.port, b"GET /v1/scores\r\n\r\n")
        status, headers, body = _parse(raw)
        assert status == 200
        assert int(headers["content-length"]) == len(body)
        assert json.loads(body)["generation"] == 0

    def test_if_none_match_in_lower_case_is_304(self, shared):
        _, headers, _ = _parse(
            _raw(shared.port, _request("GET /v1/scores HTTP/1.0"))
        )
        etag = headers["etag"]
        status, headers, body = _parse(_raw(
            shared.port,
            _request("GET /v1/scores HTTP/1.0", f"if-none-match: {etag}"),
        ))
        assert status == 304
        assert headers["etag"] == etag
        assert headers["content-length"] == "0" and body == b""

    def test_a_connection_without_a_request_gets_nothing(self, shared):
        requests = REGISTRY.counter("telemetry.http.requests")
        before = requests.value, shared.request_count()
        assert _raw(shared.port, b"", shut=True) == b""
        assert _raw(shared.port, b"\r\n", shut=True) == b""
        assert (requests.value, shared.request_count()) == before

    def test_a_reset_client_does_not_stop_the_next_request(self, shared):
        for _ in range(3):
            sock = socket.create_connection(("127.0.0.1", shared.port))
            sock.sendall(_request("GET /v1/scores HTTP/1.0"))
            # Linger 0: close() sends RST, not FIN, with the reply unread.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        status, _, body = _parse(
            _raw(shared.port, _request("GET /v1/scores HTTP/1.0"))
        )
        assert status == 200 and json.loads(body)["generation"] == 0

    def test_a_raising_dispatch_is_a_well_formed_500(
        self, serve, service, monkeypatch
    ):
        def boom():
            raise RuntimeError("plane on fire")

        monkeypatch.setattr(service, "scores", boom)
        status, headers, body = _parse(
            _raw(serve.port, _request("GET /v1/scores HTTP/1.0"))
        )
        assert status == 500
        assert int(headers["content-length"]) == len(body)
        document = json.loads(body)
        assert document["exception"] == "RuntimeError"
        assert document["detail"] == "plane on fire"


# -- handler threads ----------------------------------------------------------


def _workers(server):
    prefix = f"iqb-http-{server.port}-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestWorkers:
    def test_sequential_reads_reuse_at_most_two_workers(
        self, serve, monkeypatch
    ):
        names = set()
        dispatch = serve.dispatch

        def recording(path, headers):
            names.add(threading.current_thread().name)
            return dispatch(path, headers)

        monkeypatch.setattr(serve, "dispatch", recording)
        for _ in range(200):
            status, _, _ = _parse(
                _raw(serve.port, _request("GET /v1/scores HTTP/1.0"))
            )
            assert status == 200
        assert 1 <= len(names) <= 2
        assert all(n.startswith(f"iqb-http-{serve.port}-") for n in names)

    def test_held_reads_each_get_a_worker_and_idle_ones_are_capped(
        self, serve, service, monkeypatch
    ):
        held = 16
        arrived = threading.Semaphore(0)
        release = threading.Event()
        scores = service.scores

        def held_scores():
            arrived.release()
            assert release.wait(timeout=10.0)
            return scores()

        monkeypatch.setattr(service, "scores", held_scores)
        statuses = []

        def read():
            raw = _raw(serve.port, _request("GET /v1/scores HTTP/1.0"))
            statuses.append(_parse(raw)[0])

        clients = [threading.Thread(target=read) for _ in range(held)]
        for client in clients:
            client.start()
        try:
            # No held connection blocks the next: all 16 are inside
            # dispatch at once, on 16 workers.
            for _ in range(held):
                assert arrived.acquire(timeout=10.0)
            assert len(_workers(serve)) == held
            assert serve.drain(timeout=0.1) is False
        finally:
            release.set()
        for client in clients:
            client.join(timeout=10.0)
        assert statuses == [200] * held
        assert serve.drain(timeout=5.0) is True
        cap = os.cpu_count() or 1
        deadline = time.monotonic() + 5.0
        while len(_workers(serve)) > cap and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_workers(serve)) <= cap

    def test_concurrent_clients_under_fast_switching(self, serve):
        # More clients than cores, switching threads every microsecond:
        # a connection handed to a worker that was leaving would never
        # be answered, and its client would time out.
        results = []

        def client():
            for _ in range(25):
                raw = _raw(serve.port, _request("GET /v1/scores HTTP/1.0"))
                results.append(_parse(raw)[0])

        clients = [threading.Thread(target=client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert results == [200] * 200
        assert serve.request_count() == 200

    def test_stop_ends_every_worker(self, service):
        server = ServeServer(service, registry=MetricsRegistry(), port=0)
        server.start()
        clients = [
            threading.Thread(
                target=_raw,
                args=(server.port, _request("GET /v1/scores HTTP/1.0")),
            )
            for _ in range(4)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=10.0)
        assert not any(client.is_alive() for client in clients)
        workers = _workers(server)
        assert workers
        server.stop()
        for worker in workers:
            worker.join(timeout=5.0)
        assert not any(worker.is_alive() for worker in workers)

    def test_each_request_starts_with_an_empty_span_stack(
        self, serve, monkeypatch
    ):
        seen = []
        dispatch = serve.dispatch

        def spanning(path, headers):
            seen.append((threading.current_thread().name, current_span()))
            if path == "/raise":
                with span("raising"):
                    raise RuntimeError("inside a span")
            if path == "/leak":
                span("leaked").__enter__()  # never exited
            return dispatch(path, headers)

        monkeypatch.setattr(serve, "dispatch", spanning)
        for path in ("/raise", "/leak"):
            status, _, _ = _parse(
                _raw(serve.port, _request(f"GET {path} HTTP/1.0"))
            )
            assert status == (500 if path == "/raise" else 404)
            for _ in range(10):
                _raw(serve.port, _request("GET /v1/scores HTTP/1.0"))
        assert len(seen) == 22
        assert all(open_span is None for _, open_span in seen)
        # The threads that ran /raise and /leak went on to serve reads.
        names = [name for name, _ in seen]
        assert names[0] in names[1:11] and names[11] in names[12:]
