"""Integration tests for the /v1 endpoints (repro.serve.http)."""

import dataclasses
import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.serve.http as serve_http
from repro.measurements.columnar import ColumnarStore
from repro.measurements.io import write_jsonl
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.serve import ScoringService, ServeServer

#: Every /v1 route, with one region path.
V1_PATHS = (
    "/v1/scores",
    "/v1/scores/region-001",
    "/v1/national",
    "/v1/config",
)


def _get(url, etag=None):
    """(status, headers, body) for one GET, 3xx/4xx/5xx included."""
    request = urllib.request.Request(url)
    if etag is not None:
        request.add_header("If-None-Match", etag)
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return (
                response.status,
                dict(response.headers),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            dict(error.headers),
            error.read().decode("utf-8"),
        )


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def service(store, config):
    return ScoringService(store, config)


def _sweeps():
    return REGISTRY.counter("serve.compute.sweeps").value


def _reads():
    """(serve.cache.hits, serve.cache.misses) so far."""
    return (
        REGISTRY.counter("serve.cache.hits").value,
        REGISTRY.counter("serve.cache.misses").value,
    )


def _held(server):
    """(generation, sorted paths) of the server's render memo."""
    generation, responses = server._memo._state
    return generation, sorted(responses)


@pytest.fixture()
def renders(monkeypatch):
    """Counts the 200 bodies the /v1 routes encode."""
    counted = []
    build = serve_http.json_response

    def counting(status, *args, **kwargs):
        response = build(status, *args, **kwargs)
        if status == 200:
            counted.append(response)
        return response

    monkeypatch.setattr(serve_http, "json_response", counting)
    return counted


@pytest.fixture()
def server(service, registry):
    server = ServeServer(service, registry=registry, port=0)
    port = server.start()
    assert port > 0
    yield server
    server.stop()


class TestScoresEndpoint:
    def test_scores_document(self, server, service):
        status, headers, body = _get(server.url("/v1/scores"))
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        document = json.loads(body)
        assert document["generation"] == 0
        assert document["config_sha256"] == service.config_sha256
        assert document["quantiles"] == "exact"
        assert document["regions"] == dict(service.scores().values)

    def test_etag_roundtrip_304(self, server):
        _, headers, _ = _get(server.url("/v1/scores"))
        etag = headers["ETag"]
        status, headers304, body = _get(server.url("/v1/scores"), etag)
        assert status == 304
        assert body == ""
        assert headers304["ETag"] == etag

    def test_304_iff_generation_unchanged(self, server, service, records):
        _, headers, _ = _get(server.url("/v1/scores"))
        etag = headers["ETag"]
        # Unchanged plane: 304.
        assert _get(server.url("/v1/scores"), etag)[0] == 304
        # Ingest bumps the generation: same ETag now misses.
        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        status, fresh_headers, body = _get(server.url("/v1/scores"), etag)
        assert status == 200
        assert fresh_headers["ETag"] != etag
        assert json.loads(body)["generation"] == 1
        # And the new ETag conditions again.
        assert (
            _get(server.url("/v1/scores"), fresh_headers["ETag"])[0] == 304
        )

    def test_weak_and_star_etags_accepted(self, server):
        _, headers, _ = _get(server.url("/v1/scores"))
        etag = headers["ETag"]
        assert _get(server.url("/v1/scores"), f"W/{etag}")[0] == 304
        assert _get(server.url("/v1/scores"), "*")[0] == 304

    def test_empty_plane_is_503_not_crash(self, config, registry):
        service = ScoringService(ColumnarStore([]), config)
        with ServeServer(service, registry=registry, port=0) as server:
            status, headers, body = _get(server.url("/v1/scores"))
        assert status == 503
        assert "no measurements" in json.loads(body)["error"]
        assert headers.get("Retry-After") == "1"


class TestRegionEndpoint:
    def test_breakdown_bit_identical_to_cli_score_json(
        self, server, records, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "records.jsonl"
        write_jsonl(records, str(path))
        assert main(["score", str(path), "--json"]) == 0
        cli_document = json.loads(capsys.readouterr().out)

        status, _, body = _get(server.url("/v1/scores/region-002"))
        assert status == 200
        served = json.loads(body)
        assert served["region"] == "region-002"
        assert (
            served["breakdown"] == cli_document["regions"]["region-002"]
        )

    def test_unknown_region_404_json(self, server):
        status, _, body = _get(server.url("/v1/scores/atlantis"))
        assert status == 404
        assert json.loads(body)["error"] == "unknown region: atlantis"

    def test_url_encoded_region_names(self, server, service, records):
        service.ingest(
            [dataclasses.replace(records[0], region="east side")]
        )
        status, _, body = _get(server.url("/v1/scores/east%20side"))
        assert status == 200
        assert json.loads(body)["region"] == "east side"

    def test_conditional_get(self, server):
        _, headers, _ = _get(server.url("/v1/scores/region-000"))
        assert (
            _get(server.url("/v1/scores/region-000"), headers["ETag"])[0]
            == 304
        )


class TestNationalEndpoint:
    def test_national_document(self, server, service):
        status, _, body = _get(server.url("/v1/national"))
        assert status == 200
        document = json.loads(body)
        expected = service.national().national
        assert document["national"] == expected.value
        assert document["shortfall"] == expected.shortfall
        assert len(document["regions"]) == 4
        share = document["regions"][0]
        assert set(share) == {
            "region",
            "score",
            "population",
            "weight",
            "shortfall_contribution",
        }

    def test_bad_population_table_is_422(self, store, config, registry):
        service = ScoringService(
            store, config, populations={"region-000": 1.0}
        )
        with ServeServer(service, registry=registry, port=0) as server:
            status, _, body = _get(server.url("/v1/national"))
        assert status == 422
        assert "population" in json.loads(body)["error"]


class TestConfigEndpoint:
    def test_config_document(self, server, service):
        status, _, body = _get(server.url("/v1/config"))
        assert status == 200
        document = json.loads(body)
        assert set(document) == {
            "config",
            "config_sha256",
            "quantile_source",
            "quantiles",
        }
        assert document["config_sha256"] == service.config_sha256
        assert "thresholds" in document["config"]

    def test_config_etag_is_generation_independent(
        self, server, service, records
    ):
        _, headers, _ = _get(server.url("/v1/config"))
        etag = headers["ETag"]
        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        assert _get(server.url("/v1/config"), etag)[0] == 304


class TestTelemetrySurface:
    def test_base_routes_still_served(self, server):
        assert _get(server.url("/healthz"))[0] == 200
        assert _get(server.url("/metrics"))[0] == 200
        status, _, body = _get(server.url("/nope"))
        assert status == 404
        assert "/v1/scores" in body  # the 404 names the /v1 routes too

    def test_per_endpoint_metrics_families(self, server):
        _get(server.url("/v1/scores"))
        _get(server.url("/v1/scores/region-000"))
        _get(server.url("/v1/scores/region-001"))
        _, _, body = _get(server.url("/metrics"))
        # Labeled per-(path, status) counts...
        assert (
            'iqb_http_requests_total{path="/v1/scores",status="200"} 1'
            in body
        )
        # ...region paths collapse onto one label (bounded cardinality),
        assert (
            'iqb_http_requests_total{path="/v1/scores/:region",'
            'status="200"} 2' in body
        )
        # ...and per-endpoint latency timers for the SLO rules.
        assert "iqb_http_latency__v1_scores_seconds" in body

    def test_handler_exception_is_well_formed_500(
        self, server, service, monkeypatch
    ):
        def boom():
            raise RuntimeError("plane on fire")

        monkeypatch.setattr(service, "scores", boom)
        before = server.registry.counter("http.errors").value
        status, headers, body = _get(server.url("/v1/scores"))
        assert status == 500
        document = json.loads(body)
        assert document["error"] == "internal server error"
        assert document["exception"] == "RuntimeError"
        assert document["detail"] == "plane on fire"
        # Content-Length matches the body: the client never hangs.
        assert int(headers["Content-Length"]) == len(
            body.encode("utf-8")
        )
        assert server.registry.counter("http.errors").value == before + 1
        # The failure is accounted under its route, not lost.
        _, _, metrics = _get(server.url("/metrics"))
        assert (
            'iqb_http_requests_total{path="/v1/scores",status="500"} 1'
            in metrics
        )

    def test_drain_idle_server(self, server):
        assert server.drain(timeout=1.0) is True

    def test_drain_waits_for_a_request_in_flight(
        self, service, registry, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        scores = service.scores

        def held_scores():
            entered.set()
            assert release.wait(timeout=10.0)
            return scores()

        monkeypatch.setattr(service, "scores", held_scores)
        responses = []
        with ServeServer(service, registry=registry, port=0) as server:
            client = threading.Thread(
                target=lambda: responses.append(
                    _get(server.url("/v1/scores"))
                )
            )
            client.start()
            try:
                assert entered.wait(timeout=10.0)
                # The GET is held inside dispatch: not drained.
                assert server.drain(timeout=0.1) is False
            finally:
                release.set()
            assert server.drain() is True
            client.join(timeout=10.0)
        assert len(responses) == 1
        status, _, body = responses[0]
        assert status == 200
        assert json.loads(body)["generation"] == 0


class TestReadCounters:
    """A /v1 read answered from held bytes counts ``serve.cache.hits``;
    a read that renders counts ``serve.cache.misses``."""

    @pytest.mark.parametrize("path", V1_PATHS)
    def test_one_miss_per_path_and_generation(self, service, records, path):
        server = ServeServer(service, registry=MetricsRegistry())
        hits, misses = _reads()
        first = server.dispatch(path, {})
        assert first.status == 200
        reads = 5
        for _ in range(reads - 2):
            assert server.dispatch(path, {}).status == 200
        revalidated = server.dispatch(
            path, {"If-None-Match": first.headers["ETag"]}
        )
        assert revalidated.status == 304
        assert _reads() == (hits + reads - 1, misses + 1)
        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        assert server.dispatch(path, {}).status == 200
        assert _reads() == (hits + reads - 1, misses + 2)
        assert server.dispatch(path, {}).status == 200
        assert _reads() == (hits + reads, misses + 2)


class TestConditionalGetNeedsARepresentation:
    """304 only for a representation that exists at this generation."""

    def test_unknown_region_is_404_whatever_the_header(self, service):
        server = ServeServer(service, registry=MetricsRegistry())
        current = service.etag()
        for header in (current, "*", f"W/{current}"):
            response = server.dispatch(
                "/v1/scores/no-such-region", {"If-None-Match": header}
            )
            assert response.status == 404, header
            assert json.loads(response.body)["error"] == (
                "unknown region: no-such-region"
            )

    def test_empty_plane_is_503_whatever_the_header(self, config):
        service = ScoringService(ColumnarStore([]), config)
        server = ServeServer(service, registry=MetricsRegistry())
        for path in ("/v1/scores", "/v1/scores/r", "/v1/national"):
            for header in ("*", service.etag()):
                response = server.dispatch(path, {"If-None-Match": header})
                assert response.status == 503, (path, header)
                assert response.headers["Retry-After"] == "1"

    def test_uncovered_population_table_is_422_whatever_the_header(
        self, store, config
    ):
        service = ScoringService(
            store, config, populations={"region-000": 1.0}
        )
        server = ServeServer(service, registry=MetricsRegistry())
        for header in ("*", service.etag()):
            response = server.dispatch(
                "/v1/national", {"If-None-Match": header}
            )
            assert response.status == 422, header

    def test_star_matches_an_existing_region(self, service):
        server = ServeServer(service, registry=MetricsRegistry())
        response = server.dispatch(
            "/v1/scores/region-002", {"If-None-Match": "*"}
        )
        assert response.status == 304
        assert response.body == b""
        assert response.headers["ETag"] == service.etag()

    def test_revalidating_a_held_body_is_a_lookup(self, service, renders):
        server = ServeServer(service, registry=MetricsRegistry())
        for path in V1_PATHS:
            etag = server.dispatch(path, {}).headers["ETag"]
            rendered, sweeps = len(renders), _sweeps()
            for header in (etag, f"W/{etag}", "*"):
                response = server.dispatch(path, {"If-None-Match": header})
                assert response.status == 304, (path, header)
                assert response.headers["ETag"] == etag
            assert (len(renders), _sweeps()) == (rendered, sweeps), path

    def test_conditional_get_sweeps_no_more_than_the_plain_get(
        self, config, records
    ):
        def sweeps_for(headers):
            service = ScoringService(ColumnarStore(list(records)), config)
            server = ServeServer(service, registry=MetricsRegistry())
            before = _sweeps()
            for path in V1_PATHS + ("/v1/scores/atlantis",):
                server.dispatch(path, headers)
            return _sweeps() - before

        plain = sweeps_for({})
        assert sweeps_for({"If-None-Match": "*"}) <= plain
        assert sweeps_for({"If-None-Match": '"stale"'}) <= plain


class TestRenderMemo:
    def test_repeat_reads_render_once_and_match_a_fresh_server(
        self, service, config, records, renders
    ):
        server = ServeServer(service, registry=MetricsRegistry())
        first = {path: server.dispatch(path, {}) for path in V1_PATHS}
        assert len(renders) == len(V1_PATHS)
        for _ in range(5):
            for path in V1_PATHS:
                again = server.dispatch(path, {})
                assert again.body == first[path].body
                assert again.headers == first[path].headers
        assert len(renders) == len(V1_PATHS)
        # A percent-encoded path is the same representation.
        assert server.dispatch("/v1/scores/region%2D001", {}).body == (
            first["/v1/scores/region-001"].body
        )
        assert len(renders) == len(V1_PATHS)

        fresh = ServeServer(
            ScoringService(ColumnarStore(list(records)), config),
            registry=MetricsRegistry(),
        )
        for path in V1_PATHS:
            response = fresh.dispatch(path, {})
            assert response.status == 200
            assert response.body == first[path].body, path
            assert response.headers == first[path].headers, path

    def test_region_breakdown_walked_once(self, service, monkeypatch):
        from repro.core.scoring import ScoreBreakdown

        walks = []
        to_dict = ScoreBreakdown.to_dict

        def counting(self):
            walks.append(self)
            return to_dict(self)

        monkeypatch.setattr(ScoreBreakdown, "to_dict", counting)
        server = ServeServer(service, registry=MetricsRegistry())
        for _ in range(10):
            assert server.dispatch("/v1/scores/region-000", {}).status == 200
        assert len(walks) == 1

    def test_ingest_retires_every_held_body(self, service, records, renders):
        server = ServeServer(service, registry=MetricsRegistry())
        for path in V1_PATHS:
            server.dispatch(path, {})
        assert _held(server) == (0, sorted(V1_PATHS))

        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        scores = server.dispatch("/v1/scores", {})
        assert json.loads(scores.body)["generation"] == 1
        assert "region-new" in json.loads(scores.body)["regions"]
        assert scores.headers["ETag"] == service.etag(1)
        assert _held(server) == (1, ["/v1/scores"])
        for path in ("/v1/national", "/v1/scores/region-001"):
            response = server.dispatch(path, {})
            assert json.loads(response.body)["generation"] == 1, path
            assert response.headers["ETag"] == service.etag(1)
        assert _held(server) == (
            1,
            ["/v1/national", "/v1/scores", "/v1/scores/region-001"],
        )

    def test_body_stamped_with_its_results_generation(
        self, service, records, renders
    ):
        """An ingest landing between the lookup and the render must not
        file the new body under the generation observed before it."""
        server = ServeServer(service, registry=MetricsRegistry())
        scores = service.scores

        def ingest_then_score():
            service.ingest(
                [dataclasses.replace(records[0], region="region-new")]
            )
            return scores()

        service.scores = ingest_then_score
        try:
            response = server.dispatch("/v1/scores", {})
        finally:
            del service.scores
        assert json.loads(response.body)["generation"] == 1
        assert _held(server) == (1, ["/v1/scores"])
        assert server.dispatch("/v1/scores", {}) is response
        assert len(renders) == 1

    def test_older_generation_served_but_not_kept(
        self, service, records, renders
    ):
        server = ServeServer(service, registry=MetricsRegistry())
        stale = service.scores()
        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        national = server.dispatch("/v1/national", {})
        assert _held(server) == (1, ["/v1/national"])

        service.scores = lambda: stale
        try:
            old = server.dispatch("/v1/scores", {})
        finally:
            del service.scores
        assert old.status == 200
        assert json.loads(old.body)["generation"] == 0
        assert _held(server) == (1, ["/v1/national"])
        assert server.dispatch("/v1/national", {}) is national
        current = server.dispatch("/v1/scores", {})
        assert json.loads(current.body)["generation"] == 1

    def test_unknown_region_scan_leaves_memo_unchanged(self, service):
        server = ServeServer(service, registry=MetricsRegistry())
        for path in V1_PATHS:
            server.dispatch(path, {})
        held = _held(server)
        for i in range(1000):
            response = server.dispatch(f"/v1/scores/unknown-{i}", {})
            assert response.status == 404
        assert _held(server) == held

    def test_errors_are_never_held(self, config, records):
        service = ScoringService(ColumnarStore([]), config)
        server = ServeServer(service, registry=MetricsRegistry())
        assert server.dispatch("/v1/scores", {}).status == 503
        assert server.dispatch("/v1/scores/region-000", {}).status == 503
        assert _held(server)[1] == []
        service.ingest(list(records))
        assert server.dispatch("/v1/scores", {}).status == 200
        assert server.dispatch("/v1/scores/region-000", {}).status == 200

    def test_nothing_rendered_before_the_first_read(
        self, service, records, renders
    ):
        server = ServeServer(service, registry=MetricsRegistry())
        server.start()
        try:
            service.ingest(
                [dataclasses.replace(records[0], region="region-new")]
            )
            assert renders == []
            assert _held(server)[1] == []
        finally:
            server.stop()
