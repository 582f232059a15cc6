"""The ``/v1`` query endpoints: scoring-as-a-service over HTTP.

:class:`ServeServer` extends the telemetry endpoint
(:class:`~repro.obs.httpd.TelemetryServer` — which keeps serving
``/metrics``, ``/healthz``, ``/slo``, ``/quality``) with the read-only
query API backed by a :class:`~repro.serve.service.ScoringService`:

=========================  ==============================================
``GET /v1/scores``         every region's composite ``S_IQB``
``GET /v1/scores/<region>`` one region's full use-case breakdown
``GET /v1/national``       the population-weighted national rollup
``GET /v1/config``         the served scoring config + its digest
=========================  ==============================================

Each ``200`` is rendered once per plane generation: the server keeps
the current generation's encoded responses (body bytes and ETag) in a
memo keyed by path, so a repeat read is one lookup instead of a new
document, breakdown walk and JSON encode. The memo holds one
generation — 3 routes plus one body per region that has been asked
for — and a body is stamped with the generation of the result it was
rendered from, so a repeat read returns exactly the bytes a fresh
render would. Nothing is rendered before the first read, and only
``200`` responses are kept: ``304``/``404``/``422``/``503``/``500``
are built per request, so a scan of unknown URLs cannot grow it. A
``/v1`` read answered from held bytes (a ``304`` revalidation
included) counts ``serve.cache.hits``; one that renders counts
``serve.cache.misses``.

Score responses carry a strong ``ETag`` built from the config digest
and the plane generation (``"<digest12>-<generation>"``). A client
replaying it via ``If-None-Match`` gets ``304 Not Modified`` **iff**
the representation exists at the current generation with that tag —
a memoized body is revalidated by comparing its stored ETag, so
polling dashboards cost nothing between ingests. An empty plane is
still a ``503`` and an unknown region a ``404``, whatever the header
says (``*`` matches only a current representation, RFC 9110 §13.1.2).

Per-region paths are accounted under the ``/v1/scores/:region`` route
label (one metric series, not one per region), and every endpoint
inherits the transport's 500-JSON error boundary, per-endpoint
latency timers, and drain-aware shutdown.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Mapping, Optional, Tuple
from urllib.parse import unquote

from repro.core.exceptions import DataError
from repro.obs.health import HealthMonitor
from repro.obs.httpd import (
    JSON_CONTENT_TYPE,
    Response,
    TelemetryServer,
    json_response,
)
from repro.obs.registry import MetricsRegistry, counter

from .service import ScoringService

_HITS = counter("serve.cache.hits")
_MISSES = counter("serve.cache.misses")

#: Route label for every concrete /v1/scores/<region> path.
REGION_ROUTE = "/v1/scores/:region"

_SCORES_PREFIX = "/v1/scores/"


class _RenderMemo:
    """One generation's rendered ``200`` responses, keyed by path.

    The state is a single ``(generation, responses)`` pair replaced as
    a whole on every store, so a lookup reads one consistent pair
    without taking the lock; only stores serialize.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: Tuple[int, Dict[str, Response]] = (-1, {})

    def get(self, path: str, generation: int) -> Optional[Response]:
        """The stored response for ``path`` at ``generation``, or None."""
        stamp, responses = self._state
        return responses.get(path) if stamp == generation else None

    def put(
        self, path: str, generation: int, response: Response
    ) -> Response:
        """Keep ``response``, rendered from ``generation``; returns the
        response to serve.

        A newer generation replaces everything held; an older one is
        served but not kept. When ``path`` is already held at this
        generation the held response is returned, so every read of a
        (path, generation) gets the same bytes.
        """
        with self._lock:
            stamp, responses = self._state
            if generation < stamp:
                return response
            if generation > stamp:
                responses = {}
            held = responses.get(path)
            if held is not None:
                return held
            self._state = (generation, {**responses, path: response})
            return response


class ServeServer(TelemetryServer):
    """The ``iqb serve`` listener: telemetry + the /v1 query API."""

    V1_ROUTES: Tuple[str, ...] = (
        "/v1/scores",
        REGION_ROUTE,
        "/v1/national",
        "/v1/config",
    )

    def __init__(
        self,
        service: ScoringService,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        stalled_after_s: Optional[float] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        super().__init__(
            registry=registry,
            host=host,
            port=port,
            stalled_after_s=stalled_after_s,
            health=health,
        )
        self.service = service
        self._memo = _RenderMemo()

    # -- routing ------------------------------------------------------------

    def routes(self) -> Tuple[str, ...]:
        return self.V1_ROUTES + self.BASE_ROUTES

    def route_label(self, path: str) -> str:
        if path.startswith(_SCORES_PREFIX) and path != _SCORES_PREFIX:
            return REGION_ROUTE
        return super().route_label(path)

    def dispatch(self, path: str, headers: Mapping[str, str]) -> Response:
        if path == "/v1/scores":
            return self._serve(path, headers, self._scores)
        if path.startswith(_SCORES_PREFIX) and path != _SCORES_PREFIX:
            region = unquote(path[len(_SCORES_PREFIX):])
            return self._serve(
                _SCORES_PREFIX + region,
                headers,
                lambda key: self._region(key, region),
            )
        if path == "/v1/national":
            return self._serve(path, headers, self._national)
        if path == "/v1/config":
            return self._serve(path, headers, self._config)
        return super().dispatch(path, headers)

    # -- the render memo and conditional GETs -------------------------------

    def _serve(
        self,
        key: str,
        headers: Mapping[str, str],
        render: Callable[[str], Response],
    ) -> Response:
        """Answer one /v1 read from the memo, rendering on a miss.

        ``render(key)`` builds the response at the service's current
        state and stores a ``200`` under its result's generation; the
        read counts ``serve.cache.misses``, and a read answered from
        the memo counts ``serve.cache.hits``. Only
        a ``200`` can turn into a ``304``: the memo holds a body only
        for a representation that exists, and a miss renders exactly
        what the plain GET would, so a conditional GET never sweeps
        more than the plain one.
        """
        response = self._memo.get(key, self.service.generation)
        if response is None:
            _MISSES.inc()
            response = render(key)
        else:
            _HITS.inc()
        if response.status == 200:
            etag = response.headers["ETag"]
            if self._matches(headers, etag):
                return Response(
                    304, JSON_CONTENT_TYPE, b"", {"ETag": etag}, response.route
                )
        return response

    def _rendered(
        self,
        key: str,
        generation: int,
        document: Mapping[str, object],
        route: str,
        etag: Optional[str] = None,
    ) -> Response:
        """Encode one ``200`` and keep it under ``generation``.

        ``etag`` defaults to the score ETag of ``generation``.
        """
        if etag is None:
            etag = self.service.etag(generation)
        response = json_response(200, document, route, {"ETag": etag})
        return self._memo.put(key, generation, response)

    @staticmethod
    def _matches(headers: Mapping[str, str], etag: str) -> bool:
        """True when If-None-Match names ``etag`` (or ``*``)."""
        raw = headers.get("If-None-Match")
        if not raw:
            return False
        for candidate in raw.split(","):
            token = candidate.strip()
            if token.startswith("W/"):
                token = token[2:]
            if token == etag or token == "*":
                return True
        return False

    def _no_data(self, route: str) -> Response:
        return json_response(
            503,
            {
                "error": "no measurements ingested yet; retry later",
                "generation": self.service.generation,
            },
            route,
            {"Retry-After": "1"},
        )

    # -- /v1 renders ---------------------------------------------------------

    def _scores(self, key: str) -> Response:
        route = "/v1/scores"
        if self.service.empty:
            return self._no_data(route)
        result = self.service.scores()
        document = {
            "generation": result.generation,
            "config_sha256": self.service.config_sha256,
            "quantiles": result.quantile_source,
            "regions": dict(sorted(result.values.items())),
        }
        return self._rendered(key, result.generation, document, route)

    def _region(self, key: str, region: str) -> Response:
        route = REGION_ROUTE
        if self.service.empty:
            return self._no_data(route)
        try:
            generation, breakdown = self.service.breakdown(region)
        except KeyError:
            return json_response(
                404,
                {
                    "error": f"unknown region: {region}",
                    "generation": self.service.generation,
                },
                route,
            )
        document = {
            "generation": generation,
            "config_sha256": self.service.config_sha256,
            "region": region,
            "breakdown": breakdown.to_dict(),
        }
        return self._rendered(key, generation, document, route)

    def _national(self, key: str) -> Response:
        route = "/v1/national"
        if self.service.empty:
            return self._no_data(route)
        try:
            result = self.service.national()
        except DataError as exc:
            # A population table that does not cover the scored
            # regions is a client-visible config problem, not a crash.
            return json_response(
                422,
                {
                    "error": str(exc),
                    "generation": self.service.generation,
                },
                route,
            )
        rollup = result.national
        document = {
            "generation": result.generation,
            "config_sha256": self.service.config_sha256,
            "national": rollup.value,
            "shortfall": rollup.shortfall,
            "regions": [
                {
                    "region": share.region,
                    "score": share.score,
                    "population": share.population,
                    "weight": share.weight,
                    "shortfall_contribution": share.shortfall_contribution,
                }
                for share in rollup.ranked_by_shortfall()
            ],
        }
        return self._rendered(key, result.generation, document, route)

    def _config(self, key: str) -> Response:
        # The config never changes for a server's lifetime; its ETag
        # is the digest alone (generation-independent on purpose). Its
        # body is the same at every generation, so it is kept under
        # the current one and re-rendered once after each ingest.
        document = self.service.config_document()
        return self._rendered(
            key,
            self.service.generation,
            document,
            "/v1/config",
            f'"{self.service.config_sha256}"',
        )
