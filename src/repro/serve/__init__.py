"""Scoring-as-a-service: the barometer's public query front door.

The ROADMAP's "serves heavy traffic from millions of users" layer —
``iqb serve`` promotes the read-only telemetry endpoint into a
long-lived scoring service over a live measurement plane:

* :mod:`.cache`   — the generation-keyed LRU score cache and the
  single-flight coalescer (N concurrent identical misses → 1 sweep);
* :mod:`.service` — :class:`ScoringService`: cached/coalesced
  ``scores`` / ``breakdown`` / ``national`` query shapes over one
  ColumnarStore or SketchPlane, invalidated by ingest via the plane's
  generation stamp;
* :mod:`.http`    — :class:`ServeServer`: the ``/v1`` endpoints with
  ETag/If-None-Match conditional GETs, layered on the telemetry
  server's routing, error boundary, and per-endpoint metrics.

Layering: serve sits above core, measurements, analysis, and obs —
nothing below imports it.
"""

from __future__ import annotations

from .cache import ScoreCache, SingleFlight
from .http import REGION_ROUTE, ServeServer
from .service import NationalResult, ScoresResult, ScoringService

__all__ = [
    "NationalResult",
    "REGION_ROUTE",
    "ScoreCache",
    "ScoresResult",
    "ScoringService",
    "ServeServer",
    "SingleFlight",
]
