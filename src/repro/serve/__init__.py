"""Scoring-as-a-service: the barometer's public query front door.

The ROADMAP's "serves heavy traffic from millions of users" layer —
``iqb serve`` promotes the read-only telemetry endpoint into a
long-lived scoring service over a live measurement plane:

* :mod:`.service` — :class:`ScoringService`: the ``scores`` /
  ``breakdown`` / ``national`` query shapes over one ColumnarStore or
  SketchPlane, answered from the one scores pass it holds for the
  current generation; ingest bumps the plane's generation stamp, and
  the first read after it runs the next pass (concurrent misses wait
  for that one sweep);
* :mod:`.http`    — :class:`ServeServer`: the ``/v1`` endpoints, each
  ``200`` rendered once per generation and kept as bytes, with
  ETag/If-None-Match conditional GETs, layered on the telemetry
  server's routing, error boundary, and per-endpoint metrics.

Layering: serve sits above core, measurements, analysis, and obs —
nothing below imports it.
"""

from __future__ import annotations

from .http import REGION_ROUTE, ServeServer
from .service import NationalResult, ScoresResult, ScoringService

__all__ = [
    "NationalResult",
    "REGION_ROUTE",
    "ScoresResult",
    "ScoringService",
    "ServeServer",
]
