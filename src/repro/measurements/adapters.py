"""Ingest adapters for the real datasets' published shapes.

The simulator produces canonical records directly, but a downstream
user of this library will arrive holding actual exports: M-Lab NDT
rows from BigQuery, Cloudflare speed-test CSV extracts, Ookla open-data
tile rows. Each adapter maps one external row shape onto the canonical
:class:`~repro.measurements.record.Measurement` (or, for Ookla tiles,
onto an :class:`~repro.measurements.aggregates.AggregateTable`), doing
the unit conversions at the boundary so nothing downstream ever sees
kbit/s again.

Field names follow the public schemas:

* **NDT** (BigQuery `ndt.unified_downloads` / `_uploads` style):
  ``a.MeanThroughputMbps``, ``a.MinRTT`` (ms), ``a.LossRate``,
  ``client.Geo.Region``, ``date``;
* **Cloudflare** (speed.cloudflare.com aggregated CSV style):
  ``download_mbps``/``upload_mbps`` in Mbit/s already, ``latency_ms``,
  ``packet_loss_pct`` in percent;
* **Ookla open data** (fixed/mobile tiles): ``avg_d_kbps``,
  ``avg_u_kbps``, ``avg_lat_ms``, ``tests`` — pre-aggregated per tile,
  so rows become aggregate knots, not raw records.

All adapters are strict about required fields and tolerant about
extras, and raise :class:`~repro.core.exceptions.SchemaError` naming
the offending field.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric

from .aggregates import AggregateTable, MetricAggregate
from .collection import MeasurementSet
from .record import Measurement


def _require(row: Mapping[str, Any], field: str, adapter: str) -> Any:
    try:
        return row[field]
    except KeyError:
        raise SchemaError(f"{adapter}: row is missing field {field!r}")


def _float(value: Any, field: str, adapter: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaError(
            f"{adapter}: field {field!r} is not numeric: {value!r}"
        )


def ndt_row_to_measurement(row: Mapping[str, Any]) -> Measurement:
    """Convert one M-Lab NDT unified-view row (flattened JSON).

    Expected fields: ``a.MeanThroughputMbps``, ``a.MinRTT``,
    ``a.LossRate``, ``client.Geo.Region``, ``test_time`` (POSIX
    seconds), and direction via ``direction`` ("download"/"upload").
    """
    adapter = "ndt"
    direction = str(_require(row, "direction", adapter))
    if direction not in ("download", "upload"):
        raise SchemaError(f"{adapter}: unknown direction {direction!r}")
    throughput = _float(
        _require(row, "a.MeanThroughputMbps", adapter),
        "a.MeanThroughputMbps",
        adapter,
    )
    return Measurement(
        region=str(_require(row, "client.Geo.Region", adapter)),
        source="ndt",
        timestamp=_float(
            _require(row, "test_time", adapter), "test_time", adapter
        ),
        download_mbps=throughput if direction == "download" else None,
        upload_mbps=throughput if direction == "upload" else None,
        latency_ms=_float(
            _require(row, "a.MinRTT", adapter), "a.MinRTT", adapter
        ),
        packet_loss=min(
            1.0,
            max(
                0.0,
                _float(
                    _require(row, "a.LossRate", adapter), "a.LossRate", adapter
                ),
            ),
        ),
        isp=str(row.get("client.Network.ASName", "")),
        meta={"uuid": row["id"]} if "id" in row else {},
    )


def cloudflare_row_to_measurement(row: Mapping[str, Any]) -> Measurement:
    """Convert one Cloudflare speed-test CSV row.

    Expected fields: ``region``, ``timestamp``, ``download_mbps``,
    ``upload_mbps``, ``latency_ms``, ``packet_loss_pct`` (percent).
    """
    adapter = "cloudflare"
    loss_pct = _float(
        _require(row, "packet_loss_pct", adapter), "packet_loss_pct", adapter
    )
    if not 0.0 <= loss_pct <= 100.0:
        raise SchemaError(
            f"{adapter}: packet_loss_pct out of range: {loss_pct}"
        )
    return Measurement(
        region=str(_require(row, "region", adapter)),
        source="cloudflare",
        timestamp=_float(
            _require(row, "timestamp", adapter), "timestamp", adapter
        ),
        download_mbps=_float(
            _require(row, "download_mbps", adapter), "download_mbps", adapter
        ),
        upload_mbps=_float(
            _require(row, "upload_mbps", adapter), "upload_mbps", adapter
        ),
        latency_ms=_float(
            _require(row, "latency_ms", adapter), "latency_ms", adapter
        ),
        packet_loss=loss_pct / 100.0,
        isp=str(row.get("asn_name", "")),
    )


def ingest_ndt(rows: Iterable[Mapping[str, Any]]) -> MeasurementSet:
    """Ingest many NDT rows into a MeasurementSet."""
    return MeasurementSet(ndt_row_to_measurement(row) for row in rows)


def ingest_cloudflare(rows: Iterable[Mapping[str, Any]]) -> MeasurementSet:
    """Ingest many Cloudflare rows into a MeasurementSet."""
    return MeasurementSet(cloudflare_row_to_measurement(row) for row in rows)


def ookla_tiles_to_aggregate(
    rows: Iterable[Mapping[str, Any]],
    region: str,
) -> AggregateTable:
    """Convert Ookla open-data tile rows for one region into aggregates.

    Tile rows carry kbit/s *averages* plus test counts — no quantiles.
    The adapter treats the test-count-weighted distribution of tile
    averages as the region's distribution and publishes its quantile
    knots. That is exactly the information loss a real Ookla-based IQB
    deployment lives with (DESIGN.md §2), now made explicit in code.

    Expected fields per row: ``avg_d_kbps``, ``avg_u_kbps``,
    ``avg_lat_ms``, ``tests``.

    Raises:
        SchemaError: on missing, non-numeric or non-finite fields, or an
            empty row set.
    """
    adapter = "ookla"

    def finite(row: Mapping[str, Any], field: str) -> float:
        value = _float(_require(row, field, adapter), field, adapter)
        if not math.isfinite(value):
            raise SchemaError(f"{adapter}: non-finite {field}: {value}")
        return value

    downs: list = []
    ups: list = []
    lats: list = []
    for row in rows:
        tests = int(finite(row, "tests"))
        if tests <= 0:
            raise SchemaError(f"{adapter}: tile has non-positive tests: {tests}")
        down = finite(row, "avg_d_kbps") / 1000.0
        up = finite(row, "avg_u_kbps") / 1000.0
        lat = finite(row, "avg_lat_ms")
        downs.extend([down] * tests)
        ups.extend([up] * tests)
        lats.extend([lat] * tests)
    if not downs:
        raise SchemaError(f"{adapter}: no tile rows for region {region!r}")
    percentiles = (5.0, 25.0, 50.0, 75.0, 95.0)

    def knots(values: list) -> MetricAggregate:
        from repro.core.aggregation import percentile_of

        ordered = sorted(values)
        return MetricAggregate(
            knots=tuple(
                (p, percentile_of(ordered, p)) for p in percentiles
            ),
            count=len(values),
        )

    return AggregateTable(
        region=region,
        source="ookla",
        metrics={
            Metric.DOWNLOAD: knots(downs),
            Metric.UPLOAD: knots(ups),
            Metric.LATENCY: knots(lats),
        },
    )


def flatten_nested(row: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts into dotted keys (BigQuery JSON exports).

    >>> flatten_nested({"a": {"MinRTT": 12}, "id": "x"})
    {'a.MinRTT': 12, 'id': 'x'}
    """
    flat: Dict[str, Any] = {}
    for key, value in row.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_nested(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat
