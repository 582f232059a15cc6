"""The canonical per-test measurement record.

Every dataset in the IQB pipeline — simulated NDT, Cloudflare, Ookla, or
user-supplied real data — reduces to a stream of :class:`Measurement`
records: one speed-test-like observation from one vantage point at one
time. The IQB scorer only ever consumes these fields, which is exactly
what makes the simulator a faithful substitute for live vantage points
(DESIGN.md §2).

Units are canonical throughout: Mbit/s, milliseconds, loss as a fraction
in [0, 1]. Timestamps are POSIX seconds (float) to stay
timezone-agnostic and cheap to generate in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric

_INF = float("inf")


@dataclass(frozen=True)
class Measurement:
    """One network measurement from one vantage point.

    Optional metric fields are ``None`` when the originating methodology
    does not observe them (e.g. Ookla-style records carry no packet
    loss). At least one metric must be present.
    """

    region: str
    source: str
    timestamp: float
    download_mbps: Optional[float] = None
    upload_mbps: Optional[float] = None
    latency_ms: Optional[float] = None
    packet_loss: Optional[float] = None
    isp: str = ""
    access_tech: str = ""
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Each range check is written so that NaN and ±inf fail it: NaN
        # is the columnar plane's missing-value sentinel, and an
        # infinity turns interpolated percentiles into NaN.
        if not self.region:
            raise SchemaError("measurement requires a region")
        if not self.source:
            raise SchemaError("measurement requires a source dataset name")
        if not -_INF < self.timestamp < _INF:
            raise SchemaError(f"non-finite timestamp: {self.timestamp}")
        download, upload = self.download_mbps, self.upload_mbps
        latency, loss = self.latency_ms, self.packet_loss
        if (
            download is None
            and upload is None
            and latency is None
            and loss is None
        ):
            raise SchemaError("measurement carries no metric values")
        for metric, value in (
            (Metric.DOWNLOAD, download),
            (Metric.UPLOAD, upload),
        ):
            if value is not None and not 0.0 <= value < _INF:
                raise SchemaError(
                    f"{'negative' if value < 0 else 'non-finite'} "
                    f"{metric.value}: {value}"
                )
        if latency is not None and not 0.0 < latency < _INF:
            raise SchemaError(
                f"{'non-positive' if latency <= 0 else 'non-finite'} "
                f"latency_ms: {latency}"
            )
        if loss is not None and not 0.0 <= loss <= 1.0:
            raise SchemaError(f"packet_loss outside [0, 1]: {loss}")

    def value(self, metric: Metric) -> Optional[float]:
        """The stored value for ``metric`` (None when unobserved)."""
        return getattr(self, metric.field_name)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (used by the JSONL writer)."""
        doc: Dict[str, Any] = {
            "region": self.region,
            "source": self.source,
            "timestamp": self.timestamp,
        }
        for metric in Metric:
            value = self.value(metric)
            if value is not None:
                doc[metric.field_name] = value
        if self.isp:
            doc["isp"] = self.isp
        if self.access_tech:
            doc["access_tech"] = self.access_tech
        if self.meta:
            doc["meta"] = dict(self.meta)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Measurement":
        """Rebuild a record from :meth:`to_dict` output.

        A null ``region`` or ``source`` is as malformed as an absent
        one, a null ``isp`` or ``access_tech`` reads as absent (``""``),
        and a boolean timestamp or metric is rejected rather than read
        as 1.0 or 0.0.

        Raises:
            SchemaError: on missing required fields or bad types.
        """
        try:
            region = doc["region"]
            if region is None:
                raise KeyError("region")
            source = doc["source"]
            if source is None:
                raise KeyError("source")
            timestamp = doc["timestamp"]
            if timestamp is True or timestamp is False:
                raise _boolean("timestamp", timestamp)
            get = doc.get
            isp, tech = get("isp"), get("access_tech")
            return cls(
                region=str(region),
                source=str(source),
                timestamp=float(timestamp),
                download_mbps=_opt_float(doc, "download_mbps"),
                upload_mbps=_opt_float(doc, "upload_mbps"),
                latency_ms=_opt_float(doc, "latency_ms"),
                packet_loss=_opt_float(doc, "packet_loss"),
                isp="" if isp is None else str(isp),
                access_tech="" if tech is None else str(tech),
                meta=dict(get("meta", {})),
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: an int too large for a float.
            raise SchemaError(f"malformed measurement document: {exc}") from exc


def _opt_float(doc: Mapping[str, Any], name: str) -> Optional[float]:
    value = doc.get(name)
    if value is None:
        return None
    if value is True or value is False:
        raise _boolean(name, value)
    return float(value)


def _boolean(name: str, value: bool) -> SchemaError:
    # bool is an int subclass: float() would read true as 1.0.
    return SchemaError(
        f"malformed measurement document: boolean {name}: "
        f"{str(value).lower()}"
    )
