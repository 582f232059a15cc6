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

        Raises:
            SchemaError: on missing required fields or bad types.
        """
        try:
            return cls(
                region=str(doc["region"]),
                source=str(doc["source"]),
                timestamp=float(doc["timestamp"]),
                download_mbps=_opt_float(doc.get("download_mbps")),
                upload_mbps=_opt_float(doc.get("upload_mbps")),
                latency_ms=_opt_float(doc.get("latency_ms")),
                packet_loss=_opt_float(doc.get("packet_loss")),
                isp=str(doc.get("isp", "")),
                access_tech=str(doc.get("access_tech", "")),
                meta=dict(doc.get("meta", {})),
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed measurement document: {exc}") from exc


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)
