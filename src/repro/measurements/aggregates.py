"""Pre-aggregated dataset tables (the Ookla-style code path).

Ookla's open data is published only as regional aggregates, not raw
tests. IQB must therefore answer "what is the 95th percentile of this
region?" from a handful of *published quantile knots* rather than from
raw values. :class:`AggregateTable` models exactly that: per metric it
stores a small monotone set of (percentile, value) knots plus the test
count, and answers arbitrary percentile queries by piecewise-linear
interpolation between knots (clamped to the outermost knots beyond the
published range — a documented bias of aggregate-only datasets that the
corroboration bench makes visible).

:func:`aggregate_measurements` plays the role of the publisher: it
reduces a raw :class:`~repro.measurements.collection.MeasurementSet`
to the aggregate form, the same way Ookla reduces its raw tests before
releasing them.

AggregateTable implements the QuantileSource protocol, so scoring code
cannot tell (and must not care) whether a dataset arrived raw or
pre-aggregated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric

from .collection import MeasurementSet

#: Quantile knots a typical aggregate publication carries.
DEFAULT_PUBLISHED_PERCENTILES: Tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)


@dataclass(frozen=True)
class MetricAggregate:
    """Published summary of one metric: quantile knots + sample count."""

    knots: Tuple[Tuple[float, float], ...]
    count: int

    def __post_init__(self) -> None:
        if not self.knots:
            raise SchemaError("aggregate needs at least one quantile knot")
        if self.count <= 0:
            raise SchemaError(f"aggregate count must be positive: {self.count}")
        percentiles = [p for p, _ in self.knots]
        if percentiles != sorted(percentiles):
            raise SchemaError(f"quantile knots not sorted: {percentiles}")
        if len(set(percentiles)) != len(percentiles):
            raise SchemaError(f"duplicate quantile knots: {percentiles}")
        for p, v in self.knots:
            if not 0.0 <= p <= 100.0:
                raise SchemaError(f"knot percentile out of range: {p}")
            # NaN would also break the sortedness check below, and the
            # scoring cube reads NaN as "no observations".
            if not math.isfinite(v):
                raise SchemaError(f"non-finite knot value at p{p}: {v}")
        values = [v for _, v in self.knots]
        if values != sorted(values):
            raise SchemaError(
                f"knot values must be non-decreasing in percentile: {values}"
            )

    def quantile(self, percentile: float) -> float:
        """Interpolated percentile; clamped outside the published knots."""
        knots = self.knots
        if percentile <= knots[0][0]:
            return knots[0][1]
        if percentile >= knots[-1][0]:
            return knots[-1][1]
        for (p_lo, v_lo), (p_hi, v_hi) in zip(knots, knots[1:]):
            if p_lo <= percentile <= p_hi:
                if p_hi == p_lo:
                    return v_lo
                frac = (percentile - p_lo) / (p_hi - p_lo)
                return v_lo + frac * (v_hi - v_lo)
        return knots[-1][1]  # unreachable; defensive


class AggregateTable:
    """A region's published aggregates across metrics (QuantileSource)."""

    def __init__(
        self,
        region: str,
        source: str,
        metrics: Mapping[Metric, MetricAggregate],
    ) -> None:
        if not metrics:
            raise SchemaError("aggregate table carries no metrics")
        self.region = region
        self.source = source
        self._metrics: Dict[Metric, MetricAggregate] = dict(metrics)
        # The scorer asks the same (metric, percentile) up to once per
        # use case; knots never change after construction, so answers
        # are memoized for the life of the table.
        self._quantile_cache: Dict[Tuple[Metric, float], Optional[float]] = {}

    def metrics(self) -> Tuple[Metric, ...]:
        """Metrics this table publishes, in canonical order."""
        return tuple(m for m in Metric.ordered() if m in self._metrics)

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Interpolated percentile (QuantileSource protocol, memoized)."""
        key = (metric, percentile)
        if key in self._quantile_cache:
            return self._quantile_cache[key]
        aggregate = self._metrics.get(metric)
        answer = None if aggregate is None else aggregate.quantile(percentile)
        self._quantile_cache[key] = answer
        return answer

    def sample_count(self, metric: Metric) -> int:
        """Published test count behind the metric (QuantileSource)."""
        aggregate = self._metrics.get(metric)
        return 0 if aggregate is None else aggregate.count

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "region": self.region,
            "source": self.source,
            "metrics": {
                metric.value: {
                    "count": aggregate.count,
                    "knots": [list(knot) for knot in aggregate.knots],
                }
                for metric, aggregate in self._metrics.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "AggregateTable":
        """Rebuild from :meth:`to_dict` output."""
        try:
            metrics = {
                Metric(name): MetricAggregate(
                    knots=tuple(
                        (float(p), float(v)) for p, v in entry["knots"]
                    ),
                    count=int(entry["count"]),
                )
                for name, entry in doc["metrics"].items()
            }
            return cls(
                region=str(doc["region"]),
                source=str(doc["source"]),
                metrics=metrics,
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed aggregate document: {exc}") from exc


def aggregate_measurements(
    records: MeasurementSet,
    region: str,
    source: str,
    percentiles: Sequence[float] = DEFAULT_PUBLISHED_PERCENTILES,
    metrics: Optional[Sequence[Metric]] = None,
) -> AggregateTable:
    """Reduce raw measurements to the published aggregate form.

    This simulates the dataset publisher's own aggregation step: for each
    metric present in the records, compute the knot percentiles and the
    test count, drop everything else.

    Raises:
        SchemaError: when the records contain none of the requested
            metrics for the region.
    """
    subset = records.for_region(region).for_source(source)
    wanted = tuple(metrics) if metrics is not None else Metric.ordered()
    table: Dict[Metric, MetricAggregate] = {}
    for metric in wanted:
        count = subset.sample_count(metric)
        if not count:
            continue
        # The subset's store sorts once per metric; every knot
        # interpolates off the same sorted column.
        knots = tuple(
            (float(p), subset.quantile(metric, p)) for p in sorted(percentiles)
        )
        table[metric] = MetricAggregate(knots=knots, count=count)
    if not table:
        raise SchemaError(
            f"no records for region={region!r} source={source!r} "
            f"carry any requested metric"
        )
    return AggregateTable(region=region, source=source, metrics=table)

