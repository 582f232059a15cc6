"""Measurement aggregation: the paper's "95th percentile" rule.

IQB evaluates a region by aggregating each dataset's measurements with
the 95th percentile and comparing the aggregate against the threshold
(paper §2). Two subtleties are configurable here:

* **percentile** — 95 by default, sweepable for ablations;
* **semantics** — the poster's text applies the 95th percentile to every
  metric (``LITERAL``). For packet loss and latency (lower is better)
  that is a conservative tail statistic: "95 % of measurements are at
  most X". Applied to throughput (higher is better) the same rule is
  *optimistic* — the region passes when merely its top 5 % of tests are
  fast. ``CONSERVATIVE`` flips the percentile to ``100 - p`` for
  higher-is-better metrics so the statistic is a worst-tail bound for
  every metric. The difference between the two is quantified by the
  ``ext-sens`` ablation bench.

Scoring consumes anything implementing the small :class:`QuantileSource`
protocol, so raw per-test collections and Ookla-style pre-aggregated
tables plug in interchangeably.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .exceptions import AggregationError
from .metrics import Direction, Metric


class PercentileSemantics(enum.Enum):
    """How the configured percentile applies across metric directions."""

    LITERAL = "literal"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class AggregationPolicy:
    """Configured aggregation rule (percentile + direction semantics)."""

    percentile: float = 95.0
    semantics: PercentileSemantics = PercentileSemantics.LITERAL

    def __post_init__(self) -> None:
        if not 0.0 <= self.percentile <= 100.0:
            raise AggregationError(
                f"percentile out of [0, 100]: {self.percentile!r}"
            )

    def effective_percentile(self, metric: Metric) -> float:
        """The percentile actually evaluated for ``metric``.

        Under ``LITERAL`` semantics this is the configured percentile for
        every metric. Under ``CONSERVATIVE`` semantics, higher-is-better
        metrics use the mirrored ``100 - p`` so the aggregate is always a
        worst-tail statistic.
        """
        if (
            self.semantics is PercentileSemantics.CONSERVATIVE
            and metric.direction is Direction.HIGHER_IS_BETTER
        ):
            return 100.0 - self.percentile
        return self.percentile


@runtime_checkable
class QuantileSource(Protocol):
    """Anything that can answer quantile queries per metric.

    ``percentile`` is in [0, 100]. Implementations return ``None`` when
    they carry no observations for the metric (e.g. Ookla aggregates
    have no packet loss), and raise nothing: missing data is an expected
    condition the scorer resolves via dataset weights.
    """

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Quantile of the stored measurements, or None if unobserved."""
        ...

    def sample_count(self, metric: Metric) -> int:
        """Number of observations backing the metric (0 if unobserved)."""
        ...


def _interpolate_sorted(values: Sequence[float], percentile: float) -> float:
    """Linear interpolation over an already-sorted sequence.

    Replicates ``np.percentile``'s "linear" method bit-for-bit, including
    its ``t >= 0.5`` lerp branch; the tests hold it to ``np.percentile``
    as their oracle.
    """
    n = len(values)
    pos = (percentile / 100.0) * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    gamma = pos - lo
    a = float(values[lo])
    b = float(values[hi])
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


def percentile_of(
    values: Sequence[float],
    percentile: float,
    assume_sorted: bool = False,
) -> float:
    """Linear-interpolation percentile of a non-empty value sequence.

    This is the single percentile definition used across the project:
    unsorted input is sorted with ``np.sort`` and interpolated by
    :func:`_interpolate_sorted`, so exact collections, aggregate
    publication and the scorer all agree on interpolation behaviour,
    whatever numpy is installed.

    Args:
        values: observations; any sequence (list, tuple, numpy array).
        percentile: in [0, 100].
        assume_sorted: when True, ``values`` is taken to be sorted
            ascending and the answer is computed by O(1) index
            interpolation — no copy, no re-sort. The caller is
            responsible for the sortedness invariant.

    Raises:
        AggregationError: if ``values`` is empty or percentile is out of
            range.
    """
    if len(values) == 0:
        raise AggregationError("cannot take a percentile of no values")
    if not 0.0 <= percentile <= 100.0:
        raise AggregationError(f"percentile out of [0, 100]: {percentile!r}")
    if not assume_sorted:
        values = np.sort(np.asarray(values, dtype=np.float64))
    return _interpolate_sorted(values, percentile)


def aggregate_metric(
    source: QuantileSource,
    metric: Metric,
    policy: AggregationPolicy,
) -> Optional[float]:
    """Apply the policy's percentile rule to one metric of one source.

    Returns ``None`` when the source has no observations for the metric.
    """
    return source.quantile(metric, policy.effective_percentile(metric))


@dataclass(frozen=True)
class SequenceSource:
    """Adapter making plain per-metric value sequences a QuantileSource.

    Useful in tests and examples:

    >>> src = SequenceSource(download_mbps=[50.0, 60.0, 70.0])
    >>> src.quantile(Metric.DOWNLOAD, 50.0)
    60.0
    >>> src.quantile(Metric.LATENCY, 50.0) is None
    True
    """

    download_mbps: Optional[Sequence[float]] = None
    upload_mbps: Optional[Sequence[float]] = None
    latency_ms: Optional[Sequence[float]] = None
    packet_loss: Optional[Sequence[float]] = None

    def _values(self, metric: Metric) -> Optional[Sequence[float]]:
        values = getattr(self, metric.field_name)
        if values is None or len(values) == 0:
            return None
        return values

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        values = self._values(metric)
        if values is None:
            return None
        return percentile_of(values, percentile)

    def sample_count(self, metric: Metric) -> int:
        values = self._values(metric)
        return 0 if values is None else len(values)
