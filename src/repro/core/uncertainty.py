"""Bootstrap uncertainty for IQB scores.

A region's IQB score is a statistic of a finite, noisy measurement
sample; two weeks of crowdsourced tests will not produce identical
scores. The nonparametric bootstrap quantifies that: resample each
dataset's records with replacement, re-score, repeat. Because the
binary requirement scores threshold a tail percentile, the score
distribution is discrete-ish and can be surprisingly wide near a
threshold — exactly the situation a barometer's consumers need to see.

Only raw-measurement sources can be bootstrapped (aggregate-only tables
carry no resampling units); they are held fixed across replicates, which
matches how a real study would treat a published aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarView

from .aggregation import QuantileSource
from .config import IQBConfig
from .scoring import score_region


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap distribution of one region's ``S_IQB``."""

    point_estimate: float
    scores: Tuple[float, ...]

    @property
    def mean(self) -> float:
        """Mean of the bootstrap distribution."""
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        """Standard error of the score."""
        return float(np.std(self.scores))

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Percentile bootstrap confidence interval."""
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence outside (0, 1): {confidence!r}")
        alpha = (1.0 - confidence) / 2.0
        array = np.asarray(self.scores)
        return (
            float(np.percentile(array, 100.0 * alpha)),
            float(np.percentile(array, 100.0 * (1.0 - alpha))),
        )

    @property
    def width95(self) -> float:
        """Width of the 95 % interval (headline uncertainty number)."""
        lo, hi = self.interval(0.95)
        return hi - lo


def _resample(
    source: MeasurementSet, rng: np.random.Generator
) -> ColumnarView:
    """One replicate: rows of ``source``'s store drawn with replacement."""
    n = len(source)
    return ColumnarView(source.columnar(), rng.integers(0, n, size=n))


def bootstrap_score(
    sources: Mapping[str, Union[MeasurementSet, QuantileSource]],
    config: IQBConfig,
    replicates: int = 200,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap the IQB score of one region.

    ``sources`` may mix raw :class:`MeasurementSet` values (resampled
    per replicate) and other QuantileSources (held fixed).

    Raises:
        ValueError: for a non-positive replicate count.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1: {replicates}")
    point = score_region(sources, config).value
    rng = np.random.default_rng(seed)
    scores: List[float] = []
    for _ in range(replicates):
        resampled: Dict[str, QuantileSource] = {}
        for name, source in sources.items():
            if isinstance(source, MeasurementSet) and len(source) > 0:
                resampled[name] = _resample(source, rng)
            else:
                resampled[name] = source
        scores.append(score_region(resampled, config).value)
    return BootstrapResult(point_estimate=point, scores=tuple(scores))


def sample_size_curve(
    sources: Mapping[str, MeasurementSet],
    config: IQBConfig,
    sizes: Tuple[int, ...] = (25, 50, 100, 200, 400),
    replicates: int = 100,
    seed: int = 0,
) -> Dict[int, BootstrapResult]:
    """Bootstrap CI width as a function of per-dataset sample count.

    For each target size n, each dataset is subsampled (without
    replacement when possible) to n records before bootstrapping —
    answering "how many tests does a region need before its IQB score
    stabilizes?", the practical deployment question behind the poster's
    dataset tier.
    """
    rng = np.random.default_rng(seed)
    out: Dict[int, BootstrapResult] = {}
    for size in sizes:
        if size < 1:
            raise ValueError(f"sizes must be positive: {size}")
        subsampled: Dict[str, MeasurementSet] = {}
        for name, records in sources.items():
            if len(records) <= size:
                subsampled[name] = records
            else:
                indices = rng.choice(len(records), size=size, replace=False)
                indices.sort()
                subsampled[name] = records._select(indices)
        out[size] = bootstrap_score(
            subsampled, config, replicates=replicates, seed=seed + size
        )
    return out
